"""Symbolic gauge transformation for Schrödinger-parity hierarchy equations.

With v = exp(-i Phi) q and Phi_x = q r, i v_t = exp(-i Phi) (i q_t + Phi_t q), so

    i v_t + g ∂_x^(2j) v = sigma_+(i q_t + Phi_t q) + g ∂_x^(2j) v,

where the twisted substitution sigma_+ (∂_x^k q -> (∂_x + i q r)^k q, the
conjugate rule for r) rewrites exp(-i Phi) times a phase-balanced polynomial
in q as a polynomial in v.  The flow has no bad cubic terms, and it is local
because ``algebra.antiderivative`` finds Phi_t from the mass flux q_t r + q r_t.
The flow and Phi_t both take i q_t = N - g ∂_x^(2j) q, with g ∂_x^(2j) q = ``eq.linear``.

The substitution runs on Gaussian integers and packed keys: a twisted
factor is the terms of (∂_x + i q r)^k q as (key, (u, v)) pairs, swapped by
``algebra.swap_qr`` and conjugated for an r-factor, cached by the factor's
key slot; sigma_- is sigma_+ conjugated.  A call scales its input to
Gaussian integers over one common denominator, expands it in Horner form,
highest occupied slot first, on (re, im) integer pairs per packed key, and
converts each output term once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import lcm

from .algebra import (
    DiffPoly,
    GaussianRational,
    _reduced,
    antiderivative,
    coeff_to_json,
    dx_terms,
    grading,
    pack,
    poly_to_json,
    serialize_poly,
    swap_qr,
)
from .hierarchy import Equation, extract_bad_cubics, is_bad_cubic

__all__ = [
    "PhaseImbalance",
    "ResidualBadCubic",
    "GaugeDerivation",
    "phase_time_derivative",
    "twist_substitute",
    "derive_gauged",
    "is_gauged_form",
]

_I = GaussianRational.i()
_Q_KEY = pack((("q", 0),))
_QR_KEY = pack((("q", 0), ("r", 0)))


class PhaseImbalance(Exception):
    """A monomial does not have exactly one more q-type than r-type factor."""


class ResidualBadCubic(Exception):
    """Bad cubic terms survived the gauge derivation."""

    def __init__(self, residual: dict[int, GaussianRational]):
        self.residual = residual
        super().__init__(f"bad cubics survived gauging: {residual}")


# ---------------------------------------------------------------------------
# Phase time derivative and twisted substitution
# ---------------------------------------------------------------------------

def phase_time_derivative(eq: Equation) -> DiffPoly:
    """Phi_t: the exact antiderivative of the mass flux q_t r + q r_t."""
    if eq.parity != "schrodinger":
        raise ValueError("phase_time_derivative requires Schrödinger parity")
    qt = (eq.nonlinearity - eq.linear).scale(-_I)
    flux = qt * DiffPoly.variable("r") + DiffPoly.variable("q") * qt.conj()
    return antiderivative(flux)


@lru_cache(maxsize=None)
def _twisted(slot: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """sigma_+ of the factor in key slot s as (key, (u, v)) terms, the sum of
    (u + v i) key.  For q (even s) it is (∂_x + i q r)^k q: ∂ keeps a term's
    value and inserting q r multiplies it by i.  For r (odd s) it is the
    q-factor of slot s - 1 swapped, v negated."""
    if slot & 1:
        return tuple((key, (u, -v)) for key, (u, v) in swap_qr(_twisted(slot - 1)))
    if not slot:
        return ((_Q_KEY, (1, 0)),)
    prev = _twisted(slot - 2)
    acc: dict[int, tuple[int, int]] = {}
    inserted = ((k + _QR_KEY, (-v, u), 1) for k, (u, v) in prev)
    for key, (u, v), n in chain(dx_terms(prev), inserted):
        s = acc.get(key, (0, 0))
        acc[key] = (s[0] + n * u, s[1] + n * v)
    return tuple(acc.items())


def twist_substitute(p: DiffPoly, direction: int) -> DiffPoly:
    """Replace ∂_x^k q by (∂_x + direction*i*qr)^k q and the conjugate rule for r.

    Correctness rests on ∂_x(e^{iPhi} w) = e^{iPhi}(∂_x + i Phi_x) w with
    Phi_x = qr, which is invariant under the substitution itself (the gauge
    factor is unimodular).  Every monomial must carry exactly one more q-type
    factor than r-type, so the phases cancel; any other raises PhaseImbalance.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")

    def horner(terms: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
        # Horner form, highest occupied slot first: terms sharing it are
        # summed first.  Coefficients are Gaussian integers a + b i over den.
        acc, groups = {}, {}
        for key, a, b in terms:
            if key:
                slot = (key.bit_length() - 1) >> 3
                groups.setdefault(slot, []).append((key - (1 << 8 * slot), a, b))
            else:
                acc[0] = (a, b)
        for slot, rest in groups.items():
            h = horner(rest)
            for k1, (u, v) in _twisted(slot):
                for k2, a, b in h:
                    key, x, y = k1 + k2, a * u - b * v, a * v + b * u
                    s = acc.get(key)
                    acc[key] = (x, y) if s is None else (s[0] + x, s[1] + y)
        return [(k, a, b) for k, (a, b) in acc.items() if a or b]

    terms = p.terms()
    for key, coeff in terms:
        nq, nr, _ = grading(key)
        if nq != nr + 1:
            raise PhaseImbalance(f"monomial {serialize_poly(DiffPoly([(key, coeff)]))}")
    # sigma_- = conj o sigma_+ o conj: the rules differ only in the sign of i.
    den = lcm(*(c._d for _, c in terms))
    scaled = [(k, c._a * (den // c._d), direction * c._b * (den // c._d)) for k, c in terms]
    return DiffPoly((k, _reduced(a, direction * b, den)) for k, a, b in horner(scaled))


# ---------------------------------------------------------------------------
# Gauged equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeDerivation:
    """Bundle: source equation, Phi_t, derived gauged equation, residual."""

    source: Equation
    phase_time_derivative: DiffPoly
    gauged: Equation
    residual_bad_cubics: dict[int, GaussianRational]

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "phase_time_derivative": poly_to_json(self.phase_time_derivative),
            "gauged": self.gauged.to_json(),
            "residual_bad_cubics": {
                str(k): coeff_to_json(c) for k, c in self.residual_bad_cubics.items()
            },
        }


def derive_gauged(eq: Equation) -> GaugeDerivation:
    """Conjugate a Schrödinger-parity equation by exp(-i ∫|q|^2).

    Returns the gauged equation for v = exp(-i Phi) q in canonical form,
    asserting that no bad cubic term survives.
    """
    if eq.parity != "schrodinger":
        raise ValueError("derive_gauged requires Schrödinger parity")
    if not eq.is_canonical:
        raise ValueError("derive_gauged requires the canonical normalization (alpha = 2^n)")
    phi_t = phase_time_derivative(eq)
    i_qt = eq.nonlinearity - eq.linear  # i q_t = N - g ∂_x^(2j) q
    gauged_nl = twist_substitute(i_qt + phi_t * DiffPoly.variable("q"), +1) + eq.linear
    gauged = Equation(eq.n, eq.alpha, gauged_nl)
    residual = extract_bad_cubics(gauged)
    if residual:
        raise ResidualBadCubic(residual)
    return GaugeDerivation(eq, phi_t, gauged, residual)


def is_gauged_form(eq: Equation) -> bool:
    """True iff the nonlinearity matches the gauged shape for this j.

    Every monomial must be phase balanced, with k + 1 q factors and k r
    factors for some 1 <= k <= 2j, carry 2j - k derivatives, and not be a
    bad cubic (:func:`~.hierarchy.is_bad_cubic`).
    """
    if eq.parity != "schrodinger":
        return False
    j = eq.j
    for key, _ in eq.nonlinearity.terms():
        nq, nr, d = grading(key)
        if nq != nr + 1 or not 1 <= nr <= 2 * j or d != 2 * j - nr or is_bad_cubic(key):
            return False
    return True
