"""Symbolic gauge transformation for Schrödinger-parity hierarchy equations.

With v = exp(-i Phi) q and Phi_x = q r, i v_t = exp(-i Phi) (i q_t + Phi_t q), so

    i v_t + g ∂_x^(2j) v = sigma_+(i q_t + Phi_t q) + g ∂_x^(2j) v,

where the twisted substitution sigma_+ (∂_x^k q -> (∂_x + i q r)^k q, the
conjugate rule for r) rewrites exp(-i Phi) times a phase-balanced polynomial
in q as a polynomial in v.  The flow has no bad cubic terms, and it is local
because ``algebra.antiderivative`` finds Phi_t from the mass flux q_t r + q r_t.
The flow and Phi_t both take i q_t = N - g ∂_x^(2j) q, with g ∂_x^(2j) q = ``eq.linear``.

The substitution runs on Gaussian integers and packed keys: a twisted
factor is (∂_x + i q r)^k q as {key: (u, v)}, merged by ``algebra.merge_terms``,
swapped by ``algebra.swap_qr`` and conjugated for an r-factor, and cached by the
factor's key slot; sigma_- is sigma_+ conjugated.  A call reads its input as
``IntTerms`` over one common denominator (``DiffPoly.numerators``), expands it
in Horner form, highest occupied slot first, and hands the ``IntTerms`` of the
result over the same denominator to ``DiffPoly.over``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .algebra import (
    DiffPoly,
    GaussianRational,
    IntTerms,
    antiderivative,
    coeff_to_json,
    dx_terms,
    grading,
    merge_terms,
    pack,
    poly_to_json,
    serialize_poly,
    swap_qr,
)
from .hierarchy import Equation, extract_bad_cubics, is_bad_cubic

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
def _twisted(slot: int) -> IntTerms:
    """sigma_+ of the factor in key slot s as {key: (u, v)}, the sum of
    (u + v i) key; callers only read it.  For q (even s) it is
    (∂_x + i q r)^k q: ∂ keeps a term's value and inserting q r multiplies it
    by i.  For r (odd s) it is the q-factor of slot s - 1 swapped, v negated."""
    if slot & 1:
        return {key: (u, -v) for key, (u, v) in swap_qr(_twisted(slot - 1).items())}
    if not slot:
        return {_Q_KEY: (1, 0)}
    prev = _twisted(slot - 2).items()
    return merge_terms(chain(dx_terms(prev), ((k + _QR_KEY, (-v, u), 1) for k, (u, v) in prev)))


def twist_substitute(p: DiffPoly, direction: int) -> DiffPoly:
    """Replace ∂_x^k q by (∂_x + direction*i*qr)^k q and the conjugate rule for r.

    Correctness rests on ∂_x(e^{iPhi} w) = e^{iPhi}(∂_x + i Phi_x) w with
    Phi_x = qr, which is invariant under the substitution itself (the gauge
    factor is unimodular).  Every monomial must carry exactly one more q-type
    factor than r-type, so the phases cancel; any other raises PhaseImbalance.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")

    def horner(terms: IntTerms) -> IntTerms:
        # Horner form, highest occupied slot first: terms sharing it are
        # summed first.  Coefficients are Gaussian integers a + b i over den.
        acc, groups = {}, {}
        for key, c in terms.items():
            if key:
                slot = (key.bit_length() - 1) >> 3
                groups.setdefault(slot, {})[key - (1 << 8 * slot)] = c
            else:
                acc[0] = c
        for slot, rest in groups.items():
            h = horner(rest).items()
            for k1, (u, v) in _twisted(slot).items():
                for k2, (a, b) in h:
                    key, x, y = k1 + k2, a * u - b * v, a * v + b * u
                    s = acc.get(key)
                    acc[key] = (x, y) if s is None else (s[0] + x, s[1] + y)
        return {k: c for k, c in acc.items() if c[0] or c[1]}

    for key, coeff in p.terms():
        nq, nr, _ = grading(key)
        if nq != nr + 1:
            raise PhaseImbalance(f"monomial {serialize_poly(DiffPoly([(key, coeff)]))}")
    # sigma_- = conj o sigma_+ o conj: the rules differ only in the sign of i.
    den, scaled = p.numerators()
    twisted = horner({k: (a, direction * b) for k, (a, b) in scaled.items()})
    return DiffPoly.over(den, {k: (a, direction * b) for k, (a, b) in twisted.items()})


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
