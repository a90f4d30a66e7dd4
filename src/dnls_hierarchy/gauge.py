"""Symbolic gauge transformation for Schrödinger-parity hierarchy equations.

With v = exp(-i Phi) q and Phi_x = q r, i v_t = exp(-i Phi) (i q_t + Phi_t q), so

    i v_t + g ∂_x^(2j) v = sigma_+(i q_t + Phi_t q) + g ∂_x^(2j) v,

where the twisted substitution sigma_+ (∂_x^k q -> (∂_x + i q r)^k q, the
conjugate rule for r) rewrites exp(-i Phi) times a phase-balanced polynomial
in q as a polynomial in v.  The flow has no bad cubic terms, and it is local
because ``algebra.antiderivative`` finds Phi_t from the mass flux q_t r + q r_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    DiffPoly,
    Factors,
    GaussianRational,
    antiderivative,
    fmt_fraction,
    grading,
    poly_to_json,
    serialize_poly,
    unpack,
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
_QR = DiffPoly.variable("q") * DiffPoly.variable("r")


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

def time_derivative_rhs(eq: Equation) -> DiffPoly:
    """q_t expressed through the equation: q_t = -i (N - g ∂_x^(n+1) q)."""
    if eq.parity != "schrodinger":
        raise ValueError("time_derivative_rhs requires Schrödinger parity")
    linear = DiffPoly.monomial(eq.lhs_coeff, (("q", eq.dispersion_order),))
    return (eq.nonlinearity - linear).scale(-_I)


def phase_time_derivative(eq: Equation) -> DiffPoly:
    """Phi_t: the exact antiderivative of the mass flux q_t r + q r_t."""
    qt = time_derivative_rhs(eq)
    rt = qt.conj()
    flux = qt * DiffPoly.variable("r") + DiffPoly.variable("q") * rt
    return antiderivative(flux)


@lru_cache(maxsize=None)
def _twisted_q_power(order: int, direction: int) -> DiffPoly:
    """(∂_x + direction*i*q*r)^order applied to q, expanded exactly."""
    if order == 0:
        return DiffPoly.variable("q")
    w = _twisted_q_power(order - 1, direction)
    return w.dx() + (_QR * w).scale(GaussianRational.of(0, direction))


def twist_substitute(p: DiffPoly, direction: int) -> DiffPoly:
    """Replace ∂_x^k q by (∂_x + direction*i*qr)^k q and the conjugate rule for r.

    Correctness rests on ∂_x(e^{iPhi} w) = e^{iPhi}(∂_x + i Phi_x) w with
    Phi_x = qr, which is invariant under the substitution itself (the gauge
    factor is unimodular).  Every monomial must carry exactly one more q-type
    factor than r-type, so the phases cancel; any other raises PhaseImbalance.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")

    def horner(terms: list[tuple[Factors, GaussianRational]]) -> DiffPoly:
        # Horner form, highest factor first: terms sharing it are summed first.
        out, groups = [], {}
        for factors, coeff in terms:
            if factors:
                groups.setdefault(factors[0], []).append((factors[1:], coeff))
            else:
                out.append(DiffPoly.constant(coeff))
        for (var, order), rest in groups.items():
            piece = _twisted_q_power(order, direction)
            out.append((piece.conj() if var == "r" else piece) * horner(rest))
        return DiffPoly.sum(out)

    terms = []
    for key, coeff in p.terms():
        nq, nr, _ = grading(key)
        if nq != nr + 1:
            raise PhaseImbalance(f"monomial {serialize_poly(DiffPoly([(key, coeff)]))}")
        terms.append((unpack(key)[::-1], coeff))
    return horner(terms)


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
                str(k): {"re": fmt_fraction(c.re), "im": fmt_fraction(c.im)}
                for k, c in self.residual_bad_cubics.items()
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
    i_qt = time_derivative_rhs(eq).scale(_I)  # N - g ∂_x^(2j) q
    linear = DiffPoly.variable("q", eq.dispersion_order).scale(eq.lhs_coeff)
    gauged_nl = twist_substitute(i_qt + phi_t * DiffPoly.variable("q"), +1) + linear
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
