"""Symbolic gauge transformation for Schrödinger-parity hierarchy equations.

With v = exp(-i Phi) q and Phi_x = q r, i v_t = exp(-i Phi) (i q_t + Phi_t q), so

    i v_t + g ∂_x^(2j) v = sigma_+(i q_t + Phi_t q) + g ∂_x^(2j) v,

where the twisted substitution sigma_+ (∂_x^k q -> (∂_x + i q r)^k q, the
conjugate rule for r) rewrites exp(-i Phi) times a phase-balanced polynomial
in q as a polynomial in v.  The flow is local because Phi_t is an exact
antiderivative of the mass flux q_t r + q r_t, and it has no bad cubic terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    DiffPoly,
    Factors,
    GaussianRational,
    euler_tails,
    fmt_fraction,
    grading,
    pack,
    poly_to_json,
    serialize_poly,
    unpack,
)
from .hierarchy import Equation, extract_bad_cubics, is_bad_cubic

__all__ = [
    "NotExact",
    "PhaseImbalance",
    "ResidualBadCubic",
    "GaugeDerivation",
    "antiderivative",
    "phase_time_derivative",
    "twist_substitute",
    "derive_gauged",
    "is_gauged_form",
]

_I = GaussianRational.i()
_QR = DiffPoly.variable("q") * DiffPoly.variable("r")


class NotExact(Exception):
    """p has no antiderivative in the ring; carries a graded block with no preimage."""

    def __init__(self, residual: DiffPoly):
        self.residual = residual
        super().__init__(f"not an exact derivative; residual {serialize_poly(residual)}")


class PhaseImbalance(Exception):
    """A monomial does not have exactly one more q-type than r-type factor."""


class ResidualBadCubic(Exception):
    """Bad cubic terms survived the gauge derivation."""

    def __init__(self, residual: dict[int, GaussianRational]):
        self.residual = residual
        super().__init__(f"bad cubics survived gauging: {residual}")


# ---------------------------------------------------------------------------
# Exact antiderivative by the homotopy operator
# ---------------------------------------------------------------------------

def _homotopy(block: DiffPoly, degree: int) -> DiffPoly:
    """1-D homotopy operator on a block homogeneous of the given degree:

        (1/degree) sum_var sum_k sum_{i<k} ∂^i var (-D)^(k-i-1) ∂block/∂(∂^k var)

    summed per k as ∂^(k-1) var * T_k over the Euler tails T_k, k >= 1.
    """
    pieces = []
    for var in ("q", "r"):
        for k, tail in euler_tails(block, var, 1):
            factor = pack(((var, k - 1),))  # a product of keys is their sum
            pieces.extend((key + factor, c) for key, c in tail.terms())
    return DiffPoly(pieces).scale(Fraction(1, degree))


def antiderivative(p: DiffPoly) -> DiffPoly:
    """The unique P with dx(P) = p, or :class:`NotExact`.

    dx adds one derivative and keeps #q and #r, so each block of equal
    ``grading`` (#q, #r, #derivatives) is integrated on its own, by the
    homotopy operator (Hereman et al. 2005) on a block of degree #q + #r.
    A block is accepted only if dx of the result gives it back exactly; the
    first block that is not, constants included, is raised as the
    :class:`NotExact` residual.  Injectivity of dx on constant-free
    polynomials makes P unique when it exists.
    """
    blocks: dict[tuple[int, int, int], list[tuple[int, GaussianRational]]] = {}
    for key, coeff in p.terms():
        blocks.setdefault(grading(key), []).append((key, coeff))
    result = []
    for (nq, nr, _), terms in blocks.items():
        block = DiffPoly(terms)
        primitive = _homotopy(block, nq + nr) if nq + nr else DiffPoly.zero()
        if primitive.dx() != block:
            raise NotExact(block)
        result.append(primitive)
    return DiffPoly.sum(result)


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
