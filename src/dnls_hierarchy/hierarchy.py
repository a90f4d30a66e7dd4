"""Generation of the dNLS hierarchy: Y_n recursion, Hamiltonians, equations.

The Kaup-Newell style recursion

    Y_0 = -r/(2i),    Y_{n+1} = ( dx(Y_n) + q * sum_{k=0}^{n} Y_{n-k} Y_k ) / (2i)

produces differential polynomials whose pairing I_n = ∫ q Y_n dx yields the
hierarchy Hamiltonians.  The recursion runs on integer coordinates,

    Y_n = sum_m c_m (2i)^(k_m - 2n - 1) m,    k_m the derivative count of m,

since the 1/(2i) of a step is exactly the change of unit from n to n+1, for
the dx term and the product term alike.  So c_0 = -r and
c_n = dx c_(n-1) + q sum_k c_(n-1-k) c_k on plain ints, with dx the
key-level rule ``algebra.dx_terms`` that ``DiffPoly.dx`` uses too, and
``compute_Y`` converts them with one ``DiffPoly.over`` per n, over 2^(2n+1).

The n-th equation is the Hamiltonian flow

    i dq/dt = 2 alpha * dx( delta/delta r  [q Y_n] )

with r identified with the complex conjugate of q.  Odd n = 2j-1 gives the
Schrödinger-type (dNLS) equations, even n >= 2 the mKdV-type companions,
n = 0 the transport equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    DiffPoly,
    GaussianRational,
    Term,
    coeff_to_json,
    dx_terms,
    grading,
    latex_coefficient,
    merge_terms,
    pack,
    poly_to_json,
    poly_to_latex,
    serialize_poly,
    serialize_term,
    unpack,
    variational_derivative,
)

__all__ = [
    "PropertyViolation",
    "NormalizationMismatch",
    "YPropertyReport",
    "Equation",
    "compute_Y",
    "hamiltonian_density",
    "check_Y_properties",
    "build_hierarchy_equation",
    "unit_form",
    "is_bad_cubic",
    "extract_bad_cubics",
    "predicted_bad_cubic_coefficient",
    "verify_bad_cubics",
    "cubic_terms",
]

_Q = DiffPoly.variable("q")


class PropertyViolation(Exception):
    """A structural invariant of Y_n failed; carries item and term."""

    def __init__(self, item: int, term: Term | None, message: str):
        self.item = item
        self.term = term
        super().__init__(f"Y property {item}: {message}")


class NormalizationMismatch(Exception):
    """A unit form breaks its normalization: linear coefficient or homogeneity."""


_Q_KEY = pack((("q", 0),))


def _times_i_pow(a: int, b: int, m: int) -> tuple[int, int]:
    """(a + b i) i^m as an integer pair."""
    return ((a, b), (-b, a), (-a, -b), (b, -a))[m % 4]


@lru_cache(maxsize=None)
def _coordinates(n: int) -> tuple[tuple[int, int], ...]:
    """Integer coordinates of Y_n, (packed key, c) pairs (see the module docstring)."""
    if n == 0:
        return ((pack((("r", 0),)), -1),)
    acc: dict[int, int] = {}
    for key, c, m in dx_terms(_coordinates(n - 1)):
        acc[key] = acc.get(key, 0) + m * c
    # The sum over k is symmetric under k <-> n-1-k: form each pair once.
    for k in range((n + 1) // 2):
        right = _coordinates(k)
        weight = 1 if 2 * k == n - 1 else 2
        for k1, c1 in _coordinates(n - 1 - k):
            k1 += _Q_KEY  # times q
            c1 *= weight
            for k2, c2 in right:
                key = k1 + k2
                acc[key] = acc.get(key, 0) + c1 * c2
    return tuple((key, c) for key, c in acc.items() if c)


@lru_cache(maxsize=None)
def compute_Y(n: int) -> DiffPoly:
    """n-th conserved-density generator, by the exact recursion (memoized)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 126:  # checked up front: the recursion would not end in practice, or overflow the stack
        raise OverflowError(f"Y_{n} is past the packed-key limit n <= 126: a slot of Y_n "
                            "holds up to n + 1 copies of a factor, a monomial at most 127")
    # The unit (2i)^(k - 2n - 1) is 2^k i^(k - 2n - 1) over 2^(2n+1).
    units = [_times_i_pow(1 << k, 0, k - 2 * n - 1) for k in range(n + 1)]
    y = {key: (c * u, c * v) for key, c in _coordinates(n) for u, v in (units[grading(key)[2]],)}
    return DiffPoly.over(2 ** (2 * n + 1), y)


def hamiltonian_density(n: int) -> DiffPoly:
    """Density q*Y_n whose integral is the n-th Hamiltonian I_n."""
    return _Q * compute_Y(n)


@dataclass(frozen=True)
class YPropertyReport:
    """Outcome of the structural checks on Y_n (items 1-4 plus the
    single-factor comparison of item 5, which is reported, never enforced)."""

    n: int
    n_terms: int
    items_1_to_4_pass: bool
    single_factor_coeff: GaussianRational
    matches_minus_n_exponent: bool        # coefficient == -(2i)^(-n)
    matches_minus_n_plus_1_exponent: bool  # coefficient == -(2i)^(-(n+1))


def check_Y_properties(n: int) -> YPropertyReport:
    """Verify the structure of Y_n.

    Items checked (violations raise :class:`PropertyViolation`):
      1. sum of monomials in q, r and their derivatives (no constant term);
      2. homogeneous order 2n+1 (order = 2*#derivatives + #factors);
      3. every monomial has one more r-type factor than q-type;
      4. every coefficient is a positive-integer multiple of
         (-1)^(n+1) * (-1)^k * (2i)^(k-2n-1), k the monomial's derivative
         count.  (For odd n the leading sign is +1, matching the usual
         statement; for even n the recursion flips it.)

    Item 5 compares the unique single-factor term against both candidate
    normalizations -(2i)^(-n) ∂_x^n r and -(2i)^(-(n+1)) ∂_x^n r and reports
    which one holds.
    """
    if n < 1:
        raise ValueError("check_Y_properties requires n >= 1")
    y = compute_Y(n)
    if y.is_zero:
        raise PropertyViolation(1, None, "Y_n is zero")
    sign = -1 if n % 2 == 0 else 1  # (-1)^(n+1)

    def violation(item: int, message: str) -> PropertyViolation:  # at the current term
        return PropertyViolation(item, (unpack(key), y.coefficient(unpack(key))), message)

    den, terms = y.numerators()
    for key, (a, b) in terms.items():
        if not key:
            raise violation(1, "constant term present")
        nq, nr, k = grading(key)
        if 2 * k + nq + nr != 2 * n + 1:
            raise violation(2, f"order {2 * k + nq + nr} != {2 * n + 1}")
        if nr != nq + 1:
            raise violation(3, "factor counts not r = q + 1")
        # The ratio to item 4's unit is (a + b i) (-1)^k 2^e i^e / den, e = 2n+1-k >= 1.
        e = 2 * n + 1 - k
        x, im = _times_i_pow(a, b, e)
        if im or (x << e) % den or x * (-1) ** k * sign <= 0:
            ratio = y.coefficient(unpack(key)) * GaussianRational.two_i_pow(e).scale((-1) ** k)
            raise violation(4, f"coefficient is not a positive-integer multiple (ratio {ratio!r})")
    # By items 2 and 3, a single-factor term can only be ∂_x^n r.
    c = y.coefficient((("r", n),))
    if not c:
        raise PropertyViolation(1, None, "single-factor term is not ∂_x^n r")
    return YPropertyReport(
        n=n,
        n_terms=len(y),
        items_1_to_4_pass=True,
        single_factor_coeff=c,
        matches_minus_n_exponent=(c == GaussianRational.two_i_pow(-n).scale(-1)),
        matches_minus_n_plus_1_exponent=(c == GaussianRational.two_i_pow(-(n + 1)).scale(-1)),
    )


# ---------------------------------------------------------------------------
# Hierarchy equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Equation:
    """A hierarchy (or gauged) equation; (n, alpha, N) is its whole state.

    Schrödinger parity (odd n = 2j-1):   i dq/dt + g * ∂_x^(2j) q = N(q, r)
    mKdV parity (even n >= 2):             dq/dt + g * ∂_x^(n+1) q = N(q, r)
    transport (n = 0):                     dq/dt + g * ∂_x q = 0

    with g = -alpha (-1)^((n+1)//2) / 2^n, which is ±1 exactly at alpha = 2^n.
    """

    n: int
    alpha: GaussianRational
    nonlinearity: DiffPoly

    @property
    def parity(self) -> str:
        return "transport" if self.n == 0 else "schrodinger" if self.n % 2 else "mkdv"

    @property
    def j(self) -> int | None:
        return (self.n + 1) // 2 if self.n % 2 else None

    @property
    def lhs_coeff(self) -> GaussianRational:
        return self.alpha.scale(Fraction(-(-1) ** ((self.n + 1) // 2), 2 ** self.n))

    @property
    def dispersion_order(self) -> int:
        return self.n + 1

    @property
    def linear(self) -> DiffPoly:
        """The linear term g ∂_x^(n+1) q."""
        return DiffPoly.monomial(self.lhs_coeff, (("q", self.dispersion_order),))

    @property
    def is_canonical(self) -> bool:
        """alpha = 2^n, where g = (-1)^((n+1)//2 + 1); transport for any alpha."""
        return self.n == 0 or self.alpha == GaussianRational.of(2 ** self.n)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "j": self.j,
            "parity": self.parity,
            "alpha": coeff_to_json(self.alpha),
            "linear": {"order": self.dispersion_order, "sign": coeff_to_json(self.lhs_coeff),
                       "canonical": self.is_canonical},
            "nonlinearity": poly_to_json(self.nonlinearity),
        }

    def latex(self) -> str:
        order = self.dispersion_order
        deriv = (
            "q_x" if order == 1
            else f"q_{{{'x' * order}}}" if order <= 6
            else f"\\partial_x^{{{order}}} q"
        )
        cs = latex_coefficient(self.lhs_coeff)
        if cs == "1":
            lin = "+" + deriv
        elif cs == "-1":
            lin = "-" + deriv
        else:
            lin = ("" if cs.startswith("-") else "+") + cs + deriv
        time = "iq_t" if self.parity == "schrodinger" else "q_t"
        return f"{time}{lin} = {poly_to_latex(self.nonlinearity)}"


@lru_cache(maxsize=None)
def unit_form(n: int) -> DiffPoly:
    """Flow n per unit alpha, U_n = ∂_x^(n+1) q + NL_n (memoized).

    The one derivation of flow n: i q_t = 2 alpha dx(delta/delta r [q Y_n])
    reads q_t = (alpha i^n / 2^n) U_n.  Raises :class:`NormalizationMismatch`
    unless the linear coefficient is exactly 1 and every term has order
    2n+3 and one more q-type than r-type factor.
    """
    den, terms = variational_derivative(hamiltonian_density(n), "r").numerators()
    w = (-2) ** (n + 1)  # dx, then times 2^n i^-n (-2i) = (-2)^(n+1) i^(n+1)
    p = DiffPoly.over(den, {k: _times_i_pow(w * a, w * b, n + 1)
                            for k, (a, b) in merge_terms(dx_terms(terms.items())).items()})
    if p.coefficient((("q", n + 1),)) != GaussianRational.of(1):
        raise NormalizationMismatch(f"unit form linear term is not ∂^{n + 1}q at n={n}")
    for key, coeff in p.terms():
        nq, nr, d = grading(key)
        if 2 * d + nq + nr != 2 * n + 3 or nq != nr + 1:
            raise NormalizationMismatch(f"term violates order/phase homogeneity at n={n}: "
                                        f"{serialize_poly(DiffPoly([(key, coeff)]))}")
    return p


def build_hierarchy_equation(n: int, alpha: GaussianRational | int | None = None) -> Equation:
    """The n-th hierarchy equation in canonical form, one scaling of unit_form(n).

    The flow q_t = (alpha i^n / 2^n) U_n, times i (odd n) or 1 (even n), is
    -g U_n with g = ``Equation.lhs_coeff``, so N = g ∂_x^(n+1) q - g U_n: the
    linear terms cancel.  ``alpha`` defaults to 2^n, where g = ±1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    alpha = GaussianRational.of(2 ** n if alpha is None else alpha)
    if not alpha:
        raise ValueError("alpha must be nonzero")
    frame = Equation(n, alpha, DiffPoly.zero())
    return Equation(n, alpha, frame.linear + unit_form(n).scale(-frame.lhs_coeff))


# ---------------------------------------------------------------------------
# Bad cubic coefficients
# ---------------------------------------------------------------------------

def cubic_terms(p: DiffPoly) -> DiffPoly:
    """The three-factor part of a polynomial."""
    return DiffPoly((k, c) for k, c in p.terms() if sum(grading(k)[:2]) == 3)


def is_bad_cubic(key: int) -> bool:
    """Two q factors and one underived r: a bad cubic, which the gauge lifts."""
    return grading(key)[:2] == (2, 1) and bool(key & 0xFF00)  # byte 1 counts r[0]


def extract_bad_cubics(eq: Equation) -> dict[int, GaussianRational]:
    """Coefficients of the bad cubic monomials: every derivative on q factors.

    Keys are min(k, n-k) for the two q-derivative orders (k, n-k); the value
    is the canonical merged coefficient in the equation's stored frame.  Two
    bad cubics with the same lower q order raise ValueError: the orders then
    do not sum to one n.
    """
    out: dict[int, Term] = {}
    for key, coeff in eq.nonlinearity.terms():
        if is_bad_cubic(key):
            factors = unpack(key)
            k = factors[0][1]  # q sorts before r, and by ascending order
            if k in out:
                names = " and ".join(serialize_term(*t) for t in sorted((out[k], (factors, coeff))))
                raise ValueError(f"bad cubics {names} share the lower q order {k}")
            out[k] = factors, coeff
    return {k: c for k, (_, c) in sorted(out.items())}


def predicted_bad_cubic_coefficient(
    n: int, k: int, alpha: GaussianRational | int
) -> GaussianRational:
    """Closed form (alpha i^n / 2^n) (C(n+2, k+1) - d_{0,k} - d_{n,k}), i dq/dt frame.

    NL_n's bad cubic for the ordered pair (k, n-k) is exactly -i times that
    count, and i dq/dt = i (alpha i^n / 2^n) U_n.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    alpha = GaussianRational.of(alpha)
    count = math.comb(n + 2, k + 1) - (1 if k == 0 else 0) - (1 if k == n else 0)
    return (alpha * GaussianRational.two_i_pow(n)).scale(Fraction(count, 4 ** n))


@dataclass(frozen=True)
class BadCubicCheck:
    n: int
    alpha: GaussianRational
    observed: dict[int, GaussianRational]
    predicted: dict[int, GaussianRational]
    matches: bool


def verify_bad_cubics(n: int, alpha: GaussianRational | int | None = None) -> BadCubicCheck:
    """Compare extracted bad-cubic coefficients with the closed form, exactly.

    The closed form lives in the i*dq/dt frame; for mKdV parity the stored
    nonlinearity sits in the dq/dt frame, a factor i apart.  It counts ordered
    pairs (k, n-k); the middle pair k = n - k, whose two slots coincide, is halved.
    """
    eq = build_hierarchy_equation(n, alpha)
    frame = GaussianRational.of(1) if eq.parity == "schrodinger" else GaussianRational.i()
    observed = {k: frame * c for k, c in extract_bad_cubics(eq).items()}
    predicted = {k: predicted_bad_cubic_coefficient(n, k, eq.alpha) for k in range(n // 2 + 1)}
    if n % 2 == 0:
        predicted[n // 2] = predicted[n // 2].scale(Fraction(1, 2))
    return BadCubicCheck(n, eq.alpha, observed, predicted, observed == predicted)
