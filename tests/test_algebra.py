import operator
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls_hierarchy.algebra import (
    DiffPoly,
    GaussianRational,
    NotExact,
    antiderivative,
    grading,
    merge_terms,
    pack,
    parse_poly,
    poly_to_latex,
    serialize_poly,
    swap_qr,
    unpack,
    variational_derivative,
)
from conftest import (
    antiderivative_oracle,
    diff_polys,
    gaussian_rationals,
    order_of,
    tuple_collect,
    tuple_conj,
    tuple_dx,
    tuple_mul,
    tuple_partial,
    variational_derivative_oracle,
)

GR = GaussianRational.of
I = GaussianRational.i()

Q = DiffPoly.variable("q")
R = DiffPoly.variable("r")
QR = Q * R


class TestGaussianRational:
    def test_two_i_powers(self):
        assert GaussianRational.two_i_pow(0) == GR(1)
        assert GaussianRational.two_i_pow(1) == GR(0, 2)
        assert GaussianRational.two_i_pow(-1) == GR(0, Fraction(-1, 2))
        assert GaussianRational.two_i_pow(3) == GR(0, -8)
        for k in range(-6, 7):
            assert GaussianRational.two_i_pow(k) == GR(0, 2) ** k

    def test_division_inverts_multiplication(self):
        a, b = GR(Fraction(3, 2), -1), GR(2, Fraction(1, 3))
        assert (a * b) / b == a
        with pytest.raises(ZeroDivisionError):
            a / GR(0)

    @given(gaussian_rationals, gaussian_rationals)
    def test_conjugation_is_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @pytest.mark.parametrize("c", [GR(0), GR(1), GR(Fraction(3, 7), 2), GaussianRational.i()])
    def test_of_returns_a_gaussian_rational_as_it_is(self, c):
        assert GaussianRational.of(c) is c

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.truediv])
    def test_a_foreign_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(GaussianRational(1), 1)


# Independent oracle: Gaussian rationals as plain (Fraction, Fraction) pairs.
_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_pairs = st.tuples(_fractions, _fractions)
_PAIR_ONE = (Fraction(1), Fraction(0))


def _pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pair_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _pair_pow(x, k):
    out = _PAIR_ONE
    for _ in range(abs(k)):
        out = _pair_mul(out, x)
    return out if k >= 0 else _pair_div(_PAIR_ONE, out)


def _assert_is_pair(z, pair):
    expected = GaussianRational(*pair)
    assert (z.re, z.im) == pair
    assert z == expected and hash(z) == hash(expected) and repr(z) == repr(expected)
    assert bool(z) == (pair != (0, 0))
    assert z.is_real == (pair[1] == 0)
    assert complex(z) == complex(float(pair[0]), float(pair[1]))


class TestGaussianRationalOracle:
    @settings(max_examples=300, deadline=None)
    @given(_pairs, _pairs, _fractions, st.integers(-4, 4))
    def test_matches_fraction_pair_arithmetic(self, x, y, f, k):
        a, b = GaussianRational(*x), GaussianRational(*y)
        _assert_is_pair(a, x)
        _assert_is_pair(a + b, (x[0] + y[0], x[1] + y[1]))
        _assert_is_pair(a - b, (x[0] - y[0], x[1] - y[1]))
        _assert_is_pair(-a, (-x[0], -x[1]))
        _assert_is_pair(a * b, _pair_mul(x, y))
        _assert_is_pair(a.conjugate(), (x[0], -x[1]))
        _assert_is_pair(a.scale(f), (x[0] * f, x[1] * f))
        assert (a == b) == (x == y)
        if y != (0, 0):
            _assert_is_pair(a / b, _pair_div(x, y))
        if x != (0, 0) or k >= 0:
            _assert_is_pair(a ** k, _pair_pow(x, k))

    def test_unreduced_inputs_equal_and_hash_like_reduced(self):
        half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
        for z in (
            GaussianRational(Fraction(2, 4), Fraction(3, 6)),
            GaussianRational.of("2/4", "3/6"),
            GaussianRational(Fraction(1, 4), Fraction(1, 4)).scale(2),
            GR(Fraction(3, 4), Fraction(1, 4)) - GR(Fraction(1, 4), Fraction(-1, 4)),
            GR(Fraction(3, 4), Fraction(3, 4)) * GR(Fraction(2, 3)),
            GR(2, 2) / GR(2, 2) * GR(Fraction(3, 6), Fraction(4, 8)),
        ):
            assert z == half and hash(z) == hash(half) and repr(z) == repr(half)
        zero = GR(Fraction(1, 3), 2) - GR(Fraction(2, 6), 2)
        assert zero == GaussianRational() and hash(zero) == hash(GaussianRational())
        assert not zero and zero.re == 0 and zero.im == 0

    def test_division_by_zero_raises(self):
        for zero in (GaussianRational(), GR(0, 0), GR(Fraction(1, 2)) - GR(Fraction(2, 4))):
            with pytest.raises(ZeroDivisionError):
                GR(1, 1) / zero
            with pytest.raises(ZeroDivisionError):
                zero ** -1
        assert GaussianRational() ** 0 == GR(1)


class TestRingOperations:
    def test_additive_identity(self):
        assert QR + DiffPoly.zero() == QR

    def test_a_foreign_summand_raises_type_error(self):
        with pytest.raises(TypeError):
            DiffPoly.variable("q") + 1

    @pytest.mark.parametrize("other", [1, "x"])
    def test_a_foreign_subtrahend_raises_type_error(self, other):
        # The error names -, not the + or unary - of self + (-other).
        with pytest.raises(TypeError, match=r"for -: 'DiffPoly'"):
            DiffPoly.variable("q") - other

    @pytest.mark.parametrize("other", [1.5, Fraction(1, 2)], ids=["float", "Fraction"])
    def test_a_foreign_factor_raises_type_error(self, other):
        q = DiffPoly.variable("q")
        with pytest.raises(TypeError, match=r"for \*: 'DiffPoly'"):
            q * other
        with pytest.raises(TypeError, match=r"for \*: '(float|Fraction)' and 'DiffPoly'"):
            other * q

    def test_cancellation(self):
        assert (QR + QR.scale(-1)).is_zero

    def test_exact_coefficient_addition(self):
        half_i_inv = GaussianRational.two_i_pow(-1)
        p = DiffPoly.monomial(half_i_inv, (("q", 0),))
        assert p + p == DiffPoly.monomial(GR(0, -1), (("q", 0),))

    def test_multiplicative_identity(self):
        p = Q * R + Q.scale(GR(0, Fraction(1, 3)))
        assert DiffPoly.constant(1) * p == p

    def test_product_of_variables(self):
        assert Q * R == DiffPoly.monomial(GR(1), (("q", 0), ("r", 0)))

    def test_square_of_scaled_variable(self):
        y0 = R.scale(GaussianRational.two_i_pow(-1))
        assert y0 * y0 == DiffPoly.monomial(
            GR(Fraction(-1, 4)), (("r", 0), ("r", 0))
        )

    def test_leibniz_on_two_factors(self):
        qx_r = DiffPoly.monomial(GR(1), (("q", 1), ("r", 0)))
        q_rx = DiffPoly.monomial(GR(1), (("q", 0), ("r", 1)))
        assert QR.dx() == qx_r + q_rx

    def test_derivative_of_zero(self):
        assert DiffPoly.zero().dx().is_zero

    def test_leibniz_on_square(self):
        q2r = Q * Q * R
        expected = (
            DiffPoly.monomial(GR(2), (("q", 0), ("q", 1), ("r", 0)))
            + DiffPoly.monomial(GR(1), (("q", 0), ("q", 0), ("r", 1)))
        )
        assert q2r.dx() == expected

    def test_conj_swaps_variables(self):
        assert Q.conj() == R

    def test_conj_fixes_real_coefficient(self):
        p = DiffPoly.monomial(GR(Fraction(1, 4)), (("r", 1),))
        assert p.conj() == DiffPoly.monomial(GR(Fraction(1, 4)), (("q", 1),))

    def test_swap_qr_swaps_keys_and_keeps_any_coefficient(self):
        # The key-level rule of DiffPoly.conj, on plain int coefficients as
        # the twist's r-factors use it; r[4] is the highest slot.
        terms = [(pack((("q", 0), ("q", 2), ("r", 1))), 3), (pack((("r", 4),)), -1)]
        swapped = [(pack((("r", 0), ("r", 2), ("q", 1))), 3), (pack((("q", 4),)), -1)]
        assert swap_qr(terms) == swapped
        assert swap_qr(swapped) == terms


class TestMonomialOrder:
    @pytest.mark.parametrize(
        "factors,expected",
        [(((("r", 0),)), 1), ((("q", 0), ("r", 0), ("r", 0)), 3), (((("r", 1),)), 3)],
    )
    def test_examples(self, factors, expected):
        assert order_of(tuple(factors)) == expected


@pytest.mark.hash_order
class TestIntTermsBoundary:
    """The one integer form of a polynomial, {key: (a, b)} over one
    denominator: ``numerators`` reads it, ``over`` builds from it, and
    ``merge_terms`` is the one merge that makes it."""

    @settings(max_examples=60, deadline=None)
    @given(diff_polys())
    def test_over_undoes_numerators_over_the_least_denominator(self, p):
        den, terms = p.numerators()
        assert den == reduce(lcm, (lcm(c.re.denominator, c.im.denominator) for _, c in p.terms()), 1)
        coefficients = {k: GR(Fraction(a, den), Fraction(b, den)) for k, (a, b) in terms.items()}
        assert coefficients == dict(p.terms())
        assert DiffPoly.over(den, terms) == p

    def test_zero(self):
        assert DiffPoly.zero().numerators() == (1, {})
        assert DiffPoly.over(1, {}) == DiffPoly.zero()

    def test_over_drops_zero_numerators(self):
        q, r = pack((("q", 0),)), pack((("r", 0),))
        assert DiffPoly.over(6, {q: (3, 0), r: (0, 0)}) == Q.scale(GR(Fraction(1, 2)))
        assert DiffPoly.over(6, {r: (0, 0)}).is_zero

    @pytest.mark.parametrize("key", [0x80, 0x80 << 8 * 5, (0x80 << 8) + 1],
                             ids=["q", "r[2]", "r[0]"])
    def test_over_rejects_a_key_with_a_guard_bit_set(self, key):
        # 0x80 is 128 copies of q, one past what slot 0 holds; the others
        # set the guard bit of r[2] and of r[0].
        with pytest.raises(OverflowError):
            DiffPoly.over(1, {key: (1, 0)})
        assert DiffPoly.over(1, {0x7F: (1, 0)}) == DiffPoly.monomial(GR(1), (("q", 0),) * 127)

    @pytest.mark.parametrize("den", [0, -3])
    def test_over_rejects_a_denominator_below_one(self, den):
        with pytest.raises(ValueError, match="must be positive"):
            DiffPoly.over(den, {pack((("q", 0),)): (1, 0)})

    def test_merge_terms_sums_in_first_seen_order_and_drops_zeros(self):
        q, r, qr = pack((("q", 0),)), pack((("r", 0),)), pack((("q", 0), ("r", 0)))
        merged = merge_terms([(r, (1, 2), 1), (q, (1, 0), 2), (qr, (0, 1), 3), (r, (2, -2), 1)],
                             minus=[(q, (2, 0), 1)])
        assert list(merged.items()) == [(r, (3, 0)), (qr, (0, 3))]


@settings(max_examples=60, deadline=None)
@given(diff_polys(), st.one_of(st.integers(-5, 5), gaussian_rationals))
def test_scalar_product_is_scale(p, c):
    assert p * c == c * p == p.scale(c)


@settings(max_examples=60, deadline=None)
@given(diff_polys(), diff_polys(), diff_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(st.lists(diff_polys(), max_size=5), st.booleans())
def test_sum_matches_repeated_addition(polys, cancel):
    if cancel:
        polys = polys + [-p for p in reversed(polys)]
    expected = reduce(operator.add, polys, DiffPoly.zero())
    assert DiffPoly.sum(polys) == expected
    assert DiffPoly.sum(iter(polys)) == expected
    if cancel:
        assert DiffPoly.sum(polys).is_zero


@settings(max_examples=60, deadline=None)
@given(diff_polys(), diff_polys())
def test_dx_is_a_derivation(a, b):
    assert (a * b).dx() == a.dx() * b + a * b.dx()


@settings(max_examples=60, deadline=None)
@given(diff_polys(), diff_polys())
def test_conj_is_ring_involution_commuting_with_dx(a, b):
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.dx().conj() == a.conj().dx()


@settings(max_examples=60, deadline=None)
@given(diff_polys(max_terms=2), diff_polys(max_terms=2))
def test_order_additive_under_product(a, b):
    orders_a = {order_of(f) for f, _ in a.items()}
    orders_b = {order_of(f) for f, _ in b.items()}
    for f, _ in (a * b).items():
        # Merged products can only combine monomials whose orders add up.
        assert order_of(f) in {oa + ob for oa in orders_a for ob in orders_b}


@settings(max_examples=60, deadline=None)
@given(diff_polys())
def test_order_increases_by_two_under_dx(a):
    orders = {order_of(f) for f, _ in a.items() if f}
    for f, _ in a.dx().items():
        assert order_of(f) - 2 in orders


_wide_polys = diff_polys(max_terms=5, max_order=16, max_factors=6)


@settings(max_examples=150, deadline=None)
@given(_wide_polys, _wide_polys)
def test_packed_ring_matches_tuple_oracle(a, b):
    ta, tb = a.items(), b.items()
    assert (a * b).items() == tuple_mul(ta, tb)
    assert (a + b).items() == tuple_collect(ta + tb)
    assert DiffPoly.sum([a, b, a]).items() == tuple_collect(ta + tb + ta)
    assert a.dx().items() == tuple_dx(ta)
    assert a.dx().dx().items() == tuple_dx(tuple_dx(ta))
    assert a.conj().items() == tuple_conj(ta)
    for var, order in {f for factors, _ in ta for f in factors} | {("q", 0), ("r", 17)}:
        assert a.partial(var, order).items() == tuple_partial(ta, var, order)


@settings(max_examples=100, deadline=None)
@given(_wide_polys)
def test_keys_round_trip_and_grade(a):
    for factors, coeff in a.items():
        key = pack(factors)
        assert unpack(key) == factors and unpack(pack(reversed(factors))) == factors
        assert a.coefficient(factors) == coeff and a.coefficient(reversed(factors)) == coeff
        nq = sum(v == "q" for v, _ in factors)
        assert grading(key) == (nq, len(factors) - nq, sum(o for _, o in factors))
    assert dict(a.terms()) == {pack(f): c for f, c in a.items()}


def test_constant_and_repeated_factors_against_oracle():
    five = DiffPoly.constant(5)
    assert (five * Q).items() == (((("q", 0),), GR(5)),)
    assert five.dx().is_zero and five.items() == (((), GR(5)),)
    q16 = DiffPoly.variable("q", 16)
    power = reduce(operator.mul, [q16] * 5 + [R] * 3, five)
    expected = (((("q", 16),) * 5 + (("r", 0),) * 3, GR(5)),)
    assert power.items() == expected
    assert power.dx().items() == tuple_dx(expected)
    assert power.partial("q", 16).items() == tuple_partial(expected, "q", 16)


@pytest.mark.hash_order
class TestCalculusAgainstGaussianRationalOracle:
    """The Euler operator and the antiderivative on integer numerators against
    the same operators in Gaussian-rational DiffPoly arithmetic."""

    @settings(max_examples=80, deadline=None)
    @given(diff_polys(max_factors=4), st.sampled_from(["q", "r"]))
    def test_variational_derivative(self, p, var):
        assert variational_derivative(p, var) == variational_derivative_oracle(p, var)

    @settings(max_examples=80, deadline=None)
    @given(diff_polys(max_terms=6, max_factors=4))
    def test_antiderivative_of_an_exact_derivative(self, p):
        # Blocks of one to four factors: the result is over the lcm of their degrees.
        assert antiderivative(p.dx()) == antiderivative_oracle(p.dx())

    @settings(max_examples=80, deadline=None)
    @given(diff_polys(max_terms=6))
    def test_antiderivative_or_its_first_inexact_block(self, p):
        p = p + p.dx()  # some blocks exact, others not
        try:
            expected = antiderivative_oracle(p)
        except NotExact as exc:
            with pytest.raises(NotExact) as got:
                antiderivative(p)
            assert got.value.residual == exc.residual
        else:
            assert antiderivative(p) == expected


class TestSlotLimits:
    """A slot holds at most 127 copies of one factor, at any order."""

    def test_product_at_the_count_boundary(self):
        q2 = DiffPoly.variable("q", 2)
        full = DiffPoly.monomial(GR(1), (("q", 2),) * 126) * q2
        assert full.items() == (((("q", 2),) * 127, GR(1)),)
        assert grading(pack((("q", 2),) * 127)) == (127, 0, 254)
        with pytest.raises(OverflowError):
            full * q2
        for copies in (128, 256):  # 256 copies would carry a whole byte into slot 5
            with pytest.raises(OverflowError):
                DiffPoly.monomial(GR(1), (("q", 2),) * copies)
        # The neighbouring slots are untouched by a count at the limit.
        assert (full * R * DiffPoly.variable("q", 3)).coefficient(
            (("q", 2),) * 127 + (("q", 3), ("r", 0))) == GR(1)

    def test_dx_at_the_count_boundary(self):
        below = DiffPoly.monomial(GR(1), (("r", 1),) * 126 + (("r", 0),))
        assert below.dx().items() == tuple_dx(below.items())
        assert below.dx().coefficient((("r", 1),) * 127) == GR(1)
        with pytest.raises(OverflowError):
            (below * DiffPoly.variable("r", 1)).dx()

    def test_high_orders_have_the_same_limit(self):
        top = DiffPoly.variable("q", 299)
        assert top.dx() == DiffPoly.variable("q", 300)
        assert top.partial("q", 299) == DiffPoly.constant(1)
        assert (top * R).conj() == DiffPoly.variable("r", 299) * Q
        full = DiffPoly.monomial(GR(1), (("r", 300),) * 127)
        assert grading(pack((("r", 300),) * 127)) == (0, 127, 127 * 300)
        with pytest.raises(OverflowError):
            full * DiffPoly.variable("r", 300)
        with pytest.raises(OverflowError):
            (full * DiffPoly.variable("r", 299)).dx()
        for bad in (("r", -1), ("p", 0)):
            with pytest.raises(ValueError):
                DiffPoly.variable(*bad)


@settings(max_examples=80, deadline=None)
@given(diff_polys())
def test_serialize_parse_round_trip(p):
    text = serialize_poly(p)
    assert parse_poly(text) == p
    assert serialize_poly(parse_poly(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("(1,2)q[0]")


def test_latex_rendering():
    p = DiffPoly.monomial(GR(0, Fraction(15, 2)), (("q", 0),) * 4 + (("r", 0), ("r", 0), ("r", 1)))
    assert poly_to_latex(p) == "\\frac{15i}{2}q^4r^2r_x"
    assert poly_to_latex(DiffPoly.zero()) == "0"
    m = DiffPoly.monomial(GR(-10, 0), (("q", 1), ("q", 2), ("r", 0)))
    assert poly_to_latex(m) == "-10q_xq_{xx}r"
