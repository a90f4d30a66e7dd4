import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls_hierarchy.algebra import DiffPoly, GaussianRational, NotExact, antiderivative
from dnls_hierarchy.gauge import (
    PhaseImbalance,
    ResidualBadCubic,
    derive_gauged,
    is_gauged_form,
    phase_time_derivative,
    twist_substitute,
)
from dnls_hierarchy.hierarchy import (
    Equation,
    build_hierarchy_equation,
    extract_bad_cubics,
)
from conftest import diff_polys, twist_oracle

GR = GaussianRational.of
I = GaussianRational.i()
Q = DiffPoly.variable("q")
R = DiffPoly.variable("r")


# Non-dyadic and complex values, so that a denominator or a unit lost in the
# twist's integer coordinates shows.
_TWIST_COEFFS = [
    GR(Fraction(1, 3)), GR(Fraction(3, 7), 2), GR(0, Fraction(-5, 9)), GR(-2), GR(1, 1),
]


@st.composite
def balanced_polys(draw):
    """Sums of up to six phase-balanced monomials, m + 1 q-factors and m
    r-factors of orders up to 3 for some m <= 3, the empty sum included."""
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        m = draw(st.integers(0, 3))
        orders = st.lists(st.integers(0, 3), min_size=m, max_size=m)
        factors = [("q", o) for o in draw(orders) + [draw(st.integers(0, 3))]]
        factors += [("r", o) for o in draw(orders)]
        terms.append(DiffPoly.monomial(draw(st.sampled_from(_TWIST_COEFFS)), factors))
    return DiffPoly.sum(terms)


class TestAntiderivative:
    def test_inverse_of_leibniz(self):
        p = DiffPoly.monomial(GR(1), (("q", 1), ("r", 0))) + DiffPoly.monomial(
            GR(1), (("q", 0), ("r", 1))
        )
        assert antiderivative(p) == Q * R

    def test_grading_obstruction(self):
        with pytest.raises(NotExact) as exc:
            antiderivative(Q * R)
        assert not exc.value.residual.is_zero
        assert str(exc.value) == "not an exact derivative; residual (1,0)·q[0]·r[0]"

    def test_alternating_pairing_identity(self):
        # d/dx (q_x r - q r_x) = q_xx r - q r_xx
        p = DiffPoly.monomial(GR(1), (("q", 2), ("r", 0))) - DiffPoly.monomial(
            GR(1), (("q", 0), ("r", 2))
        )
        expected = DiffPoly.monomial(GR(1), (("q", 1), ("r", 0))) - DiffPoly.monomial(
            GR(1), (("q", 0), ("r", 1))
        )
        assert antiderivative(p) == expected

    def test_zero(self):
        assert antiderivative(DiffPoly.zero()).is_zero

    def test_residual_is_the_unreachable_component(self):
        # dx(q) is exact; the extra q r monomial lives in a graded block with
        # no preimage, so exactly that part must come back as the residual.
        mixed = Q.dx() + Q * R
        with pytest.raises(NotExact) as exc:
            antiderivative(mixed)
        assert exc.value.residual == Q * R

    def test_residual_is_one_graded_block(self):
        # Both blocks lack a preimage; the first one found is raised alone.
        with pytest.raises(NotExact) as exc:
            antiderivative(Q * R + (Q * R) * (Q * R))
        assert exc.value.residual in (Q * R, (Q * R) * (Q * R))

    @settings(max_examples=60, deadline=None)
    @given(diff_polys(allow_constant=False))
    def test_round_trip_on_exact_derivatives(self, p):
        assert antiderivative(p.dx()) == p - DiffPoly.constant(p.coefficient(()))


class TestPhaseTimeDerivative:
    def test_dnls_value(self):
        eq = build_hierarchy_equation(1, 2)
        expected = (
            DiffPoly.monomial(I, (("q", 1), ("r", 0)))
            - DiffPoly.monomial(I, (("q", 0), ("r", 1)))
            + DiffPoly.monomial(GR(Fraction(3, 2)), (("q", 0), ("q", 0), ("r", 0), ("r", 0)))
        )
        assert phase_time_derivative(eq) == expected

    def test_free_schroedinger_part(self):
        free = Equation(1, GR(2), DiffPoly.zero())
        expected = DiffPoly.monomial(I, (("q", 1), ("r", 0))) - DiffPoly.monomial(
            I, (("q", 0), ("r", 1))
        )
        assert phase_time_derivative(free) == expected

    def test_fourth_order_is_exact(self):
        phi_t = phase_time_derivative(build_hierarchy_equation(3, 8))
        assert not phi_t.is_zero

    def test_consistency_with_mass_flux(self):
        # dx(Phi_t) must reproduce the flux q_t r + q conj(q_t).
        eq = build_hierarchy_equation(3, 8)
        qt = (eq.nonlinearity - DiffPoly.monomial(eq.lhs_coeff, (("q", 4),))).scale(-I)
        flux = qt * R + Q * qt.conj()
        assert phase_time_derivative(eq).dx() == flux

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
    def test_mass_flux_identity_through_j6(self, j):
        eq = build_hierarchy_equation(2 * j - 1, 2 ** (2 * j - 1))
        qt = (eq.nonlinearity - DiffPoly.monomial(eq.lhs_coeff, (("q", 2 * j),))).scale(-I)
        assert phase_time_derivative(eq).dx() == qt * R + Q * qt.conj()

    def test_requires_schrodinger_parity(self):
        with pytest.raises(ValueError):
            phase_time_derivative(build_hierarchy_equation(2, 4))


class TestTwist:
    def test_derivative_free_monomials_unchanged(self):
        p = DiffPoly.monomial(GR(1), (("q", 0), ("q", 0), ("r", 0)))
        assert twist_substitute(p, 1) == p

    def test_single_twisted_factor(self):
        got = twist_substitute(Q.dx(), 1)
        expected = DiffPoly.variable("q", 1) + DiffPoly.monomial(
            I, (("q", 0), ("q", 0), ("r", 0))
        )
        assert got == expected

    @pytest.mark.parametrize("direction", [1, -1])
    def test_substitution_undoes_the_opposite_twist(self, direction):
        # sigma_±((∂ ∓ i q r)^k q) = ∂^k q, whatever the equation: derive_gauged
        # rests on it.
        w = Q
        for k in range(11):
            assert twist_substitute(w, direction) == DiffPoly.variable("q", k)
            w = w.dx() + (Q * R * w).scale(GR(0, -direction))

    def test_imbalance_rejected(self):
        with pytest.raises(PhaseImbalance):
            twist_substitute(Q * R, 1)

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction must be"):
            twist_substitute(Q, 0)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_twist_then_untwist_is_identity(self, n):
        nl = build_hierarchy_equation(n, 2 ** n).nonlinearity
        assert twist_substitute(twist_substitute(nl, 1), -1) == nl
        assert twist_substitute(twist_substitute(nl, -1), 1) == nl

    @settings(max_examples=80, deadline=None)
    @given(balanced_polys())
    @example(DiffPoly.zero())
    def test_matches_the_gaussian_rational_oracle(self, p):
        for direction in (1, -1):
            assert twist_substitute(p, direction) == twist_oracle(p, direction)

    @pytest.mark.parametrize("alpha", [None, GR(Fraction(3, 7), 2)], ids=["2^n", "3/7+2i"])
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
    def test_flows_match_the_oracle(self, n, alpha):
        nl = build_hierarchy_equation(n, alpha).nonlinearity  # alpha None is 2^n
        for direction in (1, -1):
            assert twist_substitute(nl, direction) == twist_oracle(nl, direction)

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
    def test_gauged_nonlinearities_match_the_oracle(self, j):
        nl = derive_gauged(build_hierarchy_equation(2 * j - 1)).gauged.nonlinearity
        for direction in (1, -1):
            assert twist_substitute(nl, direction) == twist_oracle(nl, direction)


class TestDeriveGauged:
    def test_gauged_dnls(self):
        gd = derive_gauged(build_hierarchy_equation(1, 2))
        expected = DiffPoly.monomial(GR(0, -1), (("q", 0), ("q", 0), ("r", 1))) + (
            DiffPoly.monomial(GR(Fraction(-1, 2)), (("q", 0),) * 3 + (("r", 0), ("r", 0)))
        )
        assert gd.gauged.nonlinearity == expected
        assert gd.residual_bad_cubics == {}
        assert gd.gauged.lhs_coeff == GR(1)

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_cancellation_and_shape(self, j):
        gd = derive_gauged(build_hierarchy_equation(2 * j - 1, 2 ** (2 * j - 1)))
        assert is_gauged_form(gd.gauged)
        assert gd.gauged.is_canonical and gd.gauged.lhs_coeff == GR((-1) ** (j + 1))
        # derivative-free top term |v|^(4j) v and nothing with more factors
        top = (("q", 0),) * (2 * j + 1) + (("r", 0),) * (2 * j)
        assert gd.gauged.nonlinearity.coefficient(top)
        assert max(len(f) for f, _ in gd.gauged.nonlinearity.items()) == 4 * j + 1

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_lifted_coefficients_match_source_bad_cubics(self, j):
        # Independent of derive_gauged: the source equation's bad cubics equal
        # i (-1)^(j+1) (C(2j+1, l+1) - d_{0,l} - d_{2j-1,l}).
        n = 2 * j - 1
        eq = build_hierarchy_equation(n, 2 ** n)
        sign = 1 if j % 2 == 1 else -1
        expected = {}
        for ell in range(n + 1):
            count = math.comb(2 * j + 1, ell + 1) - (1 if ell == 0 else 0) - (
                1 if ell == n else 0
            )
            expected[min(ell, n - ell)] = GR(0, sign * count)
        assert extract_bad_cubics(eq) == expected

    def test_requires_canonical_equation(self):
        with pytest.raises(ValueError):
            derive_gauged(build_hierarchy_equation(1, GR(3)))
        with pytest.raises(ValueError):
            derive_gauged(build_hierarchy_equation(2, 4))

    def test_residual_bad_cubic_detected(self):
        # Perturbing the bad cubic keeps the mass flux exact but must break
        # the cancellation.
        eq = build_hierarchy_equation(1, 2)
        perturbed = Equation(
            eq.n, eq.alpha, eq.nonlinearity + DiffPoly.monomial(I, (("q", 0), ("q", 1), ("r", 0))),
        )
        with pytest.raises(ResidualBadCubic):
            derive_gauged(perturbed)

    def test_json_bundle(self):
        payload = derive_gauged(build_hierarchy_equation(1, 2)).to_json()
        assert payload["residual_bad_cubics"] == {}
        assert payload["gauged"]["linear"]["canonical"] is True
        assert payload["source"]["n"] == 1


class TestIsGaugedForm:
    def test_gauged_dnls_true(self):
        assert is_gauged_form(derive_gauged(build_hierarchy_equation(1, 2)).gauged)

    def test_raw_dnls_false(self):
        assert not is_gauged_form(build_hierarchy_equation(1, 2))

    def test_zero_nonlinearity_true(self):
        free = Equation(1, GR(2), DiffPoly.zero())
        assert is_gauged_form(free)

    def test_mkdv_parity_false(self):
        assert not is_gauged_form(build_hierarchy_equation(2, 4))
