import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings

from dnls_hierarchy.algebra import DiffPoly, GaussianRational, grading, pack, unpack
from dnls_hierarchy.hierarchy import (
    Equation,
    NormalizationMismatch,
    PropertyViolation,
    build_hierarchy_equation,
    check_Y_properties,
    compute_Y,
    extract_bad_cubics,
    hamiltonian_density,
    is_bad_cubic,
    predicted_bad_cubic_coefficient,
    unit_form,
    variational_derivative,
    verify_bad_cubics,
)
from conftest import compute_Y_oracle, diff_polys, hamiltonian_equation_oracle, order_of

GR = GaussianRational.of
Q = DiffPoly.variable("q")
R = DiffPoly.variable("r")


def _slot_count(n: int, k: int) -> int:
    """C(n+2, k+1) - d_{0,k} - d_{n,k}: the bad-cubic count of the pair (k, n-k)."""
    return math.comb(n + 2, k + 1) - (k == 0) - (k == n)


class TestRecursion:
    def test_y0(self):
        assert compute_Y(0) == R.scale(GaussianRational.two_i_pow(-1)).scale(-1)

    def test_y1_by_hand(self):
        expected = DiffPoly.monomial(
            GaussianRational.two_i_pow(-2).scale(-1), (("r", 1),)
        ) + DiffPoly.monomial(GaussianRational.two_i_pow(-3), (("q", 0), ("r", 0), ("r", 0)))
        assert compute_Y(1) == expected

    def test_matches_unsymmetrised_recursion(self):
        # Y_0 = -r/(2i), Y_n = (dx Y_{n-1} + q sum_k Y_{n-1-k} Y_k) / (2i), with
        # every ordered pair (k, n-1-k) formed on its own.
        over_two_i = GR(0, Fraction(-1, 2))
        ys = [R.scale(GR(0, Fraction(1, 2)))]
        for n in range(1, 13):
            acc = ys[n - 1].dx()
            for k in range(n):
                acc = acc + Q * (ys[n - 1 - k] * ys[k])
            ys.append(acc.scale(over_two_i))
        for n, y in enumerate(ys):
            assert compute_Y(n) == y

    @pytest.mark.hash_order
    @pytest.mark.parametrize("n", range(14))
    def test_conversion_matches_the_per_term_oracle(self, n):
        assert compute_Y(n) == compute_Y_oracle(n)

    def test_y2_structure(self):
        for f, _ in compute_Y(2).items():
            nq, nr, _ = grading(pack(f))
            assert order_of(f) == 5
            assert nr == nq + 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            compute_Y(-1)

    def test_index_past_the_packed_key_limit_fails_before_the_recursion(self):
        import dnls_hierarchy.hierarchy as H

        misses = H._coordinates.cache_info().misses
        with pytest.raises(OverflowError, match="packed-key limit n <= 126"):
            compute_Y(127)
        assert H._coordinates.cache_info().misses == misses

    def test_memoization_is_thread_safe(self):
        import dnls_hierarchy.hierarchy as H

        compute_Y.cache_clear()
        H._coordinates.cache_clear()  # the integer recursion's own cache
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: compute_Y(10), range(16)))
        assert all(r == results[0] for r in results)


class TestYProperties:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_items_pass(self, n):
        rep = check_Y_properties(n)
        assert rep.items_1_to_4_pass

    def test_single_factor_term_matches_recursion_exponent(self):
        rep = check_Y_properties(1)
        assert rep.single_factor_coeff == GaussianRational.two_i_pow(-2).scale(-1)
        assert rep.matches_minus_n_plus_1_exponent
        assert not rep.matches_minus_n_exponent

    def test_violation_carries_item(self):
        with pytest.raises(ValueError):
            check_Y_properties(0)

    @pytest.mark.parametrize("item,corrupt,message", [
        (1, lambda y: DiffPoly.zero(), "Y_n is zero"),
        (1, lambda y: y + DiffPoly.constant(GR(1)), "constant term present"),
        (2, lambda y: y + R, "order 1 != 5"),
        (3, lambda y: y + Q.dx() * Q * R, "factor counts"),
        (4, lambda y: y.scale(-1), "positive-integer multiple"),
        pytest.param(4, lambda y: y.scale(GaussianRational.i()), "positive-integer multiple",
                     id="4-imaginary"),
        pytest.param(4, lambda y: y.scale(GR(1, 1)), "positive-integer multiple",
                     id="4-non-real"),  # the real part alone would pass
        pytest.param(4, lambda y: y.scale(Fraction(1, 3)), "positive-integer multiple",
                     id="4-non-integer"),
        (1, lambda y: y - DiffPoly.monomial(y.coefficient((("r", 2),)), (("r", 2),)),
         "single-factor term"),
    ])
    def test_each_violation_is_raised(self, monkeypatch, item, corrupt, message):
        import dnls_hierarchy.hierarchy as H

        y = compute_Y(2)
        monkeypatch.setattr(H, "compute_Y", lambda n: corrupt(y))
        try:
            with pytest.raises(PropertyViolation, match=message) as exc:
                check_Y_properties(2)
        finally:
            compute_Y.cache_clear()
        assert exc.value.item == item


def _partial_oracle(p: DiffPoly, var: str, k: int) -> DiffPoly:
    """∂p/∂(∂_x^k var), removing one occurrence of the factor at a time."""
    out = DiffPoly.zero()
    for factors, coeff in p.items():
        for i, factor in enumerate(factors):
            if factor == (var, k):
                out = out + DiffPoly.monomial(coeff, factors[:i] + factors[i + 1:])
    return out


class TestVariationalDerivative:
    @settings(max_examples=60, deadline=None)
    @given(diff_polys())
    def test_matches_unfolded_euler_operator(self, p):
        # sum_k (-1)^k dx^k ∂p/∂(∂_x^k var), each dx^k applied k times.
        for var in ("q", "r"):
            top = max((o for f, _ in p.items() for v, o in f if v == var), default=0)
            expected = DiffPoly.zero()
            for k in range(top + 1):
                term = _partial_oracle(p, var, k)
                for _ in range(k):
                    term = term.dx()
                expected = expected + term.scale((-1) ** k)
            assert variational_derivative(p, var) == expected

    def test_single_integration_by_parts(self):
        p = DiffPoly.monomial(GR(1), (("q", 0), ("r", 1)))
        assert variational_derivative(p, "r") == DiffPoly.variable("q", 1).scale(-1)

    def test_no_derivatives_on_target(self):
        p = DiffPoly.monomial(GR(1), (("q", 0), ("q", 0), ("r", 0), ("r", 0)))
        assert variational_derivative(p, "r") == (Q * Q * R).scale(2)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="the variables are q and r"):
            variational_derivative(Q * R, "x")

    def test_dnls_right_hand_side(self):
        # 2 alpha dx(delta/delta r of q Y_1), alpha = 2, reproduces i dx(q^2 r).
        rhs = variational_derivative(hamiltonian_density(1), "r").dx().scale(GR(4))
        linear = DiffPoly.monomial(GR(-1), (("q", 2),))
        expected = (Q * Q * R).dx().scale(GaussianRational.i())
        assert rhs == linear + expected


class TestEquations:
    def test_transport(self):
        eq = build_hierarchy_equation(0, GR(Fraction(5, 3)))
        assert eq.parity == "transport"
        assert eq.lhs_coeff == GR(Fraction(-5, 3))
        assert eq.nonlinearity.is_zero

    def test_classic_dnls(self):
        eq = build_hierarchy_equation(1, 2)
        assert (eq.parity, eq.j, eq.dispersion_order) == ("schrodinger", 1, 2)
        assert eq.lhs_coeff == GR(1) and eq.is_canonical
        assert eq.nonlinearity == (Q * Q * R).dx().scale(GaussianRational.i())

    @pytest.mark.parametrize("args,message", [((-1,), "n must be"), ((1, 0), "alpha must be")])
    def test_bad_arguments_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            build_hierarchy_equation(*args)

    def test_non_dyadic_alpha_is_not_canonical(self):
        eq = build_hierarchy_equation(1, GR(3))
        assert not eq.is_canonical
        assert eq.lhs_coeff == GR(Fraction(3, 2))

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("alpha", [None, GR(Fraction(3, 7), 2)], ids=["2^n", "3/7+2i"])
    def test_linear_term_is_g_times_the_top_derivative(self, n, alpha):
        eq = build_hierarchy_equation(n, alpha)
        assert eq.linear == DiffPoly.monomial(eq.lhs_coeff, (("q", n + 1),))

    @pytest.mark.parametrize("n", range(6))
    def test_alpha_defaults_to_two_to_the_n(self, n):
        eq = build_hierarchy_equation(n)
        assert eq == build_hierarchy_equation(n, 2 ** n)
        assert eq.is_canonical

    @pytest.mark.parametrize("n", range(1, 10))
    def test_nonlinearity_structure(self, n):
        eq = build_hierarchy_equation(n, 2 ** n)
        orders = {order_of(f) for f, _ in eq.nonlinearity.items()}
        assert orders == {2 * n + 3}
        for f, _ in eq.nonlinearity.items():
            nq, nr, _ = grading(pack(f))
            assert nq == nr + 1

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_scaling_covariance(self, j):
        # (#factors - 1)/2 + #derivatives = 2j on every nonlinear monomial.
        eq = build_hierarchy_equation(2 * j - 1, 2 ** (2 * j - 1))
        for f, _ in eq.nonlinearity.items():
            assert (len(f) - 1) / 2 + grading(pack(f))[2] == 2 * j

    @pytest.mark.parametrize("n", range(10))
    @pytest.mark.parametrize("alpha", [None, GR(3), GR(Fraction(-5, 3)),
                                       GR(Fraction(3, 7), 2), GR(0, -1)],
                             ids=["2^n", "3", "-5/3", "3/7+2i", "-i"])
    def test_scaled_unit_form_matches_hamiltonian_oracle(self, n, alpha):
        eq = build_hierarchy_equation(n, alpha)
        oracle = hamiltonian_equation_oracle(n, 2 ** n if alpha is None else alpha)
        for name in ("parity", "j", "lhs_coeff", "nonlinearity"):
            assert getattr(eq, name) == getattr(oracle, name), name
        assert eq.is_canonical == oracle.canonical == (alpha is None or n == 0)
        assert eq.to_json() == oracle.to_json()

    def test_one_derivation_per_flow(self, monkeypatch):
        import dnls_hierarchy.hierarchy as H

        calls = []

        def counted(p, var):
            calls.append(var)
            return variational_derivative(p, var)

        monkeypatch.setattr(H, "variational_derivative", counted)
        unit_form.cache_clear()
        for n in range(4):
            for alpha in (None, 3, GR(Fraction(3, 7), 2)):
                build_hierarchy_equation(n, alpha)
            unit_form(n)
        unit_form.cache_clear()
        assert len(calls) == 4

    @pytest.mark.parametrize("corrupt,message", [
        (lambda rho: rho.scale(2), "linear term is not"),
        (lambda rho: rho + Q * R, "order/phase homogeneity"),
    ])
    def test_unit_form_rejects_a_broken_normalization(self, monkeypatch, corrupt, message):
        import dnls_hierarchy.hierarchy as H

        monkeypatch.setattr(H, "hamiltonian_density", lambda n: corrupt(hamiltonian_density(n)))
        try:
            with pytest.raises(NormalizationMismatch, match=message):
                unit_form.__wrapped__(3)  # uncached: nothing corrupted is kept
        finally:
            compute_Y.cache_clear()

    def test_nonlinearity_is_total_derivative(self):
        from dnls_hierarchy.gauge import antiderivative

        for n in (2, 3, 4):
            nl = unit_form(n) - DiffPoly.monomial(GR(1), (("q", n + 1),))
            assert antiderivative(nl).dx() == nl

    def test_equation_state_is_n_alpha_nonlinearity(self):
        # Parity, j, g and the canonical flag are derived, never stored.
        assert [f.name for f in fields(Equation)] == ["n", "alpha", "nonlinearity"]
        eq = Equation(4, GR(0, -1), DiffPoly.zero())
        assert (eq.parity, eq.j, eq.lhs_coeff, eq.is_canonical) == (
            "mkdv", None, GR(0, Fraction(1, 16)), False)

    def test_equation_json_shape(self):
        payload = build_hierarchy_equation(3, 8).to_json()
        assert payload["parity"] == "schrodinger"
        assert payload["j"] == 2
        assert payload["linear"]["order"] == 4
        assert payload["linear"]["canonical"] is True

    def test_latex_contains_subscript_style(self):
        text = build_hierarchy_equation(3, 8).latex()
        assert text.startswith("iq_t-q_{xxxx} = ")
        assert "q_{xx}" in text


class TestBadCubics:
    def test_dnls_coefficient(self):
        eq = build_hierarchy_equation(1, 2)
        assert extract_bad_cubics(eq) == {0: GR(0, 2)}

    def test_fourth_order_coefficients(self):
        eq = build_hierarchy_equation(3, 8)
        assert extract_bad_cubics(eq) == {0: GR(0, -4), 1: GR(0, -10)}

    def test_gauged_equation_has_none(self):
        from dnls_hierarchy.gauge import derive_gauged

        gauged = derive_gauged(build_hierarchy_equation(1, 2)).gauged
        assert extract_bad_cubics(gauged) == {}

    def test_shared_lower_q_order_is_a_value_error(self):
        # q·q_x·r and q·q_xx·r are both bad cubics with lower q order 0.
        nl = DiffPoly.monomial(GR(1), (("q", 0), ("q", 1), ("r", 0))) + DiffPoly.monomial(
            GR(1), (("q", 0), ("q", 2), ("r", 0)))
        with pytest.raises(ValueError, match=r"^bad cubics \(1,0\)·q\[0\]·q\[1\]·r\[0\] and "
                                             r"\(1,0\)·q\[0\]·q\[2\]·r\[0\] share the lower "
                                             r"q order 0$"):
            extract_bad_cubics(Equation(3, GR(8), nl))

    def test_bad_cubic_key_test_matches_the_factor_tuple_rule(self):
        factors = [(v, o) for v in "qr" for o in range(4)]
        for a, b, c in itertools.combinations_with_replacement(factors, 3):
            f = (a, b, c)
            expected = sorted(v for v, _ in f) == ["q", "q", "r"] and ("r", 0) in f
            assert is_bad_cubic(pack(f)) == expected, f

    def test_closed_form_examples(self):
        assert predicted_bad_cubic_coefficient(1, 0, 2) == GR(0, 2)
        assert predicted_bad_cubic_coefficient(3, 1, 8) == GR(0, -10)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_closed_form_symmetry(self, n):
        for k in range(n + 1):
            assert predicted_bad_cubic_coefficient(
                n, k, 2 ** n
            ) == predicted_bad_cubic_coefficient(n, n - k, 2 ** n)

    def test_middle_pair_is_halved(self):
        assert verify_bad_cubics(4, 16).predicted[2] == predicted_bad_cubic_coefficient(
            4, 2, 16
        ).scale(Fraction(1, 2))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_extraction_matches_closed_form(self, n):
        assert verify_bad_cubics(n).matches

    @pytest.mark.parametrize("n", range(1, 14))
    def test_unit_form_bad_cubics_are_minus_i_count(self, n):
        # NL_n's bad cubic for the pair {k, n-k} is -i C(n+2, k+1) less the end
        # slots, halved where the two q factors coincide (2k = n).
        nl = unit_form(n) - DiffPoly.variable("q", n + 1)
        observed = {unpack(key)[0][1]: c for key, c in nl.terms() if is_bad_cubic(key)}
        assert observed == {
            k: GR(0, -Fraction(_slot_count(n, k), 2 if 2 * k == n else 1))
            for k in range(n // 2 + 1)
        }

    @pytest.mark.parametrize("n", range(1, 14))
    def test_closed_form_has_no_parity_sign(self, n):
        # alpha i^n / 2^n equals the parity-signed lead 4 (-1)^(n+1) alpha / (2i)^(n+2).
        for alpha in (GR(2 ** n), GR(3), GR(Fraction(3, 7), 2), GR(0, -1)):
            lead = alpha.scale(4 * (-1) ** (n + 1)) / GaussianRational.two_i_pow(n + 2)
            for k in range(n + 1):
                assert predicted_bad_cubic_coefficient(n, k, alpha) == lead.scale(
                    _slot_count(n, k)
                )
            assert verify_bad_cubics(n, alpha).matches

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            predicted_bad_cubic_coefficient(0, 0, 1)
        with pytest.raises(ValueError):
            predicted_bad_cubic_coefficient(3, 4, 8)
