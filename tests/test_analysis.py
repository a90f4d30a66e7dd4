import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from dnls_hierarchy.algebra import DiffPoly, GaussianRational
from dnls_hierarchy.analysis import (
    BoundaryDecayViolation,
    FitDegenerate,
    NormSpec,
    PacketSpec,
    ResolutionError,
    cubic_symbol,
    gauge_apply_numeric,
    gauge_lipschitz_probe,
    growth_exponent_fit,
    hat_norm,
    hierarchy_cubic,
    max_resonance_phase,
    modulation_norm,
    packet_datum,
    packet_grid,
    picard3,
    predicted_growth_exponent,
    resonance_phase,
    resonance_ratio_stats,
)
from dnls_hierarchy import analysis
from dnls_hierarchy.gauge import derive_gauged
from dnls_hierarchy.hierarchy import build_hierarchy_equation, cubic_terms
from dnls_hierarchy.spectral import (
    Field,
    Grid,
    NonlinearEvaluator,
    SimConfig,
    gaussian_bump,
    linear_propagate,
    simulate,
)
from conftest import (
    hat_norm_oracle,
    line_fit_oracle,
    lipschitz_probe_oracle,
    max_resonance_phase_oracle,
    modulation_norm_boxes_oracle,
    modulation_norm_oracle,
    picard3_oracle,
    random_band_field,
    resonance_ratios_oracle,
    resonance_sample_oracle,
    resonance_stats_oracle,
    resonance_triple_ratios,
)


class TestHatNorm:
    def test_single_mode_scales_with_bracket(self):
        g = Grid(64)
        s = 0.75
        norms = {}
        for N in (2, 8):
            f = Field(g, np.exp(1j * N * g.x))
            norms[N] = hat_norm(f, s, 2)
        assert norms[8] / norms[2] == pytest.approx(((1 + 64) / (1 + 4)) ** (s / 2), rel=1e-12)

    def test_parseval(self):
        g = Grid(128, 16 * np.pi)
        f = random_band_field(g, 20, seed=0)
        assert hat_norm(f, 0.0, 2.0) == pytest.approx(f.l2_norm(), rel=1e-12)

    @pytest.mark.parametrize("s,r", [(0.5, 2.0), (1.0, 1.5), (0.0, 4.0), (2.0, np.inf)])
    def test_matches_definition_oracle(self, s, r):
        g = Grid(128, 16 * np.pi)
        f = random_band_field(g, 24, seed=3)
        assert hat_norm(f, s, r) == pytest.approx(hat_norm_oracle(f, s, r), rel=1e-10)

    def test_requires_r_above_one(self):
        g = Grid(64)
        with pytest.raises(ValueError):
            hat_norm(random_band_field(g, 4, seed=0), 0.0, 1.0)

    @pytest.mark.parametrize("r", [1.01, 1.001, 1.0001])
    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_homogeneous_near_r_one(self, r, scale):
        # r' = r/(r - 1) reaches 10^4: without rescaling, |u_hat|^r' under-
        # or overflows and the norm reads 0 or inf.
        f = gaussian_bump(Grid(256, 32 * np.pi))
        want = scale * hat_norm(f, 0.0, r)
        assert 0 < want < np.inf
        assert abs(hat_norm(Field(f.grid, scale * f.values), 0.0, r) - want) <= 1e-12 * want


class TestModulationNorm:
    def test_field_in_one_box(self):
        g = Grid(128, 8 * np.pi)  # dxi = 1/4, modes 3 +/- eps stay in box 3
        coeffs = np.zeros(g.m, dtype=complex)
        idx = np.argmin(np.abs(g.wavenumbers - 3.0))
        coeffs[idx] = 2.0
        f = Field.from_coefficients(g, coeffs)
        s = 1.3
        expected = (1 + 9) ** (s / 2) * f.l2_norm()
        assert modulation_norm(f, s, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_p2_s0_is_l2(self):
        g = Grid(128, 16 * np.pi)
        f = random_band_field(g, 30, seed=5)
        assert modulation_norm(f, 0.0, 2.0) == pytest.approx(f.l2_norm(), rel=1e-12)

    @pytest.mark.parametrize("s,p", [(0.6, 4.0), (0.0, 2.0), (1.2, np.inf), (0.3, 1.0)])
    def test_matches_definition_oracle(self, s, p):
        g = Grid(128, 16 * np.pi)
        f = random_band_field(g, 24, seed=8)
        assert modulation_norm(f, s, p) == pytest.approx(
            modulation_norm_oracle(f, s, p), rel=1e-10
        )

    def test_grids_sharing_m_have_their_own_boxes(self):
        # The probe grid and two packet grids share m = 256 but differ in
        # length and carrier, so each has its own unit-box partition; calls
        # alternate between them and each must match the box-by-box formula.
        grids = [Grid(256, 32 * np.pi)] + [
            packet_grid(PacketSpec(N=N, j=j, s=0.5, r=2.0)) for N, j in ((16.0, 2), (64.0, 3))
        ]
        assert len({g.m for g in grids}) == 1 and len(set(grids)) == 3
        rng = np.random.default_rng(4)
        for _ in range(3):
            for g in grids:
                f = Field.from_coefficients(g, rng.normal(size=g.m) + 1j * rng.normal(size=g.m))
                for s, p in ((0.6, 4.0), (0.0, 2.0), (1.2, np.inf)):
                    assert modulation_norm(f, s, p) == modulation_norm_boxes_oracle(f, s, p)

    def test_sobolev_type_embedding(self):
        # ||f||_{M^{s1}_{2,q1}} <= C ||f||_{M^{s2}_{2,q2}} when s1-s2 > 1/q2-1/q1 > 0.
        # C calibrated empirically on this family; 2.0 leaves 3x headroom.
        s1, q1, s2, q2 = 0.8, 4.0, 0.5, 2.0
        assert s1 - s2 > 1 / q2 - 1 / q1 > 0
        g = Grid(256, 16 * np.pi)
        worst = 0.0
        for seed in range(25):
            f = random_band_field(g, 40, seed=seed, decay=0.5)
            worst = max(worst, modulation_norm(f, s1, q1) / modulation_norm(f, s2, q2))
        assert worst <= 2.0

    @pytest.mark.parametrize("p", [100.0, 1e4, 1e6])
    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_homogeneous_at_large_p(self, p, scale):
        f = gaussian_bump(Grid(256, 32 * np.pi))
        want = scale * modulation_norm(f, 0.0, p)
        assert 0 < want < np.inf
        assert abs(modulation_norm(Field(f.grid, scale * f.values), 0.0, p) - want) <= 1e-12 * want

    def test_norm_spec_dispatch_and_validation(self):
        g = Grid(64)
        f = random_band_field(g, 8, seed=1)
        assert NormSpec("modulation", 0.0, 2.0)(f) == pytest.approx(f.l2_norm(), rel=1e-12)
        with pytest.raises(ValueError):
            NormSpec("fourier_lebesgue", 0.0, 1.0)
        with pytest.raises(ValueError):
            NormSpec("modulation", 0.0, 0.5)
        with pytest.raises(ValueError):
            NormSpec("besov", 0.0, 2.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, 0.5, float("nan")])
    def test_modulation_exponent_below_one_is_rejected(self, p):
        f = random_band_field(Grid(64), 8, seed=1)
        with pytest.raises(ValueError, match="p >= 1"):
            modulation_norm(f, 0.0, p)
        with pytest.raises(ValueError, match="p >= 1"):
            NormSpec("modulation", 0.0, p)
        with pytest.raises(ValueError, match="p >= 1"):
            gauge_lipschitz_probe(0.6, p, 0.1, trials=2)


def _windowed_rows(count: int) -> tuple[Grid, np.ndarray]:
    """Random band fields under the probe's Gaussian window, as rows."""
    g = Grid(256, 32 * np.pi)
    window = np.exp(-((g.x - g.length / 2) ** 2) / (2 * (g.length / 16) ** 2))
    return g, np.array([random_band_field(g, 6, seed=k).values * window for k in range(count)])


@pytest.mark.dispatch
class TestRowCores:
    """The row-wise cores give each row the bits of the one-field call."""

    @pytest.mark.parametrize("s,p", [(0.6, 4.0), (0.0, 2.0), (0.3, 3.0), (1.0, np.inf)])
    def test_norms_of_rows_match_the_one_field_oracle(self, s, p):
        # Each root is a scalar power, as in the oracle; an array power
        # rounds a few of 200 rows differently.
        grid, rows = _windowed_rows(200)
        assert analysis._modulation_norms(grid, rows, s, p) == [
            modulation_norm_boxes_oracle(Field(grid, row), s, p) for row in rows]

    @pytest.mark.parametrize("direction", [1, -1])
    def test_gauge_of_rows_matches_one_field_at_a_time(self, direction):
        grid, rows = _windowed_rows(50)
        for row, out in zip(rows, analysis._gauged(grid, rows, direction)):
            assert np.array_equal(out, gauge_apply_numeric(Field(grid, row), direction).values)


class TestNumericGauge:
    def test_zero_field(self):
        g = Grid(64, 16 * np.pi)
        out = gauge_apply_numeric(Field(g, np.zeros(g.m)), -1)
        assert np.all(out.values == 0)

    def test_modulus_preserved_pointwise(self):
        g = Grid(256, 32 * np.pi)
        f = gaussian_bump(g, 0.5, 2.0)
        out = gauge_apply_numeric(f, -1)
        assert np.max(np.abs(np.abs(out.values) - np.abs(f.values))) < 1e-14

    def test_mass_preserved_exactly(self):
        g = Grid(256, 32 * np.pi)
        f = gaussian_bump(g, 0.5, 2.0, carrier=2)
        out = gauge_apply_numeric(f, 1)
        assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-14)

    def test_inverse_pair(self):
        g = Grid(256, 32 * np.pi)
        f = gaussian_bump(g, 0.6, 2.5, carrier=1)
        back = gauge_apply_numeric(gauge_apply_numeric(f, -1), 1)
        assert np.max(np.abs(back.values - f.values)) < 1e-10

    def test_boundary_decay_enforced(self):
        g = Grid(256, 32 * np.pi)
        f = gaussian_bump(g, 0.5, 2.0, center=0.0)  # sits on the boundary
        with pytest.raises(BoundaryDecayViolation):
            gauge_apply_numeric(f, -1)

    def test_direction_validated(self):
        g = Grid(64, 16 * np.pi)
        with pytest.raises(ValueError, match="direction must be"):
            gauge_apply_numeric(Field(g, np.zeros(g.m)), 0)


class TestPacket:
    @pytest.mark.parametrize("N", [16, 64, 256])
    def test_norm_is_approximately_one(self, N):
        spec = PacketSpec(N=float(N), j=2, s=1.0, r=2.0)
        datum = packet_datum(spec)
        assert abs(hat_norm(datum, 1.0, 2.0) - 1.0) <= 0.02

    def test_support_confined_to_interval(self):
        spec = PacketSpec(N=64.0, j=2, s=0.5, r=2.0)
        datum = packet_datum(spec)
        grid = datum.grid
        coeffs = datum.coefficients()
        xi = grid.true_frequencies
        outside = (xi < spec.N) | (xi >= spec.N + spec.width)
        peak = np.max(np.abs(coeffs))
        assert np.max(np.abs(coeffs[outside])) < 1e-12 * peak

    def test_mass_against_direct_quadrature(self):
        spec = PacketSpec(N=32.0, j=2, s=0.75, r=2.0)
        datum = packet_datum(spec)
        expected = spec.width ** (1 - 2 / spec.rprime) * spec.N ** (-2 * spec.s)
        assert datum.l2_norm() ** 2 == pytest.approx(expected, rel=1e-10)

    def test_unresolved_packet_rejected(self):
        # At N = 1e8, j = 3, gamma = 1e-16 is far below the float spacing
        # near N, so [N, N + gamma) holds no representable frequency.
        spec = PacketSpec(N=1e8, j=3, s=1.0, r=2.0)
        with pytest.raises(ResolutionError, match="only 0 modes"):
            packet_datum(spec)


class TestPicard3:
    def test_single_mode_closed_form(self):
        g = Grid(64)
        N, A, t = 3, 0.8 + 0.3j, 0.05
        f = Field(g, A * np.exp(1j * N * g.x))
        cubic = hierarchy_cubic(2)
        out = picard3(2, cubic, f, t)
        m = cubic_symbol(cubic)
        expected = t * m(N, N, N) * abs(A) ** 2 * A
        got = out.coefficients()[N]
        assert abs(got - expected) <= 1e-12 * abs(expected)
        others = np.delete(out.coefficients(), N)
        assert np.max(np.abs(others)) < 1e-12 * abs(expected)

    @pytest.mark.parametrize("factors,message", [
        ((("q", 0), ("r", 0)), "non-cubic term"),
        ((("r", 0), ("r", 0), ("q", 0)), "not phase balanced"),
    ])
    def test_cubic_symbol_rejects_other_terms(self, factors, message):
        with pytest.raises(ValueError, match=message):
            cubic_symbol(DiffPoly.monomial(GaussianRational.of(1), factors))

    def test_t_zero_vanishes(self):
        g = Grid(64)
        f = Field(g, np.exp(1j * 3 * g.x))
        out = picard3(2, hierarchy_cubic(2), f, 0.0)
        assert np.all(out.values == 0)

    def test_kernel_bounded_by_t(self):
        # The oracle's Duhamel kernel, the integral of exp(-i s Phi) over [0, t].
        rng = np.random.default_rng(0)
        phase = rng.uniform(-50, 50, 1000)
        for t in (0.01, 0.3, 2.0):
            kernel = t * np.exp(-0.5j * t * phase) * np.sinc(t * phase / (2 * np.pi))
            assert np.max(np.abs(kernel)) <= t * (1 + 1e-12)
            # Compare with the textbook quotient away from its own
            # cancellation regime (the stable form is exact at the origin).
            big = np.abs(t * phase) >= 0.1
            naive = (np.exp(-1j * t * phase[big]) - 1) / (-1j * phase[big])
            assert np.max(np.abs(kernel[big] - naive)) < 1e-12 * t

    def test_fourth_order_symbol_reference_form(self):
        # With the conjugate slot negated, the symmetrized symbol of the
        # fourth-order cubic equals the quartic reference polynomial.
        m = cubic_symbol(hierarchy_cubic(2))

        def reference(k1, k2, k3):
            return (k1 + k2 + k3) * (
                2 * k1 ** 2 + k2 ** 2 + 2 * k3 ** 2 + k1 * k2 + k2 * k3 + 3 * k1 * k3
            )

        rng = np.random.default_rng(11)
        for _ in range(250):
            k1, k2, k3 = (int(v) for v in rng.integers(-25, 25, 3))
            assert m(k1, k2, k3) == pytest.approx(-reference(k1, -k2, k3), abs=1e-9)

    def test_phase_peaks_where_xi1_and_xi3_are_support_ends(self):
        # Phi is monotone in xi1 and in xi3, so in exact integers its |max|
        # over K^3 is the |max| over {min K, max K} x K x {min K, max K}.
        # The control takes the ends in list order, the first and last of
        # the sample, and misses the maximum in many cases.
        def phase(j, a, b, c):
            return -(a - b + c) ** (2 * j) + a ** (2 * j) - b ** (2 * j) + c ** (2 * j)

        def peak(j, outer, inner):
            return max(abs(phase(j, a, b, c)) for a, b, c in itertools.product(outer, inner, outer))

        rng = random.Random(43)
        missed = 0
        for _ in range(3000):
            j, support = rng.randint(1, 4), rng.sample(range(-40, 41), rng.randint(2, 9))
            whole = max(abs(phase(j, *k)) for k in itertools.product(support, repeat=3))
            assert peak(j, (min(support), max(support)), support) == whole
            missed += peak(j, (support[0], support[-1]), support) != whole
        assert missed > 1000

    def test_resonance_phase_factored_form(self):
        rng = np.random.default_rng(4)
        for j in (2, 3):
            x = rng.uniform(-3, 3, (3, 200))
            xi = x[0] - x[1] + x[2]
            naive = -xi ** (2 * j) + x[0] ** (2 * j) - x[1] ** (2 * j) + x[2] ** (2 * j)
            stable = resonance_phase(j, x[0], x[1], x[2])
            assert np.max(np.abs(naive - stable)) < 1e-9


@lru_cache(maxsize=None)
def _fit_t(j: int, r: float) -> float:
    return growth_exponent_fit(j, 0.5, r, [16, 32, 64, 128, 256]).t


def _oracle_gap(got: Field, expected: Field) -> float:
    """L2-relative distance of the iterate from the oracle's (0 for two zeros)."""
    assert got.grid == expected.grid and got.time == expected.time
    gap = np.linalg.norm(got.values - expected.values)
    return float(gap / np.linalg.norm(expected.values)) if gap else 0.0


def _assert_matches_oracle(got: Field, expected: Field):
    # The quadrature and the oracle's S^3 sum round apart, by 2.6e-15 at
    # worst over this file's cases.
    assert _oracle_gap(got, expected) <= 1e-13


@pytest.mark.dispatch
class TestPicard3AgainstMeshgridOracle:
    """The product-kernel quadrature matches the meshgrid sum to rounding;
    the phase bound stays bit-identical to its meshgrid form."""

    @pytest.mark.parametrize("r", [1.5, 2.0])
    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_packets_at_the_fit_time(self, j, N, r):
        spec = PacketSpec(N=float(N), j=j, s=0.5, r=r)
        datum = packet_datum(spec)
        cubic = hierarchy_cubic(j)
        t = _fit_t(j, r)
        _assert_matches_oracle(picard3(j, cubic, datum, t), picard3_oracle(j, cubic, datum, t))
        assert max_resonance_phase(j, datum) == max_resonance_phase_oracle(j, datum)

    def test_single_mode_field(self):
        g = Grid(64)
        f = Field(g, (0.8 + 0.3j) * np.exp(1j * 3 * g.x))
        cubic = hierarchy_cubic(2)
        _assert_matches_oracle(picard3(2, cubic, f, 0.05), picard3_oracle(2, cubic, f, 0.05))
        assert max_resonance_phase(2, f) == max_resonance_phase_oracle(2, f)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_t_zero(self, j):
        spec = PacketSpec(N=64.0, j=j, s=0.5, r=2.0)
        datum = packet_datum(spec)
        cubic = hierarchy_cubic(j)
        _assert_matches_oracle(picard3(j, cubic, datum, 0.0), picard3_oracle(j, cubic, datum, 0.0))

    def test_zero_field(self):
        f = Field(Grid(64), np.zeros(64, dtype=np.complex128))
        cubic = hierarchy_cubic(2)
        _assert_matches_oracle(picard3(2, cubic, f, 0.1), picard3_oracle(2, cubic, f, 0.1))
        assert max_resonance_phase(2, f) == max_resonance_phase_oracle(2, f) == 0.0

    @staticmethod
    def _unit_modes(modes: range) -> Field:
        coeffs = np.zeros(16, dtype=np.complex128)
        coeffs[list(modes)] = 1.0
        return Field.from_coefficients(Grid(16), coeffs)

    @pytest.mark.parametrize("modes", [range(-4, 1), range(-1, 4)])
    def test_image_at_the_window_edges_is_kept(self, modes):
        # The cubic images span -8..4 and -5..7: M = 16 holds the modes -8..7.
        f = self._unit_modes(modes)
        cubic = hierarchy_cubic(1)
        _assert_matches_oracle(picard3(1, cubic, f, 0.1), picard3_oracle(1, cubic, f, 0.1))

    @pytest.mark.parametrize("size", [1, 7, 9, 47])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_supports_with_negative_offsets(self, j, size):
        # The support's negative offsets come last in fftfreq order, so its
        # ends are not its first and last entries.  Random amplitudes on
        # modes -size//2 .. on a carrier window.
        grid = Grid(256, 2 * np.pi * 48, xi0=64.0)
        coeffs = np.zeros(grid.m, dtype=np.complex128)
        rng = np.random.default_rng(size)
        coeffs[np.arange(size) - size // 2] = rng.normal(size=size) + 1j * rng.normal(size=size)
        f = Field.from_coefficients(grid, coeffs)
        assert analysis._support(f)[0].size == size
        phase = max_resonance_phase(j, f)
        assert phase == max_resonance_phase_oracle(j, f)
        t = 0.1 / phase if phase > 0 else 0.1
        cubic = hierarchy_cubic(j)
        _assert_matches_oracle(picard3(j, cubic, f, t), picard3_oracle(j, cubic, f, t))

    @pytest.mark.parametrize("size", [7, 9, 47])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_ends_in_fftfreq_order_miss_the_maximum(self, j, size):
        # The control: the first and last support entries in place of its
        # min and max, on the supports of the test above, miss the maximum.
        grid = Grid(256, 2 * np.pi * 48, xi0=64.0)
        coeffs = np.zeros(grid.m, dtype=np.complex128)
        rng = np.random.default_rng(size)
        coeffs[np.arange(size) - size // 2] = rng.normal(size=size) + 1j * rng.normal(size=size)
        f = Field.from_coefficients(grid, coeffs)
        x = analysis._support(f)[2]
        ends = x[[0, -1]]
        control = float(np.max(np.abs(resonance_phase(j, ends[:, None, None], x[None, :, None], ends))))
        assert control != max_resonance_phase_oracle(j, f) == max_resonance_phase(j, f)

    @pytest.mark.parametrize("xi0", [0.0, 64.0, 1024.0])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_random_non_contiguous_supports(self, j, xi0):
        # Supports of 2..15 modes drawn from -32..31, on Grid(64) at xi0 = 0,
        # where they straddle 0, and on carrier windows of packet_grid's
        # spacing, 1/48 of the width xi0^-(j-1).
        grid = Grid(256, 2 * np.pi * 48 * xi0 ** (j - 1), xi0=xi0) if xi0 else Grid(64)
        rng = np.random.default_rng(j)
        for _ in range(20):
            size = int(rng.integers(2, 16))
            coeffs = np.zeros(grid.m, dtype=np.complex128)
            coeffs[rng.choice(np.arange(-32, 32), size, replace=False)] = rng.normal(size=size) + 1j
            f = Field.from_coefficients(grid, coeffs)
            assert analysis._support(f)[0].size == size
            assert max_resonance_phase(j, f) == max_resonance_phase_oracle(j, f)

    @pytest.mark.parametrize("e,want", [(80, np.inf), (120, np.nan)])
    def test_overflow_propagates_as_in_the_oracle(self, e, want):
        # Frequencies 10^e (1 + k): the phase overflows to inf at e = 80,
        # and at e = 120 its powers do too, and their difference is nan.
        coeffs = np.zeros(64, dtype=np.complex128)
        coeffs[[0, 1, 2, 5]] = 1.0
        f = Field.from_coefficients(Grid(64, 2 * np.pi / 10.0 ** e, xi0=10.0 ** e), coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            for fn in (max_resonance_phase, max_resonance_phase_oracle):
                np.testing.assert_equal(fn(2, f), want)

    def test_midpoint_rule_fails_the_comparison(self, monkeypatch):
        # At t max|Phi| = 1 the six-point rule still matches the oracle, and
        # a one-point midpoint rule in its place does not.
        datum = packet_datum(PacketSpec(N=64.0, j=2, s=0.5, r=2.0))
        cubic = hierarchy_cubic(2)
        t = 1.0 / max_resonance_phase(2, datum)
        want = picard3_oracle(2, cubic, datum, t)
        assert _oracle_gap(picard3(2, cubic, datum, t), want) <= 1e-13
        monkeypatch.setattr(analysis, "_GAUSS_LEGENDRE", ((0.5, 1.0),))
        assert _oracle_gap(picard3(2, cubic, datum, t), want) > 1e-13

    @pytest.mark.parametrize("modes", [range(0, 5), range(-5, 1)])
    def test_image_leaving_the_window_rejected(self, modes):
        # The cubic images span -4..8 and -10..5: each leaves -8..7.
        f = self._unit_modes(modes)
        for fn in (picard3, picard3_oracle):
            with pytest.raises(ResolutionError, match="leaves the frequency window"):
                fn(1, hierarchy_cubic(1), f, 0.1)


@lru_cache(maxsize=None)
def _solver_and_picard3(j: int, gauged: bool):
    """The third variation of `simulate` and -i picard3 of its cubic, with the
    datum, time and cubic: a random datum on |k| <= 4 (M = 64, length 2 pi),
    IFRK4 with the pad evaluator of the cubic alone.  A(e) = e^{-tL}(S(t)(e
    phi) - e^{tL} e phi)/e^3 is A3 + O(e^2); one Richardson step in e removes
    the e^2 term."""
    eq = build_hierarchy_equation(2 * j - 1)
    cubic = cubic_terms(derive_gauged(eq).gauged.nonlinearity if gauged else eq.nonlinearity)
    phi = random_band_field(Grid(64), 4, seed=0)
    t = 0.05 / 4 ** (j - 1) if j <= 2 else 3e-4
    steps = {1: 200, 2: 800, 3: 400 if gauged else 1600}[j]
    eps = 1e-3 if (j, gauged) == (3, False) else 1e-2  # its e^2 term is large
    evaluator = NonlinearEvaluator(cubic)

    def variation(e):
        u = simulate(SimConfig(j=j, dt=t / steps, t_end=t), Field(phi.grid, e * phi.values),
                     evaluator).field
        return (linear_propagate(u, j, -t).coefficients() - e * phi.coefficients()) / e ** 3

    a3 = (4 * variation(eps / 2) - variation(eps)) / 3
    return a3, -1j * picard3(j, cubic, phi, t).coefficients(), (cubic, phi, t)


class TestPicard3AgainstTheSolver:
    """picard3 is the third Picard iterate of the equation `simulate`
    integrates, i u_t + (-1)^(j+1) ∂^(2j) u = N(u), up to its -i and the outer
    propagator; the conjugate kernel is the iterate of the opposite sign."""

    @pytest.mark.parametrize("gauged", [False, True], ids=["plain", "gauged"])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_third_variation_matches_picard3(self, j, gauged):
        # Gaps 1.2e-9 to 1.1e-6 here, from the time steps and the e^4 term.
        a3, iterate, _ = _solver_and_picard3(j, gauged)
        assert np.linalg.norm(a3 - iterate) <= 1e-3 * np.linalg.norm(iterate)

    @pytest.mark.parametrize("gauged", [False, True], ids=["plain", "gauged"])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_conjugate_kernel_does_not_match(self, j, gauged):
        # The control: the conjugate kernel's iterate reads 0.46 to 1.6 away.
        a3, _, (cubic, phi, t) = _solver_and_picard3(j, gauged)
        conjugate = -1j * picard3_oracle(j, cubic, phi, t, sign=1).coefficients()
        assert np.linalg.norm(a3 - conjugate) > 0.1 * np.linalg.norm(conjugate)


class TestPicard3PanelLimit:
    @pytest.mark.parametrize("j", [2, 3])
    def test_a_runaway_panel_count_is_refused_at_once(self, j):
        # Modes |k| <= 10 on M = 64 at t = 1 stay inside the window, and
        # |t| max|Phi| reads 8e5 at j = 2 and 7.3e8 at j = 3: about 5 minutes
        # and 3 days of quadrature.  The solver datum's 895 panels at j = 3
        # (TestPicard3AgainstTheSolver) are the control.
        g = Grid(64)
        phi = Field.from_coefficients(g, (np.abs(g.wavenumbers) <= 10).astype(complex), 0.0)
        cubic = hierarchy_cubic(j)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^\|t\| max\|Phi\| = \S+ needs more than 100000 panels$"):
            picard3(j, cubic, phi, 1.0)
        assert time.perf_counter() - start < 0.1

    def test_the_limit_counts_panels(self, monkeypatch):
        # The j = 3 solver datum takes 895 panels: refused with a limit of 894.
        phi = random_band_field(Grid(64), 4, seed=0)
        monkeypatch.setattr(analysis, "_PICARD_PANELS", 894)
        with pytest.raises(ValueError, match="more than 894 panels"):
            picard3(3, hierarchy_cubic(3), phi, 3e-4)


class TestGrowthFit:
    @pytest.mark.parametrize(
        "j,r,s,expected",
        [(2, 2.0, 0.5, 1.0), (2, 2.0, 1.0, 0.0), (3, 2.0, 1.0, 1.0)],
    )
    def test_fitted_exponent_matches_prediction(self, j, r, s, expected):
        fit = growth_exponent_fit(j, s, r, [16, 32, 64, 128, 256])
        assert fit.predicted == pytest.approx(expected)
        assert abs(fit.slope - expected) <= 0.15
        assert fit.t * 1.0 > 0

    def test_time_stays_in_linear_regime(self):
        fit = growth_exponent_fit(2, 0.5, 2.0, [16, 32, 64, 128])
        spec = PacketSpec(N=128.0, j=2, s=0.5, r=2.0)
        datum = packet_datum(spec)
        assert fit.t * max_resonance_phase(2, datum) <= 0.1 + 1e-12

    @pytest.mark.parametrize("j,r,s", [(2, 2.0, 0.5), (2, 2.0, 1.0), (3, 2.0, 1.0)])
    def test_time_is_defined_by_max_resonance_phase(self, j, r, s):
        N_list = [16, 32, 64, 128, 256]
        phases = []
        for N in N_list:
            spec = PacketSpec(N=float(N), j=j, s=s, r=r)
            phases.append(max_resonance_phase(j, packet_datum(spec)))
        assert growth_exponent_fit(j, s, r, N_list).t == 0.1 / max(phases)

    def test_fit_takes_the_public_route(self, monkeypatch):
        # t comes from max_resonance_phase and each iterate from picard3,
        # one call each per packet, so a tracer of either sees the fit's work.
        calls = {"max_resonance_phase": 0, "picard3": 0}

        def counted(name):
            fn = getattr(analysis, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        for name in calls:
            monkeypatch.setattr(analysis, name, counted(name))
        growth_exponent_fit(2, 0.5, 2.0, [16, 32, 64, 128, 256])
        assert calls == {"max_resonance_phase": 5, "picard3": 5}

    def test_needs_four_points(self):
        with pytest.raises(FitDegenerate):
            growth_exponent_fit(2, 0.5, 2.0, [16, 32, 64])

    @pytest.mark.parametrize("N_list", [[16, 16, 16, 16], [16, 16, 32, 64]])
    def test_needs_four_distinct_points(self, N_list):
        # Repeated frequencies give a singular least-squares fit, not a slope.
        with pytest.raises(FitDegenerate, match="4 distinct"):
            growth_exponent_fit(2, 0.5, 2.0, N_list)

    def test_near_critical_shortfall_is_finite_N(self):
        # The slope falls short of the prediction by an offset that does not
        # depend on r, as a fault in the packet's gamma^(-1/r') normalisation
        # would, and that shrinks about 4x when the N range doubles: it is
        # the finite-N correction, so near-critical fits need larger N.
        def offset(r, N_list):
            fit = growth_exponent_fit(2, 0.5, r, N_list)
            return fit.slope - fit.predicted

        low = [16, 32, 64, 128, 256]
        offsets = [offset(r, low) for r in (2.0, 1.1, 1.001)]
        assert max(offsets) - min(offsets) <= 1e-5
        assert 0.2 <= offset(2.0, [2 * N for N in low]) / offsets[0] <= 0.3

    def test_predicted_exponent_formula(self):
        assert predicted_growth_exponent(2, 0.5, 2.0) == pytest.approx(1.0)
        assert predicted_growth_exponent(3, 1.0, 2.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("j", [0, -1])
    def test_flow_index_below_one_is_rejected(self, j):
        with pytest.raises(ValueError, match=f"j >= 1, not {j}"):
            growth_exponent_fit(j, 0.5, 2.0, [16, 32, 64, 128])


BENCHMARK_FITS = [(2, 2.0, 0.5), (2, 2.0, 1.0), (3, 2.0, 1.0)]  # (j, r, s), N = 16..256


@lru_cache(maxsize=None)
def _benchmark_fit(j: int, r: float, s: float):
    return growth_exponent_fit(j, s, r, [16, 32, 64, 128, 256])


def _noisy_line() -> tuple[list[float], list[float]]:
    rng = np.random.default_rng(29)
    x = np.linspace(-1.0, 3.0, 9)
    return x.tolist(), (0.7 * x - 2.0 + 0.05 * rng.normal(size=x.size)).tolist()


def _fit_lines():
    """(x, y, the library's (slope, intercept, stderr, residuals)) of each
    benchmark fit and of a noisy synthetic line."""
    for case in BENCHMARK_FITS:
        fit = _benchmark_fit(*case)
        x, y = (np.log(np.asarray(v)).tolist() for v in (fit.N_values, fit.norms))
        yield x, y, (fit.slope, fit.intercept, fit.stderr, fit.residuals)
    x, y = _noisy_line()
    yield x, y, analysis._line_fit(x, y)


class TestGrowthFitLine:
    """The fit's closed-form line, its streamed phases and its memory."""

    @pytest.mark.dispatch
    def test_line_matches_polyfit(self):
        # np.polyfit's own line is a few ulps off the exact one, and its
        # residuals and stderr carry that error into differences of values
        # near 5 (residuals 6e-5 to 3e-3): residuals compare at 1e-12 of
        # max |y|, the stderr at 1e-11 (its largest gap here is 1.6e-12).
        for x, y, (slope, intercept, stderr, residuals) in _fit_lines():
            (want_slope, want_intercept), cov = np.polyfit(x, y, 1, cov=True)
            want_residuals = np.asarray(y) - (want_slope * np.asarray(x) + want_intercept)
            assert slope == pytest.approx(want_slope, rel=1e-12, abs=0)
            assert intercept == pytest.approx(want_intercept, rel=1e-12, abs=0)
            assert stderr == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-11, abs=0)
            gap = np.max(np.abs(np.subtract(residuals, want_residuals)))
            assert gap <= 1e-12 * max(map(abs, y))

    def test_line_matches_the_exact_least_squares(self):
        for x, y, (slope, intercept, stderr, residuals) in _fit_lines():
            want = line_fit_oracle(x, y)
            assert abs(Fraction(slope) - want.slope) <= 1e-15 * abs(want.slope)
            assert abs(Fraction(intercept) - want.intercept) <= 1e-15 * abs(want.intercept)
            assert stderr == pytest.approx(want.stderr, rel=1e-12, abs=0)
            scale = max(map(abs, y))
            for v, w in zip(residuals, want.residuals):
                assert abs(Fraction(v) - w) <= 1e-15 * scale

    @pytest.mark.dispatch
    def test_fit_runs_without_lapack(self, monkeypatch):
        # The line is closed-form: no least-squares solver is called.
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK least squares called")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        fit = growth_exponent_fit(2, 0.5, 2.0, [16, 32, 64, 128])
        assert abs(fit.slope - 1.0) <= 0.15 and np.isfinite(fit.stderr)

    @pytest.mark.dispatch
    @pytest.mark.parametrize("j,r,s", BENCHMARK_FITS)
    def test_norms_and_time_match_the_meshgrid_oracle(self, j, r, s):
        # The fit streams each packet's phase slabs for t, which must equal
        # the whole-array form bit for bit; each norm is within 1e-13 of the
        # oracle's (the largest gap is about 1e-15).
        fit = _benchmark_fit(j, r, s)
        cubic = hierarchy_cubic(j)
        data = []
        for N in fit.N_values:
            spec = PacketSpec(N=N, j=j, s=s, r=r)
            data.append(packet_datum(spec))
        assert fit.t == 0.1 / max(max_resonance_phase_oracle(j, d) for d in data)
        want = [hat_norm(picard3_oracle(j, cubic, d, fit.t), s, r) for d in data]
        assert all(abs(v - w) <= 1e-13 * w for v, w in zip(fit.norms, want))

    @pytest.mark.dispatch
    def test_memory_peak_of_the_benchmark_fits(self):
        # Keeping the five S^3 phases of a fit (0.88 MB each) peaked at
        # 6.2 MB; the streamed slabs stay under 3 MB.
        def fits():
            for j, r, s in BENCHMARK_FITS:
                growth_exponent_fit(j, s, r, [16, 32, 64, 128, 256])

        fits()  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            fits()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


class TestResonanceStats:
    def test_resonant_triple_is_discarded(self):
        s = resonance_sample_oracle(1.0, 1.0, 2.0, 4.0)
        assert s.lhs == 0.0 and s.rhs == 0.0

    def test_explicit_sample(self):
        s = resonance_sample_oracle(1.0, -1.0, 1.0, 4.0)
        assert s.lhs == pytest.approx(80.0)
        assert s.rhs == pytest.approx(36.0)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_matches_scalar_oracle_on_the_same_draws(self, j):
        count, seed = 4000, 10 + j
        stats = resonance_ratio_stats(j, count, seed)
        draws = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(3, count))
        # The library negates the middle draw to sample xi2.
        samples = [resonance_sample_oracle(float(a), -float(b), float(c), 2.0 * j)
                   for a, b, c in draws.T]
        ratios = [s.lhs / s.rhs for s in samples if s.rhs >= 1e-9]
        assert stats.count_kept == len(ratios)
        assert stats.min_ratio == pytest.approx(min(ratios), rel=1e-12)
        assert stats.median_ratio == pytest.approx(float(np.median(ratios)), rel=1e-12)

    def test_past_the_float_range_is_nan_without_warnings(self):
        # |xi|^(2j) overflows to inf for j = 5000; tier-1 turns a numpy
        # RuntimeWarning into a failure, so this also checks none is raised.
        assert np.isnan(resonance_ratio_stats(5000, 5, 0).min_ratio)

    def test_a_draw_that_keeps_nothing_is_nan(self):
        # max(|xi|, ...)^(2j - 2) underflows for j = 1000, so the one triple's
        # rhs is below 1e-9 and no ratio is kept.
        stats = resonance_ratio_stats(1000, 1, 1)
        assert stats.count_kept == 0
        assert np.isnan(stats.min_ratio) and np.isnan(stats.median_ratio)

    @pytest.mark.dispatch
    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_blocks_match_the_whole_draw(self, blocks, extra, j, seed):
        # Counts 1, B - 1, B, B + 1 and 3B + 7 for the block size B: a wrong
        # stream offset or a lost column at a block boundary changes the
        # kept count or the statistics.
        count = blocks * analysis._RESONANCE_BLOCK + extra
        # Equal dataclasses: count_kept, min_ratio and median_ratio compare with ==.
        assert resonance_ratio_stats(j, count, seed) == resonance_stats_oracle(j, count, seed)

    @pytest.mark.dispatch
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_blocks_keep_the_whole_draws_ratios(self, blocks, extra, j):
        # Element by element and byte for byte, at the counts above.  The
        # controls change the whole draw in one way each: the middle row not
        # negated, or negated but starting one output early.
        count, seed = blocks * analysis._RESONANCE_BLOCK + extra, 3
        ratios = np.concatenate(list(analysis._kept_ratios(j, count, seed)))
        assert ratios.tobytes() == resonance_ratios_oracle(j, count, seed).tobytes()
        flat = np.random.default_rng(seed).uniform(-1.0, 1.0, 3 * count)
        unnegated, early = flat.reshape(3, count), flat.reshape(3, count).copy()
        early[1] = -flat[count - 1:2 * count - 1]
        for control in (unnegated, early):
            assert resonance_triple_ratios(j, control).tobytes() != ratios.tobytes()

    @staticmethod
    def _count_passes(monkeypatch) -> list:
        """Record each pass over the draw; a second pass is the whole-draw fallback."""
        passes = []
        kept_ratios = analysis._kept_ratios

        def counted(*args):
            passes.append(args)
            return kept_ratios(*args)

        monkeypatch.setattr(analysis, "_kept_ratios", counted)
        return passes

    @pytest.mark.dispatch
    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_streamed_median_matches_the_whole_draw(self, monkeypatch, j, seed):
        # 10^6 samples narrow the bracket several times; one pass means the
        # median came from the held ratios, not from the fallback.
        passes = self._count_passes(monkeypatch)
        count = 10 ** 6
        assert resonance_ratio_stats(j, count, seed) == resonance_stats_oracle(j, count, seed)
        assert len(passes) == 1

    @pytest.mark.dispatch
    @pytest.mark.parametrize("seed", [0, 17])
    def test_a_missed_bracket_falls_back_to_the_whole_draw(self, monkeypatch, seed):
        # With no sigmas the bracket narrows to four ranks after three
        # blocks and misses the median of seven: the second pass must give
        # the same statistics.  The block and cap are the 2^14 and 2^15 this
        # was written for: at 2^13 columns seed 0 keeps its median in one pass.
        passes = self._count_passes(monkeypatch)
        monkeypatch.setattr(analysis, "_RESONANCE_SIGMAS", 0)
        monkeypatch.setattr(analysis, "_RESONANCE_BLOCK", 1 << 14)
        monkeypatch.setattr(analysis, "_RESONANCE_HELD", 1 << 15)
        count = 7 * analysis._RESONANCE_BLOCK
        assert resonance_ratio_stats(2, count, seed) == resonance_stats_oracle(2, count, seed)
        assert len(passes) == 2

    @pytest.mark.dispatch
    def test_memory_does_not_grow_with_the_count(self):
        # The whole-array form holds 8 B per kept sample: about 10 MB at
        # 10^6 and 34 MB at 4 * 10^6; the 2^13-column blocks peak at 1.3 MB.
        resonance_ratio_stats(2, 10 ** 5, 0)  # first-call allocations stay out of the peaks
        peaks = []
        for count in (10 ** 6, 4 * 10 ** 6):
            tracemalloc.start()
            try:
                resonance_ratio_stats(2, count, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 2e6
        assert abs(peaks[1] - peaks[0]) <= 0.5e6

    @pytest.mark.dispatch
    def test_min_ratio_meets_the_face_minimum(self):
        # |Phi| >= c |xi1 - xi2| |xi2 - xi3| max|xi|^(2j-2) at j = 2 holds with
        # c = 12/7, the ratio's exact minimum, at (xi1, xi2, xi3) = (-1, -1/7, 5/7);
        # every seed's minimum comes within 0.1% of it, so a constant 0.1%
        # larger fails.
        face = 12 / 7
        mins = [resonance_ratio_stats(2, 10 ** 6, seed).min_ratio for seed in range(8)]
        assert all(v >= face * (1 - 1e-6) for v in mins)
        assert all(v < 1.001 * face for v in mins)

    def test_min_positive_and_stable(self):
        mins = [resonance_ratio_stats(2, 10 ** 5, seed=s).min_ratio for s in range(3)]
        assert all(v > 0 for v in mins)
        spread = (max(mins) - min(mins)) / np.mean(mins)
        assert spread <= 0.2

    def test_count_validated(self):
        with pytest.raises(ValueError):
            resonance_ratio_stats(2, 0, seed=0)

    @pytest.mark.parametrize("j", [0, -1])
    def test_flow_index_below_one_is_rejected(self, j):
        with pytest.raises(ValueError, match=f"j >= 1, not {j}"):
            resonance_ratio_stats(j, 100, 0)


@pytest.mark.dispatch
class TestLipschitzProbe:
    def test_parameter_restriction(self):
        with pytest.raises(ValueError):
            gauge_lipschitz_probe(0.1, 4.0, 0.1, trials=2)

    def test_finite_and_monotone_under_radius_doubling(self):
        small = gauge_lipschitz_probe(0.6, 4.0, 0.1, trials=40, seed=2)
        big = gauge_lipschitz_probe(0.6, 4.0, 0.2, trials=40, seed=2)
        assert np.isfinite(small.max_ratio) and np.isfinite(big.max_ratio)
        assert small.pairs_used > 0
        assert big.max_ratio >= small.max_ratio  # larger ball cannot shrink the sup
        assert big.max_ratio <= 20 * small.max_ratio

    @pytest.mark.parametrize("seed", [15, 222])
    def test_random_fields_decay_at_the_boundary(self, seed):
        # With a window of width L/12 these seeds put 1.2e-8 on the boundary
        # points at radius 0.2, past gauge_apply_numeric's 1e-8 tolerance.
        probe = gauge_lipschitz_probe(0.6, 4.0, 0.2, trials=60, seed=seed)
        assert np.isfinite(probe.max_ratio) and probe.pairs_used == 60

    @pytest.mark.parametrize("radius", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_matches_the_trial_by_trial_oracle(self, seed, radius):
        # Equal dataclasses: max_ratio and pairs_used compare with ==.
        assert (gauge_lipschitz_probe(0.6, 4.0, radius, trials=60, seed=seed)
                == lipschitz_probe_oracle(0.6, 4.0, radius, trials=60, seed=seed))

    @pytest.mark.parametrize("radius", [0.1, 0.2])
    def test_check_probe_calls_match_the_oracle(self, radius):
        # The calls of `check --probe`, with an int p.
        assert (gauge_lipschitz_probe(0.6, 4, radius, trials=60, seed=0)
                == lipschitz_probe_oracle(0.6, 4, radius, trials=60, seed=0))

    @pytest.mark.parametrize("seed", range(3))
    def test_skipped_pairs_match_the_oracle(self, seed):
        # At radius 1e-12 some pairs have ||u - v|| < 1e-12 and are skipped.
        probe = gauge_lipschitz_probe(0.6, 4.0, 1e-12, trials=20, seed=seed)
        assert 0 < probe.pairs_used < 20
        assert probe == lipschitz_probe_oracle(0.6, 4.0, 1e-12, trials=20, seed=seed)

    @pytest.mark.parametrize("radius", [1e7, 8e5])
    def test_boundary_failure_names_the_same_field(self, radius):
        # At 1e7 every field fails and u0 is named; at 8e5 (seed 0) u0 is
        # within the tolerance and a later field is the first to fail.
        messages = []
        for probe in (gauge_lipschitz_probe, lipschitz_probe_oracle):
            with pytest.raises(BoundaryDecayViolation) as err:
                probe(0.6, 4.0, radius, trials=60, seed=0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_validated(self, trials):
        # No trial would give max_ratio 0.0 from no pairs, a perfect-looking bound.
        with pytest.raises(ValueError, match="trials must be positive"):
            gauge_lipschitz_probe(0.6, 4, 0.1, trials=trials)

    @pytest.mark.parametrize("radius", [0.0, -0.1, np.inf, np.nan])
    def test_radius_validated(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            gauge_lipschitz_probe(0.6, 4, radius, trials=2)
