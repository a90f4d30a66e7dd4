import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dnls_hierarchy import spectral
from dnls_hierarchy.algebra import DiffPoly, GaussianRational
from dnls_hierarchy.gauge import derive_gauged
from dnls_hierarchy.hierarchy import build_hierarchy_equation, hamiltonian_density
from dnls_hierarchy.spectral import (
    BlowupDetected,
    ConfigError,
    ConservedFunctional,
    Field,
    Grid,
    NonlinearEvaluator,
    SimConfig,
    compile_evaluator,
    gaussian_bump,
    linear_propagate,
    plane_wave_nonlinearity,
    plane_wave_reference,
    plane_wave_sign,
    read_snapshot,
    simulate,
    write_snapshot,
)
from conftest import (convolution_oracle, expand_schedule, l2_distance, per_factor_products,
                      per_order_rows, random_band_field)

GR = GaussianRational.of


class TestGridAndField:
    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            Grid(12)
        with pytest.raises(ConfigError):
            Grid(100)  # not a power of two
        with pytest.raises(ConfigError):
            Grid(64, -1.0)

    def test_wavenumber_layout(self):
        g = Grid(16, 2 * np.pi)
        assert g.wavenumbers[0] == 0
        assert g.wavenumbers[1] == 1
        assert g.wavenumbers[-1] == -1
        assert g.wavenumbers.min() == -8

    def test_coefficient_round_trip(self):
        g = Grid(32)
        f = random_band_field(g, 10, seed=1)
        back = Field.from_coefficients(g, f.coefficients())
        assert np.allclose(back.values, f.values, atol=1e-14)

    def test_field_shape_checked(self):
        with pytest.raises(ConfigError):
            Field(Grid(32), np.zeros(16))


class TestEvaluator:
    def test_zero_polynomial(self):
        g = Grid(32)
        ev = compile_evaluator(DiffPoly.zero())
        out = ev(random_band_field(g, 5, seed=0))
        assert np.all(out.values == 0)

    def test_single_mode_shortcut(self):
        # i dx(u^2 conj(u)) on A e^{iNx} equals -N |A|^2 A e^{iNx}
        g = Grid(64)
        N, A = 3, 0.7 - 0.4j
        eq = build_hierarchy_equation(1, 2)
        ev = compile_evaluator(eq.nonlinearity)
        f = Field(g, A * np.exp(1j * N * g.x))
        out = ev(f)
        expected = -N * abs(A) ** 2 * A * np.exp(1j * N * g.x)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    @pytest.mark.parametrize("m", [32, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_convolution_oracle(self, m, seed):
        g = Grid(m, 2 * np.pi)
        nl = build_hierarchy_equation(3, 8).nonlinearity  # cubic+quintic+septic
        ev = compile_evaluator(nl)
        f = random_band_field(g, m // 6, seed=seed)
        got = np.fft.fft(ev(f).values) / m
        want = convolution_oracle(nl, f)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_truncate_agrees_on_well_resolved_data(self):
        g = Grid(128, 2 * np.pi)
        nl = build_hierarchy_equation(1, 2).nonlinearity
        f = random_band_field(g, 8, seed=4)
        pad = compile_evaluator(nl, "pad")(f).values
        tr = compile_evaluator(nl, "truncate")(f).values
        assert np.max(np.abs(pad - tr)) < 1e-12 * np.max(np.abs(pad))

    def test_phase_imbalance_rejected(self):
        with pytest.raises(ConfigError):
            compile_evaluator(DiffPoly.variable("q") * DiffPoly.variable("r"))

    def test_unknown_dealias_rejected(self):
        with pytest.raises(ConfigError, match="dealias must be"):
            NonlinearEvaluator(build_hierarchy_equation(1).nonlinearity, "bogus")


def _flow_nonlinearity(j: int, gauged: bool) -> DiffPoly:
    eq = build_hierarchy_equation(2 * j - 1)
    return (derive_gauged(eq).gauged if gauged else eq).nonlinearity


# The jth flow, plain for j = 1..3 and gauged for j = 2, 3.
FLOWS = [(1, False), (2, False), (3, False), (2, True), (3, True)]


class TestAliasFreePad:
    """A flat spectrum on the full band puts weight on every mode a product of
    K factors reaches, so any fold of an unretained mode onto a retained one
    shows; decaying, narrow-band data hide it."""

    @staticmethod
    def _relative_error(j, gauged, m):
        nl = _flow_nonlinearity(j, gauged)
        f = random_band_field(Grid(m), m // 2, seed=j, decay=0)
        got = compile_evaluator(nl).rhs_coefficients(f.grid, f.coefficients())
        want = convolution_oracle(nl, f)
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    def test_pad_length_is_the_least_5_smooth_length_above_the_bound(self):
        # (K+1)(m/2) for K = 1, 3, 5, 7, 8, 11, 13 factors; 7m = 448 has the
        # factor 7, so K = 13 takes 450.
        m = 64
        assert [spectral._pad_length(m, k) for k in (1, 3, 5, 7, 8, 11, 13)] == [
            m, 2 * m, 3 * m, 4 * m, 288, 6 * m, 450]

    @pytest.mark.parametrize("m", [32, 64])
    @pytest.mark.parametrize("j,gauged", FLOWS)
    def test_full_band_matches_convolution_oracle(self, j, gauged, m):
        assert self._relative_error(j, gauged, m) <= 1e-12

    @pytest.mark.parametrize("m", [32, 64])
    @pytest.mark.parametrize("j,gauged", FLOWS)
    def test_half_the_pad_aliases(self, monkeypatch, j, gauged, m):
        pad_length = spectral._pad_length
        monkeypatch.setattr(spectral, "_pad_length", lambda m, k: pad_length(m, k) // 2)
        assert self._relative_error(j, gauged, m) > 1e-6

    @pytest.mark.parametrize("dealias", ["pad", "truncate"])
    @pytest.mark.parametrize("j,gauged", FLOWS)
    def test_batched_synthesis_is_bit_identical_per_factor(self, j, gauged, dealias):
        # The synthesised rows are bit for bit the per-order transforms; the
        # schedule only reorders the products and the sum of the terms.
        ev = compile_evaluator(_flow_nonlinearity(j, gauged), dealias)
        g = Grid(64)
        c = random_band_field(g, 20, seed=j).coefficients()
        xi, table = ev._grid(g)
        p = ev.pad_length(g)
        orders = sorted({order for _, f in ev.lowered_terms for _, order in f})
        want = per_order_rows(orders, c, xi, p)
        rows = spectral._synthesise(c, table, p)
        assert len(rows) == len(orders)
        assert all(np.array_equal(row, want[k]) for k, row in zip(orders, rows))
        oracle = per_factor_products(ev.lowered_terms, c, xi, p)
        got = ev._products(c, table, p)
        assert np.linalg.norm(got - oracle) <= 1e-14 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_hierarchy_pad_evaluates_the_primitive(self, j):
        nl = _flow_nonlinearity(j, False)
        ev = compile_evaluator(nl, "pad")
        assert ev.primitive is not None and ev.primitive.dx() == nl
        assert len(ev.lowered_terms) == len(ev.primitive.items()) < len(nl.items())
        assert compile_evaluator(nl, "truncate").primitive is None

    @pytest.mark.parametrize("j", [2, 3])
    def test_gauged_pad_evaluates_the_nonlinearity(self, j):
        ev = compile_evaluator(_flow_nonlinearity(j, True), "pad")
        assert ev.primitive is None
        assert len(ev.lowered_terms) == len(ev.nl.items())

    @pytest.mark.hash_order
    def test_gauged_pad_stops_at_the_first_block_without_a_primitive(self, monkeypatch):
        from dnls_hierarchy import algebra

        nl = _flow_nonlinearity(3, True)
        calls = []
        homotopy = algebra._homotopy
        monkeypatch.setattr(algebra, "_homotopy",
                            lambda block, degree: calls.append(degree) or homotopy(block, degree))
        assert compile_evaluator(nl, "pad").primitive is None
        assert len(calls) == 1


def _compiled(label):
    kind, j = label
    if kind == "functional":
        return ConservedFunctional(j)
    if kind == "zero":
        return compile_evaluator(DiffPoly.zero())
    return compile_evaluator(_flow_nonlinearity(j, kind == "gauged"),
                             "truncate" if kind == "truncate" else "pad")


COMPILED = ([("plain", j) for j in (1, 2, 3, 4)] + [("gauged", j) for j in (1, 2, 3)]
            + [("truncate", 3), ("zero", 0)] + [("functional", n) for n in range(-1, 6)])


class TestProductSchedule:
    @pytest.mark.parametrize("label", COMPILED)
    def test_schedule_expands_to_the_lowered_terms(self, label):
        ev = _compiled(label)
        assert sorted(expand_schedule(ev.schedule), key=lambda t: t[1]) == sorted(
            ev.lowered_terms, key=lambda t: t[1])
        if label[0] != "functional" and label[1] >= 2:
            assert ev.multiplies < sum(len(f) for _, f in ev.lowered_terms)

    def test_operation_counts(self):
        # Array multiplies plus one add per term after the first, per call;
        # term by term these are 30, 140, 264 and 508.
        evs = {label: _compiled(label) for label in
               [("plain", 2), ("plain", 3), ("gauged", 3), ("plain", 4)]}
        assert {label: ev.multiplies + len(ev.lowered_terms) - 1 for label, ev in evs.items()} == {
            ("plain", 2): 21, ("plain", 3): 80, ("gauged", 3): 135, ("plain", 4): 243}

    def test_simulation_does_not_depend_on_the_hash_seed(self):
        # At amplitude 0.5 the nonlinear term reaches the last bits of the
        # field (at 0.2 it does not), so a schedule that followed a set's
        # iteration order would change the bytes.
        script = (
            "import sys, numpy as np\n"
            "from dnls_hierarchy import gauge, hierarchy, spectral as S\n"
            "nl = gauge.derive_gauged(hierarchy.build_hierarchy_equation(5)).gauged.nonlinearity\n"
            "u0 = S.gaussian_bump(S.Grid(64, 16 * np.pi), 0.5, 3.0)\n"
            "res = S.simulate(S.SimConfig(j=3, dt=1e-3, t_end=0.004), u0, S.compile_evaluator(nl))\n"
            "sys.stdout.buffer.write(res.field.values.tobytes())\n"
        )
        src = str(Path(spectral.__file__).parents[1])
        finals = [subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)).stdout
            for seed in ("0", "4242")]
        assert len(finals[0]) == 16 * 64 and finals[0] == finals[1]


class TestLinearPropagate:
    def test_t_zero_is_identity(self):
        g = Grid(64)
        f = random_band_field(g, 10, seed=2)
        assert np.allclose(linear_propagate(f, 2, 0.0).values, f.values, atol=1e-14)

    def test_single_mode_phase(self):
        g = Grid(64)
        N, t = 3, 0.21
        f = Field(g, np.exp(1j * N * g.x))
        out = linear_propagate(f, 2, t)
        expected = np.exp(1j * (N * g.x - N ** 4 * t))
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_l2_preserved(self):
        g = Grid(64)
        f = random_band_field(g, 12, seed=3)
        assert abs(linear_propagate(f, 3, 0.4).l2_norm() - f.l2_norm()) < 1e-13


class TestSimulate:
    def test_zero_nonlinearity_matches_linear_flow(self):
        g = Grid(128, 8 * np.pi)
        u0 = gaussian_bump(g, 0.5, 1.0)
        res = simulate(SimConfig(j=2, dt=1e-3, t_end=0.05), u0, None)
        ref = linear_propagate(u0, 2, 0.05)
        assert l2_distance(res.field, ref) < 1e-12

    def test_plane_wave_family_reproduced(self):
        g = Grid(128, 2 * np.pi)
        nl = compile_evaluator(plane_wave_nonlinearity(2))
        u0 = plane_wave_reference(2, 4, 1.0, 1.0, 0.0, g)
        ref = lambda t: plane_wave_reference(2, 4, 1.0, 1.0, t, g)
        res = simulate(SimConfig(j=2, dt=1e-4, t_end=0.01), u0, nl, reference=ref)
        assert res.l2_errors[-1] < 1e-7

    def test_etdrk4_matches_ifrk4(self):
        g = Grid(128, 16 * np.pi)
        eq = build_hierarchy_equation(3, 8)
        nl = compile_evaluator(eq.nonlinearity)
        u0 = gaussian_bump(g, 0.4, 2.0)
        a = simulate(SimConfig(j=2, dt=5e-4, t_end=0.02), u0, nl).field
        b = simulate(SimConfig(j=2, dt=5e-4, t_end=0.02, integrator="ETDRK4"), u0, nl).field
        assert l2_distance(a, b) < 1e-8

    def test_blowup_detection(self):
        g = Grid(128, 16 * np.pi)
        eq = build_hierarchy_equation(3, 8)
        u0 = gaussian_bump(g, 2.5, 1.0)
        with pytest.raises(BlowupDetected):
            simulate(
                SimConfig(j=2, dt=5e-2, t_end=5.0, monitors=(-1,), monitor_stride=1),
                u0,
                compile_evaluator(eq.nonlinearity),
            )

    def test_non_finite_datum_is_a_blowup_without_warnings(self):
        g = Grid(64)
        u0 = Field(g, np.full(g.m, np.inf))
        nl = compile_evaluator(build_hierarchy_equation(1).nonlinearity)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupDetected, match="t = 0"):
                simulate(SimConfig(j=1, dt=0.01, t_end=0.02), u0, nl)

    @pytest.mark.parametrize("compiled,configured", [("pad", "truncate"), ("truncate", "pad")])
    def test_dealias_mismatch_is_a_config_error(self, compiled, configured):
        g = Grid(64)
        nl = compile_evaluator(build_hierarchy_equation(1).nonlinearity, compiled)
        cfg = SimConfig(j=1, dt=0.01, t_end=0.02, dealias=configured)
        with pytest.raises(ConfigError, match=f"'{compiled}'.*'{configured}'"):
            simulate(cfg, gaussian_bump(g, 0.5, 1.0), nl)

    def test_carrier_grid_rejected(self):
        u0 = gaussian_bump(Grid(64, xi0=1.0), 0.5, 1.0)
        with pytest.raises(ConfigError, match="simulation requires a grid without carrier"):
            simulate(SimConfig(j=1, dt=0.01, t_end=0.02), u0, None)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(j=0, dt=1e-3, t_end=0.1)
        with pytest.raises(ConfigError):
            SimConfig(j=2, dt=-1e-3, t_end=0.1)
        with pytest.raises(ConfigError):
            SimConfig(j=2, dt=1e-3, t_end=0.1, integrator="EULER")
        with pytest.raises(ConfigError):
            SimConfig(j=2, dt=3e-3, t_end=0.01)  # non-integer step count
        with pytest.raises(ConfigError, match="dealias must be"):
            SimConfig(j=2, dt=1e-3, t_end=0.1, dealias="bogus")

    @pytest.mark.parametrize("dt,t_end", [
        (float("nan"), 0.1), (float("inf"), 0.1), (1e-3, float("inf")), (1e-3, float("nan")),
        (1e-320, 0.1),  # finite times, but t_end / dt overflows
    ])
    def test_non_finite_times_rejected(self, dt, t_end):
        with pytest.raises(ConfigError, match="finite"):
            SimConfig(j=2, dt=dt, t_end=t_end)


class TestConservedFunctionals:
    def test_index_validated(self):
        with pytest.raises(ValueError, match="index must be >= -1"):
            ConservedFunctional(-2)

    def test_mass_of_plane_wave(self):
        g = Grid(64)
        f = Field(g, np.exp(1j * 5 * g.x))
        assert abs(ConservedFunctional(-1)(f) - 2 * np.pi) < 1e-12

    def test_i1_closed_form_on_plane_wave(self):
        g = Grid(64)
        N, A = 4, 0.9 + 0.1j
        f = Field(g, A * np.exp(1j * N * g.x))
        got = ConservedFunctional(1)(f)
        expected = 2 * np.pi * (0.25 * (-1j * N) * abs(A) ** 2 + 0.125j * abs(A) ** 4)
        assert abs(got - expected) < 1e-12

    @pytest.mark.parametrize("n", range(6))
    def test_matches_convolution_oracle(self, n):
        # 2(n+1) factors with |k| <= 20 reach |k| = 40(n+1); from n = 1 on that
        # exceeds 64, so a quadrature on the unpadded grid aliases.
        g = Grid(64)
        f = random_band_field(g, 20, seed=0)
        want = g.length * convolution_oracle(hamiltonian_density(n), f)[0]
        assert abs(ConservedFunctional(n)(f) - want) <= 1e-12 * abs(want)

    def test_dnls_mass_drift(self):
        g = Grid(256, 32 * np.pi)
        eq = build_hierarchy_equation(1, 2)
        u0 = gaussian_bump(g, 0.25, 3.0)
        res = simulate(
            SimConfig(j=1, dt=5e-4, t_end=0.1, monitors=(-1,), monitor_stride=20),
            u0,
            compile_evaluator(eq.nonlinearity),
        )
        mass = res.monitors[-1]
        assert np.max(np.abs(mass - mass[0])) < 1e-10

    def test_short_run_drift_is_tiny(self):
        g = Grid(256, 32 * np.pi)
        eq = build_hierarchy_equation(3, 8)
        u0 = gaussian_bump(g, 0.25, 3.0)
        res = simulate(
            SimConfig(j=2, dt=1e-3, t_end=0.05, monitors=(-1, 2), monitor_stride=10),
            u0,
            compile_evaluator(eq.nonlinearity),
        )
        mass = res.monitors[-1]
        i2 = res.monitors[2]
        assert np.max(np.abs(mass - mass[0])) < 1e-11
        assert np.max(np.abs(i2 - i2[0])) / abs(i2[0]) < 1e-8

    def test_apriori_quadratic_form_dominates(self):
        # Im I_2 controls the homogeneous H^1 energy for small-mass data.
        g = Grid(256, 32 * np.pi)
        eq = build_hierarchy_equation(3, 8)
        u0 = gaussian_bump(g, 0.25, 3.0)
        res = simulate(
            SimConfig(j=2, dt=1e-3, t_end=0.1, monitors=(2,), monitor_stride=25),
            u0,
            compile_evaluator(eq.nonlinearity),
        )
        xi = g.wavenumbers
        c = res.field.coefficients()
        h1_dot = float(g.length * np.sum(np.abs(1j * xi * c) ** 2))
        for value in res.monitors[2]:
            assert value.imag >= h1_dot / 16


class TestPlaneWaveOracle:
    @pytest.mark.parametrize("j,expected", [(1, -1), (2, 1), (3, -1), (4, 1)])
    def test_sign_alternates_with_parity(self, j, expected):
        assert plane_wave_sign(j) == expected

    def test_family_at_t0(self):
        g = Grid(64)
        f = plane_wave_reference(2, 4, 0.5j, 1.5, 0.0, g)
        expected = 4 ** (-1.5) * 0.5j * np.exp(1j * 4 * g.x)
        assert np.max(np.abs(f.values - expected)) < 1e-14

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            plane_wave_reference(2, 0, 1.0, 1.0, 0.0, Grid(64))

    def test_wrong_sign_fails_to_solve(self):
        g = Grid(128, 2 * np.pi)
        nl = compile_evaluator(plane_wave_nonlinearity(2).scale(-1))
        u0 = plane_wave_reference(2, 4, 1.0, 1.0, 0.0, g)
        ref = lambda t: plane_wave_reference(2, 4, 1.0, 1.0, t, g)
        res = simulate(SimConfig(j=2, dt=1e-4, t_end=0.01), u0, nl, reference=ref)
        assert res.l2_errors[-1] > 1e-4


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        g = Grid(64, 16 * np.pi)
        f = random_band_field(g, 9, seed=7)
        f.time = 0.75
        path = tmp_path / "state.bin"
        write_snapshot(path, f, 3)
        back, j = read_snapshot(path)
        assert j == 3
        assert back.time == 0.75
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_failed_write_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "state.bin"
        write_snapshot(path, random_band_field(Grid(32), 5, seed=1), 2)
        before = path.read_bytes()
        replacement = random_band_field(Grid(64), 5, seed=2)

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        # The header is written, then the payload fails.
        monkeypatch.setattr(np, "ascontiguousarray", disk_full)
        with pytest.raises(OSError, match="disk full"):
            write_snapshot(path, replacement, 3)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(bytes(range(20)))
        with pytest.raises(ConfigError, match="header"):
            read_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "state.bin"
        write_snapshot(path, random_band_field(Grid(32), 5, seed=1), 2)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="payload"):
            read_snapshot(path)

    @pytest.mark.parametrize("m,length", [(12, 1.0), (48, 1.0), (64, 0.0), (64, float("nan"))])
    def test_bad_header_rejected(self, tmp_path, m, length):
        path = tmp_path / "state.bin"
        path.write_bytes(struct.pack("<qdqd", m, length, 2, 0.0) + bytes(16 * m))
        with pytest.raises(ConfigError):
            read_snapshot(path)
