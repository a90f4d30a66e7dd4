"""The benchmark's three workloads, each a list of operations on the public API.

A workload has ``prepare(seed, workdir)``, run once per unit before the timed
part (its time is part of ``setup_s``), and a list of operations.  Each
operation is ``(name, run, check)``: ``run(state, outputs)`` is timed and
returns its output, ``check(state, outputs)`` runs after the timed part and returns
``(ok, detail)``.  Checks compare against values the benchmark computes
itself or against properties the method must have, never against stored
output.

Importing this module imports numpy and the package, so a unit times the
import as set-up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import dnls_hierarchy  # noqa: F401  (loads every layer, as the CLI does)
from dnls_hierarchy import algebra as A
from dnls_hierarchy import analysis as N
from dnls_hierarchy import gauge as G
from dnls_hierarchy import hierarchy as H
from dnls_hierarchy import reference as R
from dnls_hierarchy import spectral as S

# Module attributes are looked up at call time (``H.compute_Y(...)``), so
# the traced run sees every call through the tracer's wrappers.

STRUCTURE_N = range(1, 14)
CUBICS_N = range(1, 10)
GAUGE_J = range(1, 6)
TWIST_ROUND_TRIP_J = range(1, 5)


# ---------------------------------------------------------------------------
# Exact Gaussian rationals as (re, im) Fraction pairs, apart from algebra.py
# ---------------------------------------------------------------------------

def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gpow_two_i(k: int):
    """(2i)^k for any integer k."""
    z = (Fraction(1), Fraction(0))
    base = (Fraction(0), Fraction(2)) if k >= 0 else (Fraction(0), Fraction(-1, 2))
    for _ in range(abs(k)):
        z = _gmul(z, base)
    return z


def _pair(c) -> tuple[Fraction, Fraction]:
    return (Fraction(c.re), Fraction(c.im))


def closed_form_bad_cubic(n: int, k: int, alpha) -> tuple[Fraction, Fraction]:
    """4 (-1)^(n+1) alpha / (2i)^(n+2) * (C(n+2, k+1) - d_{0k} - d_{nk}),
    halved when the two q slots coincide (k = n - k)."""
    count = math.comb(n + 2, k + 1) - (k == 0) - (k == n)
    scale = Fraction(4 * (-1) ** (n + 1) * count, 2 if 2 * k == n else 1)
    z = _gmul(alpha, _gpow_two_i(-(n + 2)))
    return (z[0] * scale, z[1] * scale)


def _is_bad_cubic(factors) -> bool:
    """Three factors, two q-type, and the conjugated factor underived."""
    return (len(factors) == 3 and sum(v == "q" for v, _ in factors) == 2
            and ("r", 0) in factors)


# ---------------------------------------------------------------------------
# derive: the exact-arithmetic traffic of `check` and `gauge`
# ---------------------------------------------------------------------------

def derive_prepare(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    re, im = rng.integers(1, 10, size=2) * rng.choice([-1, 1], size=2)
    den_re, den_im = rng.integers(1, 10, size=2)
    alpha = A.GaussianRational(Fraction(int(re), int(den_re)), Fraction(int(im), int(den_im)))
    return {"alpha": alpha}


def _derive_structure(st, out):
    return [H.check_Y_properties(n) for n in STRUCTURE_N]


def _check_structure(st, out):
    bad = []
    for rep in out["structure"]:
        n = rep.n
        y = H.compute_Y(n)
        shape = all(
            len(f) and sum(2 * o + 1 for _, o in f) == 2 * n + 1
            and sum(v == "r" for v, _ in f) == sum(v == "q" for v, _ in f) + 1
            for f, _ in y.items()
        )
        minus_n1 = _gpow_two_i(-(n + 1))
        single = _pair(y.coefficient((("r", n),)))
        if not (rep.items_1_to_4_pass and shape and rep.n_terms == len(y)
                and single == (-minus_n1[0], -minus_n1[1])
                and rep.matches_minus_n_plus_1_exponent and not rep.matches_minus_n_exponent):
            bad.append(n)
    return not bad, f"failing n: {bad}" if bad else f"n = 1..{STRUCTURE_N[-1]}"


def _derive_cubics(st, out):
    return [H.verify_bad_cubics(n, st["alpha"]) for n in CUBICS_N]


def _check_cubics(st, out):
    alpha = _pair(st["alpha"])
    bad = []
    for chk in out["cubics"]:
        n = chk.n
        want = {min(k, n - k): closed_form_bad_cubic(n, min(k, n - k), alpha) for k in range(n + 1)}
        got = {k: _pair(c) for k, c in chk.observed.items()}
        if got != want or not chk.matches:
            bad.append(n)
    return not bad, f"failing n: {bad}" if bad else f"alpha = {alpha[0]} + {alpha[1]}i"


def _derive_goldens(st, out):
    return ([R.compare_hierarchy_equation(n) for n in R.REFERENCE_HIERARCHY_RANGE],
            [R.compare_gauged_equation(j) for j in R.REFERENCE_GAUGED_RANGE])


def _check_goldens(st, out):
    hier, gauged = out["goldens"]
    flagged = gauged[-1]
    ok = (all(d.matches for d in hier) and all(d.matches for d in gauged)
          and len(flagged.allowed) == 1 and len(flagged.notes) == 1)
    return ok, flagged.notes[0] if flagged.notes else "flagged quintic not reported"


def _derive_cancellation(st, out):
    return {j: G.derive_gauged(H.build_hierarchy_equation(2 * j - 1, 2 ** (2 * j - 1)))
            for j in GAUGE_J}


def _check_cancellation(st, out):
    q, r = A.DiffPoly.variable("q"), A.DiffPoly.variable("r")
    bad = []
    for j, gd in out["cancellation"].items():
        eq, nl = gd.source, gd.gauged.nonlinearity
        # Mass flux q_t r + q r_t with q_t = -i (N - g d^(2j) q).
        qt = (eq.nonlinearity - A.DiffPoly.monomial(eq.lhs_coeff, (("q", 2 * j),))).scale(
            A.GaussianRational.of(0, -1))
        flux = qt * r + q * qt.conj()
        ok = (gd.phase_time_derivative.dx() == flux
              and G.is_gauged_form(gd.gauged) and not gd.residual_bad_cubics
              and not any(_is_bad_cubic(f) for f, _ in nl.items()))
        if j in TWIST_ROUND_TRIP_J:
            ok = ok and G.twist_substitute(G.twist_substitute(nl, -1), +1) == nl
        if not ok:
            bad.append(j)
    return not bad, f"failing j: {bad}" if bad else f"j = 1..{GAUGE_J[-1]}"


DERIVE = [
    ("structure", _derive_structure, _check_structure),
    ("cubics", _derive_cubics, _check_cubics),
    ("goldens", _derive_goldens, _check_goldens),
    ("cancellation", _derive_cancellation, _check_cancellation),
]


# ---------------------------------------------------------------------------
# evolve: the pseudospectral solver of `simulate` and `norms`
# ---------------------------------------------------------------------------

PLANE_WAVE = {"j": 2, "N": 4, "s": 1.0}


def evolve_prepare(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    eq2 = H.build_hierarchy_equation(3, 8)
    eq3 = H.build_hierarchy_equation(5, 32)
    gd3 = G.derive_gauged(eq3)
    wide = S.Grid(256, 32 * np.pi)
    periodic = S.Grid(128, 2 * np.pi)
    amp_pw = rng.uniform(0.8, 1.2) * np.exp(2j * np.pi * rng.uniform())
    return {
        "grid": wide,
        "pw_grid": periodic,
        "u2": S.gaussian_bump(wide, rng.uniform(0.22, 0.28), rng.uniform(2.7, 3.3),
                              center=wide.length / 2 + rng.uniform(-2, 2)),
        # Centred and wide enough that what the sixth-order flow radiates
        # stays far below the numeric gauge's boundary tolerance.
        "u3": S.gaussian_bump(wide, rng.uniform(0.18, 0.22), rng.uniform(3.2, 3.6)),
        "pw_a": complex(amp_pw),
        "ev": {
            "j2_pad": S.compile_evaluator(eq2.nonlinearity, "pad"),
            "j3_pad": S.compile_evaluator(eq3.nonlinearity, "pad"),
            "j3_gauged_pad": S.compile_evaluator(gd3.gauged.nonlinearity, "pad"),
            "planewave_truncate": S.compile_evaluator(
                S.plane_wave_nonlinearity(PLANE_WAVE["j"]), "truncate"),
        },
        "snapshot": workdir / "final.bin",
        "cfg2": S.SimConfig(j=2, dt=5e-4, t_end=0.1, monitors=(-1, 2, 3), monitor_stride=10),
        "cfg3": S.SimConfig(j=3, dt=5e-4, t_end=0.02, integrator="ETDRK4"),
        "cfg_pw": S.SimConfig(j=2, dt=1e-4, t_end=0.01, integrator="ETDRK4", dealias="truncate"),
    }


def _evolve_readme(st, out):
    return S.simulate(st["cfg2"], st["u2"], st["ev"]["j2_pad"])


def _check_readme(st, out):
    res = out["readme"]
    mass = res.monitors[-1]
    mass_drift = float(np.max(np.abs(mass - mass[0])))
    rel = {n: float(np.max(np.abs(res.monitors[n] - res.monitors[n][0])) / abs(res.monitors[n][0]))
           for n in (2, 3)}
    finite = bool(np.all(np.isfinite(res.field.values))) and all(
        np.all(np.isfinite(v)) for v in res.monitors.values())
    ok = finite and mass_drift < 1e-10 and rel[2] < 1e-6 and rel[3] < 1e-6
    return ok, f"mass drift {mass_drift:.2e}, rel I2 {rel[2]:.2e}, I3 {rel[3]:.2e}"


def _evolve_j3_flow(st, out):
    return N.gauge_apply_numeric(S.simulate(st["cfg3"], st["u3"], st["ev"]["j3_pad"]).field, -1)


def _check_j3_flow(st, out):
    ok = bool(np.all(np.isfinite(out["j3_flow"].values)))
    return ok, "finite" if ok else "non-finite values"


def _evolve_j3_gauged(st, out):
    return S.simulate(st["cfg3"], N.gauge_apply_numeric(st["u3"], -1),
                      st["ev"]["j3_gauged_pad"]).field


def _l2(grid, values) -> float:
    return float(np.sqrt(grid.dx * np.sum(np.abs(values) ** 2)))


def _check_commutation(st, out):
    a, b = out["j3_flow"].values, out["j3_gauged"].values
    rel = _l2(st["grid"], a - b) / _l2(st["grid"], a)
    ok = bool(np.all(np.isfinite(b))) and rel < 1e-6
    return ok, f"gauge commutation rel L2 {rel:.2e}"


def _evolve_planewave(st, out):
    j, n, s, a, grid = PLANE_WAVE["j"], PLANE_WAVE["N"], PLANE_WAVE["s"], st["pw_a"], st["pw_grid"]
    ref = lambda t: S.plane_wave_reference(j, n, a, s, t, grid)  # noqa: E731
    return S.simulate(st["cfg_pw"], ref(0.0), st["ev"]["planewave_truncate"], reference=ref)


def _check_planewave(st, out):
    j, n, s, a, grid = PLANE_WAVE["j"], PLANE_WAVE["N"], PLANE_WAVE["s"], st["pw_a"], st["pw_grid"]
    f = out["planewave"].field
    t = st["cfg_pw"].t_end
    phase = n * grid.x - n ** (2 * j) * t + n ** (2 * j - 1 - 2 * s) * abs(a) ** 2 * t
    exact = n ** (-s) * a * np.exp(1j * phase)
    err = _l2(grid, f.values - exact) / _l2(grid, exact)
    ok = bool(np.all(np.isfinite(f.values))) and err < 1e-8
    return ok, f"plane-wave rel L2 error {err:.2e}"


def _evolve_snapshot(st, out):
    f = out["readme"].field
    S.write_snapshot(st["snapshot"], f, 2)
    back, j = S.read_snapshot(st["snapshot"])
    norms = {
        "hat": N.hat_norm(back, 0.0, 2.0),
        "modulation": N.modulation_norm(back, 0.0, 2.0),
        "fourier_lebesgue": N.NormSpec("fourier_lebesgue", 0.5, 2.0)(back),
        "modulation_s": N.NormSpec("modulation", 0.5, 4.0)(back),
    }
    return f, back, j, norms


def _check_snapshot(st, out):
    f, back, j, norms = out["snapshot"]
    exact = (back.values.tobytes() == f.values.tobytes() and j == 2
             and back.grid.m == f.grid.m and back.grid.length == f.grid.length
             and back.time == f.time)
    l2 = _l2(f.grid, f.values)
    parseval = max(abs(norms["hat"] - l2), abs(norms["modulation"] - l2)) / l2
    ok = exact and parseval < 1e-12 and all(np.isfinite(v) for v in norms.values())
    return ok, f"round trip {'bit-exact' if exact else 'DIFFERS'}, Parseval rel {parseval:.1e}"


EVOLVE = [
    ("readme", _evolve_readme, _check_readme),
    ("j3_flow", _evolve_j3_flow, _check_j3_flow),
    ("j3_gauged", _evolve_j3_gauged, _check_commutation),
    ("planewave", _evolve_planewave, _check_planewave),
    ("snapshot", _evolve_snapshot, _check_snapshot),
]


# ---------------------------------------------------------------------------
# experiments: the ill-posedness side of `picard`, `resonance`, `check --probe`
# ---------------------------------------------------------------------------

FITS = [(2, 2.0, 0.5), (2, 2.0, 1.0), (3, 2.0, 1.0)]  # (j, r, s)
FIT_N = [16, 32, 64, 128, 256]
# The probe runs at radius 0.05 and at double that radius.  At radius 0.2 its
# own random fields exceed the numeric gauge's boundary tolerance for some
# seeds (15 and 222 among 0..399), so 0.1 is the largest radius it can take.
PROBE = {"s": 0.6, "p": 4.0, "radii": (0.05, 0.1), "trials": 60}


def experiments_prepare(seed: int, workdir: Path) -> dict:
    return {"seed": seed}


def _fit(j, r, s):
    name = f"fit_j{j}_r{r:g}_s{s:g}"

    def run(st, out):
        return N.growth_exponent_fit(j, s, r, FIT_N)

    def check(st, out):
        want = -2 * s + (2 * j - 2) * (r - 1) / r + 1  # (2j-2)/r' with r' = r/(r-1)
        slope = out[name].slope
        return abs(slope - want) <= 0.15, f"slope {slope:.3f} vs {want:g}"

    return name, run, check


def _resonance(st, out):
    return N.resonance_ratio_stats(2, 10 ** 6, st["seed"])


def _check_resonance(st, out):
    stats = out["resonance"]
    ok = 0 < stats.count_kept <= 10 ** 6 and math.isfinite(stats.min_ratio) and stats.min_ratio > 0
    return ok, f"min ratio {stats.min_ratio:.4f} over {stats.count_kept} triples"


def _probe(st, out):
    return [N.gauge_lipschitz_probe(PROBE["s"], PROBE["p"], radius,
                                    trials=PROBE["trials"], seed=st["seed"])
            for radius in PROBE["radii"]]


def _check_probe(st, out):
    base, double = (p.max_ratio for p in out["probe"])
    ok = (all(p.pairs_used > 0 for p in out["probe"])
          and math.isfinite(base) and math.isfinite(double) and 0 < base
          and double <= 20 * base)
    return ok, f"max ratio {base:.4f} at radius {PROBE['radii'][0]}, {double:.4f} at double"


EXPERIMENTS = [_fit(*case) for case in FITS] + [
    ("resonance", _resonance, _check_resonance),
    ("probe", _probe, _check_probe),
]


WORKLOADS = {
    "derive": (derive_prepare, DERIVE),
    "evolve": (evolve_prepare, EVOLVE),
    "experiments": (experiments_prepare, EXPERIMENTS),
}
