"""Periodic Fourier pseudospectral solver for the generated equations.

Fields live on a uniform grid over [0, L); the linear flow of

    i u_t + (-1)^(j+1) ∂_x^(2j) u = N(u)

multiplies the mode xi by exp(-i xi^(2j) t) and is applied exactly, so the
time steppers (integrating-factor RK4 by default, ETDRK4 optionally) only
resolve the nonlinear scale.  Nonlinearities arrive as exact differential
polynomials and are compiled to evaluators: derivatives in frequency space
(every order in one batched transform), factor products in physical space
(a schedule compiled once multiplies each shared factor once), with either
alias-free products on p = L M points (L shifted copies of the M-point
grid, so every transform has length M, with p >= (K+1)(M/2) for K factors),
or classical truncation by the fixed 2/3 rule (L = 1; each factor and the
result keep only the modes |xi| <= (2/3)(M/2) dxi).  A padded hierarchy
nonlinearity N = dx P is evaluated through its exact primitive P, which has
fewer terms, and multiplied by i xi.  The I_n monitors use the same padded
products, so they are alias-free quadratures of the densities.

A grid may carry a carrier offset xi0, in which case the stored samples are
the envelope w of u = exp(i xi0 x) w and mode k represents the true
frequency xi0 + 2 pi k / L, where the products take its derivatives; the
solver and the Picard iterate of :mod:`.analysis` both run on such windows.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import DiffPoly, GaussianRational, NotExact, antiderivative, grading
from .hierarchy import hamiltonian_density


class ConfigError(ValueError):
    pass


class BlowupDetected(RuntimeError):
    """Non-finite samples appeared during a run."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: m points on [0, length), optional carrier xi0."""

    m: int
    length: float = 2.0 * np.pi
    xi0: float = 0.0

    def __post_init__(self):
        if self.m < 16 or self.m & (self.m - 1):
            raise ConfigError("grid size must be a power of two, at least 16")
        if not 0 < self.length < np.inf:
            raise ConfigError("grid length must be positive and finite")

    @property
    def dx(self) -> float:
        return self.length / self.m

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.length

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.m) * self.dx

    @property
    def wavenumbers(self) -> np.ndarray:
        """Intrinsic wavenumbers in FFT layout (no carrier)."""
        return np.fft.fftfreq(self.m, d=1.0 / self.m) * self.dxi

    @property
    def true_frequencies(self) -> np.ndarray:
        return self.xi0 + self.wavenumbers

    def dispersion(self, j: int, offsets=None) -> np.ndarray:
        """The solver's linear symbol w at xi = offsets * dxi (the grid's modes by
        default): (xi0 + xi)^(2j) less its affine part in xi, which sums to zero
        over xi = xi1 - xi2 + xi3, so Phi = -w(xi) + w(xi1) - w(xi2) + w(xi3)."""
        xi = self.wavenumbers if offsets is None else np.asarray(offsets) * self.dxi
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan
            return sum(math.comb(2 * j, e) * np.float64(self.xi0) ** (2 * j - e) * xi ** e
                       for e in range(2 if self.xi0 else 2 * j, 2 * j + 1))


@dataclass
class Field:
    """Complex samples on a grid at one instant."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.m,):
            raise ConfigError("sample count does not match the grid")

    def coefficients(self) -> np.ndarray:
        """Fourier series coefficients c_k with u = sum c_k exp(i xi_k x)."""
        return np.fft.fft(self.values) / self.grid.m

    @staticmethod
    def from_coefficients(grid: Grid, coeffs: np.ndarray, time: float = 0.0) -> "Field":
        return Field(grid, np.fft.ifft(coeffs) * grid.m, time)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.values) ** 2)))


def _require_no_carrier(grid: Grid, what: str):
    if grid.xi0 != 0.0:
        raise ConfigError(f"{what} requires a grid without carrier offset")


# ---------------------------------------------------------------------------
# Nonlinearity compilation
# ---------------------------------------------------------------------------

def _schedule(terms):
    """Horner schedule of (coefficient, sorted factors) terms: a node is
    (constant, branches), a branch (factor, child node or coefficient).  The
    factor in the most terms, ties to the least (never a set's order, so no
    hash seed shows), is multiplied once for all of them, and so on inside."""
    const = sum((c for c, f in terms if not f), 0j)
    rest = [(c, f) for c, f in terms if f]
    branches = []
    while rest:
        counts = Counter(key for _, f in rest for key in set(f))
        key = min(counts, key=lambda k: (-counts[k], k))
        inner = [(c, f[:f.index(key)] + f[f.index(key) + 1:]) for c, f in rest if key in f]
        rest = [(c, f) for c, f in rest if key not in f]
        child = _schedule(inner)
        branches.append((key, child if child[1] else child[0]))
    return const, tuple(branches)


def _multiplies(node) -> int:
    return sum(1 if isinstance(c, complex) else 1 + _multiplies(c) for _, c in node[1])


def _horner(node, phys: dict) -> np.ndarray:
    # Each array here is a fresh product: in place never writes into a factor.
    const, branches = node
    acc = None
    for key, child in branches:
        if isinstance(child, complex):
            val = child * phys[key]
        else:
            val = _horner(child, phys)
            val *= phys[key]
        acc = val if acc is None else np.add(acc, val, out=acc)
    return np.add(acc, const, out=acc) if const else acc


class _Products:
    """A polynomial's grid products compiled once: ``lowered_terms``, their
    ``schedule`` with its array ``multiplies`` per call, and per grid the
    synthesis and fold tables of its product grid.  By default the products
    are alias-free and carry no outer derivative, as the monitors need."""

    dealias = "pad"
    primitive: DiffPoly | None = None

    def __init__(self, poly: DiffPoly):
        self.lowered_terms = [(complex(c), f) for f, c in poly.items()]
        self.max_factors = max((len(f) for _, f in self.lowered_terms), default=1)
        self.schedule = _schedule(self.lowered_terms)
        self.multiplies = _multiplies(self.schedule)
        keys = sorted({key for _, f in self.lowered_terms for key in f})
        orders = sorted({k for _, k in keys})
        self._orders = np.array(orders, dtype=int)[:, None, None]
        self._factors = [(key, orders.index(key[1])) for key in keys]
        self._grids: dict[Grid, tuple[np.ndarray, np.ndarray]] = {}

    def pad_length(self, grid: Grid) -> int:
        """Length p = L M of the product grid: L = 1 under truncation, else
        the least L with p >= (K+1)(M/2) for K factors.  K factors of modes
        in [-M/2, M/2) reach at most (K+1)(M/2) - 1 away from a retained
        mode, so such a p folds nothing onto one."""
        return grid.m * (1 if self.dealias == "truncate" else (self.max_factors + 2) // 2)

    def _tables(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """The product grid is L copies of the M-point grid, copy l shifted
        by l/L of a grid step, on which mode xi carries the phase
        exp(i xi l dx/L).  Built once per grid: the synthesis table
        (i nu)^k exp(i xi l dx/L), shape (orders, L, M), nu = xi0 + xi the
        true frequency, and the fold table exp(-i xi l dx/L)/L, shape (L, M).
        Under truncation both carry the 2/3 mask; a primitive's fold, i nu."""
        if grid not in self._grids:
            xi, nu = grid.wavenumbers, grid.true_frequencies
            copies = self.pad_length(grid) // grid.m
            shift = np.exp(1j * (grid.dx / copies * np.arange(copies))[:, None] * xi)
            synth = (1j * nu) ** self._orders * shift
            fold = np.conj(shift) / copies
            if self.dealias == "truncate":
                keep = np.abs(xi) <= 2.0 / 3.0 * (grid.m // 2) * grid.dxi
                synth, fold = synth * keep, fold * keep
            if self.primitive is not None:
                fold = fold * (1j * nu)
            self._grids[grid] = synth, fold
        return self._grids[grid]

    def _products(self, grid: Grid, coeffs: np.ndarray) -> np.ndarray:
        """Spectrum on the M modes of ``coeffs`` of sum_t c_t prod_f f, with
        the fold table's factor: every factor synthesised on each copy in
        one batched M-point inverse FFT (conj(∂^k u) reuses ∂^k u), the
        schedule's products accumulated in place, one M-point forward FFT
        per copy, and the copies folded together."""
        synth, fold = self._tables(grid)
        rows = np.fft.ifft(coeffs * synth, axis=-1, norm="forward")
        phys = {key: rows[i] if key[0] == "q" else np.conj(rows[i]) for key, i in self._factors}
        const, branches = self.schedule
        spec = np.fft.fft(_horner(self.schedule, phys) if branches else np.full(fold.shape, const),
                          axis=-1, norm="forward")
        # -0 + x is x for every x, so one copy passes through bit for bit.
        return (fold * spec).sum(axis=0, initial=-0j)


class NonlinearEvaluator(_Products):
    """Pointwise evaluator for a phase-balanced differential polynomial.

    ``dealias="pad"`` computes every product on a grid long enough that no
    retained mode aliases (exact up to rounding), on the terms of the exact
    primitive ``self.primitive`` when ``antiderivative`` finds one (None
    otherwise); ``dealias="truncate"`` applies the 2/3-rule sharp filter to
    each factor and to the result of the nonlinearity's own terms.
    """

    def __init__(self, nl: DiffPoly, dealias: str = "pad"):
        if dealias not in ("pad", "truncate"):
            raise ConfigError("dealias must be 'pad' or 'truncate'")
        for key, _ in nl.terms():
            nq, nr, _ = grading(key)
            if nq != nr + 1:
                raise ConfigError("nonlinearity is not phase balanced")
        self.dealias = dealias
        try:
            self.primitive = antiderivative(nl) if dealias == "pad" else None
        except NotExact:
            self.primitive = None
        super().__init__(nl if self.primitive is None else self.primitive)

    def __call__(self, f: Field) -> Field:
        out = self.rhs_coefficients(f.grid, f.coefficients())
        return Field.from_coefficients(f.grid, out, f.time)

    def rhs_coefficients(self, grid: Grid, coeffs: np.ndarray) -> np.ndarray:
        """Spectral coefficients of N(u)."""
        return self._products(grid, coeffs)


compile_evaluator = NonlinearEvaluator  # kept only for bench/workloads.py, which calls it


# ---------------------------------------------------------------------------
# Linear flow and time stepping
# ---------------------------------------------------------------------------

def linear_propagate(f: Field, j: int, t: float) -> Field:
    """Exact linear flow exp(-i t grid.dispersion(j)); a window run drops a phase and a translation."""
    coeffs = f.coefficients() * np.exp(-1j * f.grid.dispersion(j) * t)
    return Field.from_coefficients(f.grid, coeffs, f.time + t)


@dataclass(frozen=True)
class SimConfig:
    """Time-stepping configuration.

    ``monitors`` lists conserved-functional indices (-1 for mass, n >= 0 for
    I_n); their values are recorded every ``monitor_stride`` steps.
    """

    j: int
    dt: float
    t_end: float
    dealias: str = "pad"
    integrator: str = "IFRK4"
    monitors: tuple[int, ...] = ()
    monitor_stride: int = 1

    def __post_init__(self):
        if self.j < 1:
            raise ConfigError("j must be >= 1")
        if not (0 < self.dt < np.inf and 0 <= self.t_end < np.inf):
            raise ConfigError("need a finite dt > 0 and a finite t_end >= 0")
        if not np.isfinite(self.t_end / self.dt):
            raise ConfigError("step count t_end / dt is not finite (past the float range)")
        if self.integrator not in ("IFRK4", "ETDRK4"):
            raise ConfigError("integrator must be IFRK4 or ETDRK4")
        if self.dealias not in ("pad", "truncate"):
            raise ConfigError("dealias must be 'pad' or 'truncate'")
        if self.monitor_stride < 1:
            raise ConfigError("monitor_stride must be >= 1")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * max(self.dt, self.t_end):
            raise ConfigError("t_end must be an integer number of steps")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def linear_phase_per_step(self, grid: Grid) -> float:
        """dt * max|grid.dispersion(j)|, the stiff rotation the integrators absorb (diagnostic only)."""
        return self.dt * float(np.max(np.abs(grid.dispersion(self.j))))


@dataclass
class SimResult:
    field: Field
    times: np.ndarray
    monitors: dict[int, np.ndarray]
    l2_errors: np.ndarray | None = None


def _etdrk4_weights(z: np.ndarray, dt: float):
    # Circular contour (32 points) around each stiff eigenvalue; the phi
    # functions are entire so the averaged values are spectrally accurate.
    pts = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    zc = z[:, None] + pts[None, :]
    q = dt * np.mean((np.exp(zc / 2) - 1) / zc, axis=1)
    f1 = dt * np.mean((-4 - zc + np.exp(zc) * (4 - 3 * zc + zc ** 2)) / zc ** 3, axis=1)
    f2 = dt * np.mean((2 + zc + np.exp(zc) * (-2 + zc)) / zc ** 3, axis=1)
    f3 = dt * np.mean((-4 - 3 * zc - zc ** 2 + np.exp(zc) * (4 - zc)) / zc ** 3, axis=1)
    return q, f1, f2, f3


def simulate(
    cfg: SimConfig,
    u0: Field,
    nl: NonlinearEvaluator | None,
    reference=None,
) -> SimResult:
    """Integrate i u_t + (-1)^(j+1) ∂_x^(2j) u = N(u) from u0 to t_end; a window
    run drops the symbol's affine part, a global phase and a translation.

    ``reference``, if given, maps a time to the exact Field; the relative L^2
    error is then recorded alongside the monitors.  ``nl`` must match ``cfg.dealias``.
    """
    grid = u0.grid
    if nl is not None and cfg.dealias != nl.dealias:
        raise ConfigError(f"evaluator dealias {nl.dealias!r} does not match "
                          f"SimConfig dealias {cfg.dealias!r}")
    dt = cfg.dt

    if nl is None:
        rhs = lambda c: np.zeros_like(c)
    else:
        rhs = lambda c: -1j * nl.rhs_coefficients(grid, c)

    functionals = {n: ConservedFunctional(n) for n in cfg.monitors}
    times: list[float] = []
    series: dict[int, list[complex]] = {n: [] for n in cfg.monitors}
    errors: list[float] = []

    def record(c: np.ndarray, t: float):
        if not np.all(np.isfinite(c)):
            raise BlowupDetected(f"non-finite values at t = {t:.6g}")
        times.append(t)
        if functionals or reference is not None:
            f = Field.from_coefficients(grid, c, t)
            for n, functional in functionals.items():
                series[n].append(functional(f))
            if reference is not None:
                ref = reference(t)
                err = Field(grid, f.values - ref.values).l2_norm()
                errors.append(err / (ref.l2_norm() or 1.0))
            # Finite coefficients can still overflow in a monitor's products.
            if not np.isfinite([s[-1] for s in series.values()] + errors[-1:]).all():
                raise BlowupDetected(f"non-finite monitor values at t = {t:.6g}")

    # Overflow in the datum's transform, the linear factors or the nonlinear
    # or monitor products is how blowing-up runs manifest; record turns the
    # resulting non-finite values into BlowupDetected.
    with np.errstate(over="ignore", invalid="ignore"):
        lam = -1j * grid.dispersion(cfg.j)
        e1 = np.exp(lam * dt)
        e2 = np.exp(lam * dt / 2)
        if cfg.integrator == "IFRK4":
            def step(c: np.ndarray) -> np.ndarray:
                k1 = rhs(c)
                k2 = rhs(e2 * (c + (dt / 2) * k1))
                k3 = rhs(e2 * c + (dt / 2) * k2)
                k4 = rhs(e1 * c + dt * e2 * k3)
                return e1 * c + (dt / 6) * (e1 * k1 + 2 * e2 * (k2 + k3) + k4)
        else:
            q, f1, f2, f3 = _etdrk4_weights(lam * dt, dt)

            def step(c: np.ndarray) -> np.ndarray:
                nu = rhs(c)
                a = e2 * c + q * nu
                na = rhs(a)
                nb = rhs(e2 * c + q * na)
                nc = rhs(e2 * a + q * (2 * nb - nu))
                return e1 * c + f1 * nu + 2 * f2 * (na + nb) + f3 * nc

        c = u0.coefficients()
        record(c, u0.time)
        for i in range(1, cfg.n_steps + 1):
            c = step(c)
            if i % cfg.monitor_stride == 0 or i == cfg.n_steps:
                record(c, u0.time + i * dt)

    final = Field.from_coefficients(grid, c, u0.time + cfg.n_steps * dt)
    return SimResult(
        field=final,
        times=np.asarray(times),
        monitors={n: np.asarray(v) for n, v in series.items()},
        l2_errors=np.asarray(errors) if reference is not None else None,
    )


# ---------------------------------------------------------------------------
# Conserved functionals
# ---------------------------------------------------------------------------

_MASS_DENSITY = DiffPoly.variable("q") * DiffPoly.variable("r")


class ConservedFunctional(_Products):
    """Alias-free spectral quadrature of a hierarchy density (index -1 is
    the mass): L times the zero mode of the padded density products."""

    def __init__(self, n: int):
        if n < -1:
            raise ValueError("index must be >= -1")
        super().__init__(_MASS_DENSITY if n == -1 else hamiltonian_density(n))

    def __call__(self, f: Field) -> complex:
        return complex(f.grid.length * self._products(f.grid, f.coefficients())[0])


# ---------------------------------------------------------------------------
# Exact plane-wave family
# ---------------------------------------------------------------------------

def plane_wave_nonlinearity(j: int) -> DiffPoly:
    """sigma * i * u^2 ∂_x^(2j-1) conj(u), with sigma = plane_wave_sign(j)."""
    return DiffPoly.monomial(
        GaussianRational.of(0, plane_wave_sign(j)), (("q", 0), ("q", 0), ("r", 2 * j - 1))
    )


def plane_wave_sign(j: int) -> int:
    """Sign sigma for which u = N^{-s} a exp(i(Nx - N^(2j) t + N^(2j-1-2s)|a|^2 t))
    solves i u_t + (-1)^(j+1) ∂_x^(2j) u = sigma i u^2 ∂_x^(2j-1) conj(u).

    Substituting the ansatz reduces the equation to m(N, N, N) = -N^(2j-1)
    for the cubic symbol m, and by homogeneity to m(1, 1, 1) = -1.  At unit
    frequency a q factor of order a contributes i^a and an r factor of order
    b contributes (-i)^b, so sigma = 1 has the symbol
    i (-i)^(2j-1) = i (-1)^j i = -(-1)^j, and sigma = (-1)^j.
    """
    return (-1) ** j


def plane_wave_reference(
    j: int, N: int, a: complex, s: float, t: float, grid: Grid
) -> Field:
    """Exact one-mode solution member at time t on the given grid."""
    if N == 0:
        raise ValueError("N must be nonzero")
    _require_no_carrier(grid, "plane-wave reference")
    n = np.float64(N)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: simulate's blow-up
        amp = np.float64(abs(a)) ** 2
        phase = N * grid.x - n ** (2 * j) * t + n ** (2 * j - 1 - 2 * s) * amp * t
        values = n ** (-s) * a * np.exp(1j * phase)
    return Field(grid, values, t)


# ---------------------------------------------------------------------------
# Helpers and snapshot format
# ---------------------------------------------------------------------------

def gaussian_bump(
    grid: Grid,
    amplitude: complex = 0.25,
    width: float = 3.0,
    center: float | None = None,
    carrier: int = 0,
) -> Field:
    """Smooth localized datum exp(-(x-c)^2 / (2 width^2)), optionally modulated."""
    c = grid.length / 2 if center is None else center
    x = grid.x
    # Overflow or a zero width² gives a flat or non-finite datum, not a warning.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = amplitude * np.exp(-((x - c) ** 2) / (2 * np.float64(width) ** 2))
    if carrier:
        values = values * np.exp(1j * carrier * grid.dxi * x)
    return Field(grid, values)


_HEADER = struct.Struct("<qdqd")  # m, length, j, time


def write_snapshot(path, f: Field, j: int):
    """Write a snapshot atomically: into a temporary file in the same
    directory, renamed over ``path`` only once it is complete.  The header
    has no carrier, so a window's field raises ConfigError."""
    _require_no_carrier(f.grid, "a snapshot")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(f.grid.m, f.grid.length, j, f.time))
            fh.write(np.ascontiguousarray(f.values, dtype=np.complex128).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_snapshot(path) -> tuple[Field, int]:
    """Inverse of write_snapshot; a malformed file raises ConfigError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ConfigError(f"{len(data)} bytes is shorter than the {_HEADER.size}-byte header")
    m, length, j, time = _HEADER.unpack_from(data)
    if j < 1 or not math.isfinite(time):
        raise ConfigError(f"header has j = {j} and time = {time!r}; need j >= 1 and a finite time")
    grid = Grid(m, length)
    if len(data) - _HEADER.size != 16 * m:
        raise ConfigError(f"payload is {len(data) - _HEADER.size} bytes, M = {m} needs {16 * m}")
    values = np.frombuffer(data, dtype=np.complex128, offset=_HEADER.size)
    return Field(grid, values.copy(), time), j
