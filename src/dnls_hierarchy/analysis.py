"""Discrete norms, numeric gauge maps, and the ill-posedness experiments.

Fourier-side conventions: a field u = sum_k c_k exp(i xi_k x) on a grid with
mode spacing dxi has unitary-convention transform values

    u_hat(xi_k) = c_k * sqrt(2 pi) / dxi,

so that ||u_hat||_{L^2(d xi)} equals the physical L^2 norm and discrete sums
carry the quadrature weight dxi.  All norms below converge to their
continuum counterparts under grid refinement.

Every cubic interaction takes the output frequency xi = xi1 - xi2 + xi3,
the middle factor being the conjugated one: :func:`resonance_phase`,
:func:`picard3` and :func:`resonance_ratio_stats` share this convention.

The third-Picard-iterate experiment runs on a frequency-window grid (carrier
offset xi0 ~ N): the packet, the cubic interactions and the output all live
within the window, so the windowed computation coincides with the same
computation on an impossibly large dense grid.

The experiments stream through cache-sized blocks, each bit-identical to
its whole-array form: the resonance phase and the Picard triple sums run in
slabs of 6 k1 rows and keep no S^3 array (ufuncs act elementwise and the
slabs scatter in k1-major order), the resonance draws fill one reused
buffer (2d - 1 is exact) and keep no per-sample array (the median is an
exact rank inside a narrowing bracket), and the Lipschitz probe maps its
fields as rows of fixed-size chunks, each row's root a scalar power as in
the one-field norm (an array power may round apart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DiffPoly
from .hierarchy import build_hierarchy_equation, cubic_terms
from .spectral import Field, Grid


class BoundaryDecayViolation(ValueError):
    """Samples near the left grid boundary are not negligibly small."""


class ResolutionError(ValueError):
    """The grid does not resolve the requested frequency packet."""


class FitDegenerate(RuntimeError):
    """Not enough usable points for a growth-exponent fit."""


@dataclass(frozen=True)
class NormSpec:
    """Norm parameters: Fourier-Lebesgue (s, r) or modulation (s, p)."""

    kind: str  # "fourier_lebesgue" | "modulation"
    s: float
    exponent: float  # r for Fourier-Lebesgue (1 < r <= inf), p for modulation

    def __post_init__(self):
        if self.kind not in ("fourier_lebesgue", "modulation"):
            raise ValueError("unknown norm kind")
        (_dual_exponent if self.kind == "fourier_lebesgue" else _modulation_exponent)(self.exponent)

    def __call__(self, f: Field) -> float:
        if self.kind == "fourier_lebesgue":
            return hat_norm(f, self.s, self.exponent)
        return modulation_norm(f, self.s, self.exponent)


def _dual_exponent(r: float) -> float:
    """Hölder dual r' = r/(r - 1) of a Fourier-Lebesgue exponent 1 < r <= inf."""
    if not r > 1:
        raise ValueError(f"Fourier-Lebesgue exponent must satisfy r > 1, not {r!r}")
    return r / (r - 1) if np.isfinite(r) else 1.0


def _modulation_exponent(p: float) -> float:
    """A modulation exponent 1 <= p <= inf, as it is."""
    if not p >= 1:
        raise ValueError(f"modulation exponent must satisfy p >= 1, not {p!r}")
    return p


def _flow_index(j: int) -> int:
    """A hierarchy flow index j >= 1 (dispersion order 2j), as it is."""
    if not j >= 1:
        raise ValueError(f"flow index must satisfy j >= 1, not {j!r}")
    return j


def _hat_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unitary-convention u_hat samples of each row of samples."""
    return np.fft.fft(values) / grid.m * np.sqrt(2 * np.pi) / grid.dxi


def hat_norm(f: Field, s: float, r: float) -> float:
    """Weighted Fourier-Lebesgue norm: l^{r'} of <xi>^s u_hat with dxi weight."""
    rp = _dual_exponent(r)
    grid = f.grid
    uhat = _hat_values(grid, f.values)
    # A weight past the float range is inf, and inf times an amplitude of 0
    # (perhaps underflowed) is nan: an overflowing norm is inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = (1 + grid.true_frequencies ** 2) ** (s / 2) * np.abs(uhat)
        return _lq_norms(weighted[None], rp, grid.dxi)[0]


def _lq_norms(weighted: np.ndarray, q: float, scale: float = 1.0) -> list[float]:
    """(scale * sum w^q)^(1/q) of each row of weights w >= 0, the row max for
    q = inf.  A row whose largest term w_max^q lies outside [2^-900, 2^900/len]
    is summed as w_max (scale * sum (w/w_max)^q)^(1/q), so no term under- or
    overflows; any other row as it stands.  Each root is a scalar power (an
    array power may round apart)."""
    tops = weighted.max(axis=1)
    if np.isinf(q):
        return tops.tolist()
    norms = []
    for row, top, total in zip(weighted, tops, np.sum(weighted ** q, axis=1)):
        if 0 < top < np.inf and not 2.0 ** -900 <= top ** q <= 2.0 ** 900 / row.size:
            norms.append(float(top * (scale * np.sum((row / top) ** q)) ** (1.0 / q)))
        else:
            norms.append(float((scale * total) ** (1.0 / q)))
    return norms


def modulation_norm(f: Field, s: float, p: float) -> float:
    """l^p over unit boxes of <n>^s times the L^2 mass captured by each box."""
    return _modulation_norms(f.grid, f.values[None], s, p)[0]


def _modulation_norms(grid: Grid, values: np.ndarray, s: float, p: float) -> list[float]:
    """:func:`modulation_norm` of each row of samples."""
    p = _modulation_exponent(p)
    boxes = np.floor(grid.true_frequencies + 0.5).astype(np.int64)  # unit box n = floor(xi + 1/2)
    order = np.argsort(boxes, kind="stable")
    uniq, starts = np.unique(boxes[order], return_index=True)
    uhat = _hat_values(grid, values)
    sums = np.add.reduceat(grid.dxi * np.abs(uhat[:, order]) ** 2, starts, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # as in hat_norm
        weighted = (1 + uniq.astype(float) ** 2) ** (s / 2) * np.sqrt(sums)
        return _lq_norms(weighted, p)


# ---------------------------------------------------------------------------
# Numeric gauge map
# ---------------------------------------------------------------------------

def gauge_apply_numeric(f: Field, direction: int) -> Field:
    """Multiply by exp(direction * i * Phi), Phi(x) = integral of |f|^2 from x=0.

    The grid stands in for the line, so the datum must vanish at the left
    boundary (below 1e-8 on the first 1% of points).  The modulus is untouched
    and opposite directions invert each other exactly.
    """
    return Field(f.grid, _gauged(f.grid, f.values[None], direction)[0], f.time)


def _gauged(grid: Grid, values: np.ndarray, direction: int) -> np.ndarray:
    """:func:`gauge_apply_numeric` of each row of samples; the first row
    whose boundary fails names itself in the error."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    head = max(1, grid.m // 100)
    edges = np.max(np.abs(values[:, :head]), axis=1)
    bad = edges[edges >= 1e-8]
    if bad.size:
        raise BoundaryDecayViolation(f"|samples| up to {bad[0]:.3e} on the first {head} points")
    ghat = np.fft.fft(np.abs(values) ** 2) / grid.m
    mean = ghat[:, :1].real
    tilde = ghat.copy()
    tilde[:, 0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tilde[:, 1:] = tilde[:, 1:] / (1j * grid.wavenumbers[1:])
    anti = np.fft.ifft(tilde) * grid.m
    phi = (anti - anti[:, :1]).real + mean * grid.x
    return np.exp(1j * direction * phi) * values


# ---------------------------------------------------------------------------
# Frequency packets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PacketSpec:
    """Characteristic-function packet on [N, N + gamma), gamma = N^-(j-1),
    normalized in H_hat^s_r."""

    N: float
    j: int
    s: float
    r: float

    @property
    def width(self) -> float:
        return self.N ** (-(self.j - 1))

    @property
    def rprime(self) -> float:
        return _dual_exponent(self.r)


def packet_grid(spec: PacketSpec) -> Grid:
    """Frequency-window grid resolving the packet and its cubic image.

    48 modes span the packet, so the cubic image's offsets k1 - k2 + k3 lie
    in [-47, 94], inside the 256-mode window's [-128, 128).
    """
    return Grid(256, 2 * np.pi / (spec.width / 48), xi0=spec.N)


def packet_datum(spec: PacketSpec) -> Field:
    """Field on packet_grid(spec): u_hat = gamma^(-1/r') N^(-s) on [N, N + gamma), else zero."""
    grid = packet_grid(spec)
    xi = grid.true_frequencies
    eps = 1e-4 * grid.dxi  # half-open interval, robust to 1-ulp frequency rounding
    support = (xi >= spec.N - eps) & (xi < spec.N + spec.width - eps)
    if int(np.count_nonzero(support)) < 32:
        raise ResolutionError(
            f"only {int(np.count_nonzero(support))} modes resolve the packet; need >= 32"
        )
    amp = spec.width ** (-1.0 / spec.rprime) * spec.N ** (-spec.s)
    uhat = np.where(support, amp, 0.0).astype(np.complex128)
    coeffs = uhat * grid.dxi / np.sqrt(2 * np.pi)
    return Field.from_coefficients(grid, coeffs)


# ---------------------------------------------------------------------------
# Third Picard iterate
# ---------------------------------------------------------------------------

def cubic_symbol(cubic: DiffPoly):
    """Symmetrized trilinear symbol m(xi1, xi2, xi3) of a cubic nonlinearity.

    The quadratic-form convention pairs u_hat(xi1) conj(u_hat(xi2)) u_hat(xi3)
    on the simplex xi = xi1 - xi2 + xi3, so an r factor of order b contributes
    (-i xi2)^b and the two q slots are averaged.
    """
    terms = _symbol_terms(cubic)
    return lambda x1, x2, x3: _symbol_in_x1(terms, x2, x3)(x1)


def _symbol_terms(cubic: DiffPoly) -> list[tuple[complex, int, int, int]]:
    """(coefficient, a, b, c) of each cubic monomial ∂^a q · ∂^b r · ∂^c q."""
    terms = []
    for factors, coeff in cubic.items():
        if len(factors) != 3:
            raise ValueError("polynomial has a non-cubic term")
        (v1, a), (v2, c), (v3, b) = factors  # q sorts before r, and by ascending order
        if (v1, v2, v3) != ("q", "q", "r"):
            raise ValueError("cubic term is not phase balanced")
        terms.append((complex(coeff), a, b, c))
    return terms


def _symbol_in_x1(terms, x2, x3):
    """The symbol as a function m(x1) at fixed x2 and x3: their factors are
    taken once, each power of x1 once per call of m, and the terms sum in
    order, in place, so every value is the one-call form's bit for bit."""
    weights = [coeff * (-1j * x2) ** b for coeff, _, b, _ in terms]
    exponents = {e for _, a, _, c in terms for e in (a, c)}
    p3 = {e: (1j * x3) ** e for e in exponents}

    def m(x1):
        p1 = {e: (1j * x1) ** e for e in exponents}
        total = np.zeros(np.broadcast(x1, x2, x3).shape, dtype=np.complex128)
        for w, (_, a, _, c) in zip(weights, terms):
            total += w * ((p1[a] * p3[c] + p3[a] * p1[c]) / 2)
        return total

    return m


def resonance_phase(j: int, x1, x2, x3):
    """Phi = -xi^(2j) + xi1^(2j) - xi2^(2j) + xi3^(2j), xi = xi1 - xi2 + xi3.

    Evaluated in the factored form (xi1 - xi2) * [S(xi1, xi2) - S(xi, xi3)]
    with S the complete homogeneous symmetric sum, which avoids the
    catastrophic cancellation of the naive power differences at high carrier
    frequency.  The sum runs in place, so on broadcast axes it holds one
    full-size temporary at a time.
    """
    xi = x1 - x2 + x3
    band = np.zeros(np.shape(xi))
    for mdeg in range(2 * j):
        band += x1 ** mdeg * x2 ** (2 * j - 1 - mdeg)
        band -= xi ** mdeg * x3 ** (2 * j - 1 - mdeg)
    band *= x1 - x2
    return band


def hierarchy_cubic(j: int) -> DiffPoly:
    """Cubic part of the j-th hierarchy equation's nonlinearity (alpha = 2^n)."""
    return cubic_terms(build_hierarchy_equation(2 * j - 1).nonlinearity)


def _support_axes(phi: Field) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Offsets k, coefficients and true frequencies of the modes carrying
    content (above 1e-12 of the peak, so round-trip FFT dust is ignored), each
    as the broadcast axes (S,1,1), (1,S,1), (1,1,S) of a mode triple."""
    grid = phi.grid
    coeffs = phi.coefficients()
    amp = np.abs(coeffs)
    support = amp > 1e-12 * amp.max()
    k = np.fft.fftfreq(grid.m, d=1.0 / grid.m).astype(np.int64)[support]
    return [(v[:, None, None], v[None, :, None], v[None, None, :])
            for v in (k, coeffs[support], grid.xi0 + k * grid.dxi)]


# Rows of k1 per slab of the S^3 triples.  At S = 48 a slab's float temporary is
# 108 KiB, under glibc's 128 KiB mmap threshold; 8 rows faulted 3.5 times the pages.
_SLAB = 6


def _phase_slabs(j: int, axes):
    """Each slab of k1 rows of the support triples, with the resonance phase on it."""
    x1, x2, x3 = axes[2]
    for start in range(0, x1.size, _SLAB):
        sl = slice(start, start + _SLAB)
        yield sl, resonance_phase(j, x1[sl], x2, x3)


def max_resonance_phase(j: int, phi: Field) -> float:
    """max |Phi| over interacting mode triples of a packet field, 0 for none;
    a nan propagates."""
    slabs = _phase_slabs(j, _support_axes(phi))
    return float(np.max([np.max(np.abs(phase)) for _, phase in slabs], initial=0.0))


def picard3(j: int, cubic: DiffPoly, phi: Field, t: float) -> Field:
    """Third Picard iterate of the cubic term, by direct simplex summation.

    In coefficient space:  out(xi) = sum over xi = xi1 - xi2 + xi3 of
    m(xi1,xi2,xi3) c(xi1) conj(c(xi2)) c(xi3) * (exp(i t Phi) - 1)/(i Phi),
    the removable singularity at Phi = 0 taking the value t.  The unimodular
    outer propagator is omitted; no norm can see it.  Phase and symbol take
    the S support modes as broadcast axes, so powers run on S values and only
    sums, kernel and scatter on S^3 triples, a slab of k1 rows at a time;
    ufuncs act elementwise and the slabs scatter in k1-major order, so this
    is bit-identical to the meshgrid sum kept as the test oracle.
    """
    grid = phi.grid
    axes = _support_axes(phi)
    (k1, k2, k3), (a1, a2, a3), (x1, x2, x3) = axes
    symbol = _symbol_in_x1(_symbol_terms(cubic), x2, x3)
    out = np.zeros(grid.m, dtype=np.complex128)
    if k1.size == 0 or t == 0.0:
        return Field(grid, out, t)
    lo, hi = int(k1.min()), int(k1.max())  # k1 - k2 + k3 spans [2 lo - hi, 2 hi - lo]
    if 2 * lo - hi < -(grid.m // 2) or 2 * hi - lo >= grid.m // 2:
        raise ResolutionError("cubic image of the packet leaves the frequency window")
    conj_a2 = np.conj(a2)
    for sl, phase in _phase_slabs(j, axes):
        # (e^{i t Phi} - 1)/(i Phi) = t e^{i t Phi / 2} sinc(t Phi / 2), |.| <= t
        kernel = t * np.exp(0.5j * t * phase) * np.sinc(t * phase / (2 * np.pi))
        contrib = symbol(x1[sl]) * a1[sl] * conj_a2 * a3 * kernel
        np.add.at(out, (k1[sl] - k2 + k3).ravel(), contrib.ravel())  # negative offsets wrap
    return Field.from_coefficients(grid, out, t)


@dataclass(frozen=True)
class GrowthFit:
    j: int
    s: float
    r: float
    t: float
    N_values: tuple[float, ...]
    norms: tuple[float, ...]
    slope: float
    intercept: float
    stderr: float
    residuals: tuple[float, ...]  # log-norm residuals of the least-squares line
    predicted: float


def predicted_growth_exponent(j: int, s: float, r: float) -> float:
    return -2 * s + (2 * j - 2) / _dual_exponent(r) + 1


def _line_fit(x: list[float], y: list[float]) -> tuple[float, float, float, tuple[float, ...]]:
    """Slope, intercept, the slope's standard error and the residuals of the
    least-squares line, in closed form: slope = Sxy / Sxx about the means and
    stderr^2 = SSR / (n - 2) / Sxx, each sum a math.fsum.  These are what
    np.polyfit(x, y, 1, cov=True) estimates, without its LAPACK solve."""
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    sxx = math.fsum((a - mx) ** 2 for a in x)
    slope = math.fsum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    intercept = my - slope * mx
    residuals = tuple(b - (slope * a + intercept) for a, b in zip(x, y))
    stderr = math.sqrt(math.fsum(v * v for v in residuals) / (n - 2) / sxx)
    return slope, intercept, stderr, residuals


def growth_exponent_fit(j: int, s: float, r: float, N_list: list[int]) -> GrowthFit:
    """Fit log ||picard3|| against log N for characteristic-function packets.

    The evaluation time t is fixed across N with t * max|Phi| <= 0.1, keeping
    every interaction inside the t-linear regime of the Duhamel kernel.  Only
    the packet fields are kept: each one's phase slabs are streamed twice,
    by :func:`max_resonance_phase` for t and by :func:`picard3` for its iterate.
    """
    _flow_index(j)
    if len(set(N_list)) < 4:
        raise FitDegenerate("need at least 4 distinct packet frequencies")
    cubic = hierarchy_cubic(j)
    fields = []
    for N in N_list:
        spec = PacketSpec(N=float(N), j=j, s=s, r=r)
        fields.append(packet_datum(spec))
    phi_max = max(max_resonance_phase(j, phi) for phi in fields)
    t = 0.1 / phi_max if phi_max > 0 else 0.1
    norms = [hat_norm(picard3(j, cubic, phi, t), s, r) for phi in fields]
    if not np.all(np.isfinite(norms)):
        raise FitDegenerate("non-finite third-iterate norm")
    if any(not v > 0 for v in norms):
        raise FitDegenerate("vanishing third-iterate norm")
    logN = np.log(np.asarray(N_list, dtype=float)).tolist()
    logv = np.log(np.asarray(norms)).tolist()
    slope, intercept, stderr, residuals = _line_fit(logN, logv)
    return GrowthFit(
        j=j,
        s=s,
        r=r,
        t=t,
        N_values=tuple(float(N) for N in N_list),
        norms=tuple(float(v) for v in norms),
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        residuals=residuals,
        predicted=predicted_growth_exponent(j, s, r),
    )


# ---------------------------------------------------------------------------
# Resonance sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceStats:
    alpha: float
    count_requested: int
    count_kept: int
    min_ratio: float
    median_ratio: float
    seed: int


# Columns of the (3, count) draw sampled at a time: a row is 64 KiB, where 2^14
# columns met glibc's 128 KiB mmap threshold and peaked 1.4 MB higher.
_RESONANCE_BLOCK = 1 << 13
_RESONANCE_HELD = 2 * _RESONANCE_BLOCK  # held ratios past which the median bracket narrows
_RESONANCE_SIGMAS = 8  # a narrowed bracket's reach either side of the median rank, in its sigma


def _kept_ratios(j: int, count: int, seed: int):
    """lhs/rhs of the kept triples of each column block of the draw, in order."""
    alpha = 2.0 * j
    rows = [np.random.default_rng(seed) for _ in range(3)]
    for row, rng in enumerate(rows):
        rng.bit_generator.advance(row * count)
    buffer = np.empty((3, min(count, _RESONANCE_BLOCK)))
    for start in range(0, count, _RESONANCE_BLOCK):
        xi = buffer[:, :min(_RESONANCE_BLOCK, count - start)]
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: nan
            for rng, row, sign in zip(rows, xi, (2.0, -2.0, 2.0)):
                rng.random(out=row)
                row *= sign
                row -= sign / 2
            total = np.abs(xi[0] - xi[1] + xi[2])
            a = np.abs(xi)
            lhs = np.abs(total ** alpha - a[0] ** alpha + a[1] ** alpha - a[2] ** alpha)
            ximax = np.maximum(np.maximum(np.maximum(a[0], a[1]), a[2]), total)
            rhs = np.abs(xi[0] - xi[1]) * np.abs(xi[1] - xi[2]) * ximax ** (alpha - 2)
            keep = rhs >= 1e-9
            ratios = lhs[keep] / rhs[keep]
        yield ratios


def resonance_ratio_stats(j: int, count: int, seed: int) -> ResonanceStats:
    """Sample lhs/rhs of the resonance comparison over random triples.

    With xi = xi1 - xi2 + xi3 and alpha = 2j:

        lhs = | |xi|^alpha - |xi1|^alpha + |xi2|^alpha - |xi3|^alpha |,
        rhs = |xi1 - xi2| |xi2 - xi3| max(|xi|, |xi1|, |xi2|, |xi3|)^(alpha-2).

    Each xi_i is uniform on [-1, 1] (xi2 is the negated draw).  Near-resonant
    triples (rhs below 1e-9, where both sides vanish) are discarded; the statistics of the remaining ratios probe
    the implied lower bound.

    The draws are ``default_rng(seed).uniform(-1, 1, (3, count))``, taken in
    column blocks into one reused buffer: a uniform double is one PCG64
    output d, mapped to 2d - 1 (exactly, as 2d is exact), so row r starts
    r * count outputs in and the negated row is 1 - 2d.

    No per-sample array is stored.  The minimum is a running np.min (nan
    propagates).  The median is exact: the ratios inside a bracket [lo, hi]
    are held and those below it counted, so the middle order statistics are
    ranks of the held ones, and np.median's mean of them is taken.  The
    bracket starts unbounded and, whenever more than _RESONANCE_HELD ratios
    are held, narrows to _RESONANCE_SIGMAS rank sigmas (sqrt(n)/2) either
    side of the current median rank.  If the final middle ranks fall
    outside it, the whole kept draw is built again and reduced as a whole,
    which is exact too.  A draw that keeps nothing has nan minimum and median.
    """
    _flow_index(j)
    if count < 1:
        raise ValueError("count must be positive")
    kept = below = held_size = 0
    low, lo, hi = np.inf, -np.inf, np.inf
    held = []
    for ratios in _kept_ratios(j, count, seed):
        kept += ratios.size
        low = ratios.min(initial=low)
        below += int(np.count_nonzero(ratios < lo))
        held.append(ratios[(lo <= ratios) & (ratios <= hi)])  # nan is neither held nor below
        held_size += held[-1].size
        reach = int(_RESONANCE_SIGMAS / 2 * kept ** 0.5) + 1
        if held_size > max(_RESONANCE_HELD, 4 * reach):  # the cap, or twice what narrowing keeps
            values = np.concatenate(held)
            rank = (kept - 1) // 2 - below
            first, last = np.clip([rank - reach, rank + 1 + reach], 0, values.size - 1).tolist()
            values.partition((first, last))
            below += first
            lo, hi = values[first], values[last]
            held = [values[first:last + 1].copy()]
            held_size = last + 1 - first
    lower, upper = (kept - 1) // 2 - below, kept // 2 - below
    if not kept:
        low = median = np.nan  # no ratio to reduce: nan, as past the float range
    elif np.isnan(low):
        median = low  # np.median of data holding nan is nan
    elif 0 <= lower and upper < held_size:
        values = np.concatenate(held)
        values.partition((lower, upper))
        median = np.mean(values[lower:upper + 1])  # as np.median on its middle order statistics
    else:
        ratios = np.concatenate(list(_kept_ratios(j, count, seed)))
        low, median = np.min(ratios), np.median(ratios, overwrite_input=True)
    return ResonanceStats(
        alpha=2.0 * j,
        count_requested=count,
        count_kept=kept,
        min_ratio=float(low),
        median_ratio=float(median),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Gauge continuity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzProbe:
    max_ratio: float
    pairs_used: int


_PROBE_PAIRS = 8  # trial pairs drawn, normed and gauged at a time


def gauge_lipschitz_probe(
    s: float,
    p: float,
    radius: float,
    trials: int,
    seed: int = 0,
) -> LipschitzProbe:
    """Largest observed modulation-norm ratio ||G-(u) - G-(v)|| / ||u - v||
    over random localized pairs inside the ball of the given radius, on a
    256-point grid of length 32 pi.  Pairs with ||u - v|| < 1e-12 are
    skipped; the first kept field (u0, v0, u1, ...) past the gauge's
    boundary tolerance raises :class:`BoundaryDecayViolation`.  The pairs
    run _PROBE_PAIRS at a time, drawn in trial order, so memory does not
    grow with ``trials``."""
    if not s > 0.5 - 1.0 / _modulation_exponent(p):
        raise ValueError("need s > 1/2 - 1/p for the gauge map to act on this space")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    grid = Grid(256, 32 * np.pi)
    rng = np.random.default_rng(seed)
    # random fields on modes |k| <= 6, decaying as (1 + |k|)^-2, under a
    # Gaussian window of width L/16 at the centre
    ks = np.fft.fftfreq(grid.m, d=1.0 / grid.m).astype(int)
    band = np.abs(ks) <= 6
    nb = int(np.count_nonzero(band))
    decay = (1 + np.abs(ks[band])) ** 2
    window = np.exp(-((grid.x - grid.length / 2) ** 2) / (2 * (grid.length / 16) ** 2))
    max_ratio, used = 0.0, 0
    for start in range(0, trials, _PROBE_PAIRS):
        pairs = min(_PROBE_PAIRS, trials - start)
        coeffs = np.zeros((2 * pairs, grid.m), dtype=np.complex128)  # rows u, v, u, ...
        targets = np.empty(2 * pairs)
        for row in range(2 * pairs):
            coeffs[row, band] = (rng.normal(size=nb) + 1j * rng.normal(size=nb)) / decay
            targets[row] = radius * rng.uniform(0.3, 1.0)
        fields = np.fft.ifft(coeffs) * grid.m * window
        fields *= (targets / _modulation_norms(grid, fields, s, p))[:, None]
        denoms = np.array(_modulation_norms(grid, fields[0::2] - fields[1::2], s, p))
        kept = ~(denoms < 1e-12)
        gauged = _gauged(grid, fields.reshape(pairs, 2, grid.m)[kept].reshape(-1, grid.m), -1)
        ratios = np.array(_modulation_norms(grid, gauged[0::2] - gauged[1::2], s, p)) / denoms[kept]
        max_ratio = max([max_ratio, *ratios.tolist()])  # a nan ratio never wins, as in a running max
        used += int(np.count_nonzero(kept))
    return LipschitzProbe(max_ratio, used)
