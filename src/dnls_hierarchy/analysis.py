"""Discrete norms, numeric gauge maps, and the ill-posedness experiments.

Fourier-side conventions: a field u = sum_k c_k exp(i xi_k x) on a grid with
mode spacing dxi has unitary-convention transform values

    u_hat(xi_k) = c_k * sqrt(2 pi) / dxi,

so that ||u_hat||_{L^2(d xi)} equals the physical L^2 norm and discrete sums
carry the quadrature weight dxi.  All norms below converge to their
continuum counterparts under grid refinement.

Every cubic interaction takes the output frequency xi = xi1 - xi2 + xi3, the
middle factor conjugated: :func:`max_resonance_phase` and :func:`picard3`,
with Phi from the solver's Grid.dispersion, and :func:`resonance_ratio_stats`.

The third-Picard-iterate experiment runs on a frequency-window grid (carrier
offset xi0 ~ N): the packet, the cubic interactions and the output all live
within the window, so the windowed computation coincides with the same
computation on an impossibly large dense grid.  Its time quadrature takes
the cubic at each node from the solver's product kernel.

The growth fit's max|Phi| is taken on the 4S support triples whose outer
frequencies xi1 and xi3 are the support's ends, as Phi is monotone in each,
so the S^3 maximum lies among them.  The other experiments stream through
cache-sized blocks, each bit-identical to its whole-array form: the
resonance draws keep no per-sample array (the median is an exact rank
inside a narrowing bracket), and the Lipschitz probe maps its fields as
rows of fixed-size chunks, each row's root a scalar power as in the
one-field norm (an array power may round apart).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import DiffPoly
from .hierarchy import build_hierarchy_equation, cubic_terms
from .spectral import Field, Grid, NonlinearEvaluator


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
    if not spec.width >= sys.float_info.min:
        raise ResolutionError(f"the packet width N^-(j-1) underflows at N = {spec.N:g}")
    length = 2 * np.pi / (spec.width / 48)
    if not length < np.inf:
        raise ResolutionError(f"the window length 96 pi N^(j-1) overflows at N = {spec.N:g}")
    return Grid(256, length, xi0=spec.N)


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
    try:
        amp = spec.width ** (-1.0 / spec.rprime) * spec.N ** (-spec.s)
    except OverflowError:
        amp = math.inf
    # The third iterate is cubic in the amplitude, so its norm leaves the float range too.
    if not amp < math.inf:
        raise FitDegenerate("non-finite third-iterate norm")
    if 0 < amp < sys.float_info.min:
        raise FitDegenerate("vanishing third-iterate norm")
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
    return lambda x1, x2, x3: sum(
        coeff * (-1j * x2) ** b * (((1j * x1) ** a * (1j * x3) ** c + (1j * x3) ** a * (1j * x1) ** c) / 2)
        for coeff, a, b, c in terms)


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


def hierarchy_cubic(j: int) -> DiffPoly:
    """Cubic part of the j-th hierarchy equation's nonlinearity (alpha = 2^n)."""
    return cubic_terms(build_hierarchy_equation(2 * j - 1).nonlinearity)


def _support(phi: Field) -> tuple[np.ndarray, np.ndarray]:
    """Offsets k and coefficients of the modes carrying content (above 1e-12
    of the peak, so round-trip FFT dust is ignored), in fftfreq order."""
    coeffs = phi.coefficients()
    amp = np.abs(coeffs)
    support = amp > 1e-12 * amp.max()
    return np.fft.fftfreq(phi.grid.m, d=1.0 / phi.grid.m).astype(np.int64)[support], coeffs[support]


def _max_phase(j: int, grid: Grid, k: np.ndarray) -> float:
    """max |Phi| over the triples of the offsets k, 0 for none; a nan
    propagates.  Phi = -w(k1 - k2 + k3) + w(k1) - w(k2) + w(k3), the solver's
    w = grid.dispersion(j) taken once on 2 min k - max k .. 2 max k - min k.
    With xi2, xi3 fixed, dPhi/dxi1 = F'(xi1) - F'(xi1 + xi3 - xi2) for F =
    xi^(2j), whose derivative increases strictly, so Phi is monotone in xi1,
    and by symmetry in xi3: the maximum lies on the 4S triples whose k1 and
    k3 are each min k or max k."""
    if k.size == 0:
        return 0.0
    lo, hi = int(k.min()), int(k.max())
    base = 2 * lo - hi  # the least k1 - k2 + k3, index 0 of w
    w = grid.dispersion(j, np.arange(base, 2 * hi - lo + 1))
    i1, i2, i3 = np.array([lo, hi])[:, None, None] - base, k[:, None] - base, np.array([lo, hi]) - base
    return float(np.max(np.abs(w[i1] - w[i2] + w[i3] - w[i1 - i2 + i3])))


def max_resonance_phase(j: int, phi: Field) -> float:
    """max |Phi| over interacting mode triples of a packet field, 0 for none;
    a nan propagates.  Phi comes from the solver's grid.dispersion(j), within
    a few ulps of the exact rational phase on the growth fit's packets."""
    return _max_phase(j, phi.grid, _support(phi)[0])


# The six-point Gauss-Legendre rule on [0, 1], as (node, weight) pairs.
_GAUSS_LEGENDRE = ((0.033765242898423986, 0.08566224618958517), (0.16939530676686774, 0.1803807865240693),
                   (0.38069040695840155, 0.23395696728634552), (0.6193095930415985, 0.23395696728634552),
                   (0.8306046932331322, 0.1803807865240693), (0.966234757101576, 0.08566224618958517))
_PICARD_PANELS = 10 ** 5  # the most panels picard3 takes: 30-45 s at M = 64 on a 2-core VM


def picard3(j: int, cubic: DiffPoly, phi: Field, t: float) -> Field:
    """Third Picard iterate of the cubic term, by quadrature in time.

    Under the linear flow exp(-i xi^(2j) t) that the solver integrates, it is
    out(xi) = sum over xi = xi1 - xi2 + xi3 of m(xi1,xi2,xi3) c(xi1)
    conj(c(xi2)) c(xi3) (exp(-i t Phi) - 1)/(-i Phi), leaving out the factor
    -i and the outer propagator, which no norm sees.  As Phi = -w(xi) + w(xi1)
    - w(xi2) + w(xi3) for the solver's w = grid.dispersion(j), out is the
    integral over [0, t] of exp(i s w) N(exp(-i s w) c) ds: the six-point
    Gauss-Legendre rule, a product-kernel evaluation of the cubic per node,
    on ceil(|t| max|Phi|) panels (max|Phi| over the support's triples from
    the same w, at least one), so Phi turns by at most 1 on each; past
    _PICARD_PANELS it raises ValueError.  The image must stay in the window.
    """
    _symbol_terms(cubic)  # a non-cubic or unbalanced term is rejected by name
    grid = phi.grid
    k, a = _support(phi)
    out = np.zeros(grid.m, dtype=np.complex128)
    if k.size == 0 or t == 0.0:
        return Field(grid, out, t)
    lo, hi = int(k.min()), int(k.max())  # k1 - k2 + k3 spans [2 lo - hi, 2 hi - lo]
    if 2 * lo - hi < -(grid.m // 2) or 2 * hi - lo >= grid.m // 2:
        raise ResolutionError("cubic image of the packet leaves the frequency window")
    coeffs = np.zeros(grid.m, dtype=np.complex128)
    coeffs[k] = a  # the support only, as in the sum; negative offsets wrap
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: a nan iterate
        bound = abs(t) * _max_phase(j, grid, k)
        panels = max(math.ceil(bound), 1) if bound < math.inf else 1
        if panels > _PICARD_PANELS:
            raise ValueError(f"|t| max|Phi| = {bound:.6g} needs more than {_PICARD_PANELS} panels")
        w, evaluator, h = grid.dispersion(j), NonlinearEvaluator(cubic), t / panels
        for panel in range(panels):
            for node, weight in _GAUSS_LEGENDRE:
                turn = np.exp(1j * (h * (panel + node)) * w)
                out += (h * weight) * turn * evaluator.rhs_coefficients(grid, coeffs * np.conj(turn))
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
    the packet fields are kept: :func:`max_resonance_phase` takes each one's
    max|Phi| for t, and :func:`picard3` its iterate.
    """
    _flow_index(j)
    if len(set(N_list)) < 4:
        raise FitDegenerate("need at least 4 distinct packet frequencies")
    cubic = hierarchy_cubic(j)
    fields = []
    for N in N_list:
        try:
            spec = PacketSpec(N=float(N), j=j, s=s, r=r)
        except OverflowError:
            raise ResolutionError(f"N = {N} is past the float range") from None
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
    for start in range(0, count, _RESONANCE_BLOCK):
        x1, b, x3 = (rng.uniform(-1.0, 1.0, min(_RESONANCE_BLOCK, count - start)) for rng in rows)
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: nan
            total = np.abs(x1 + b + x3)  # |xi1 - xi2 + xi3|, the middle draw b being -xi2
            a1, a2, a3 = np.abs(x1), np.abs(b), np.abs(x3)  # apart, as one tuple peaks a row higher
            lhs = np.abs(total ** alpha - a1 ** alpha + a2 ** alpha - a3 ** alpha)
            ximax = np.maximum(np.maximum(np.maximum(a1, a2), a3), total)
            rhs = np.abs(x1 + b) * np.abs(b + x3) * ximax ** (alpha - 2)
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
    column blocks: row r from a copy of the generator advanced by r * count
    outputs, one uniform double per output.

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
