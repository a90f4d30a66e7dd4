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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import DiffPoly
from .hierarchy import build_hierarchy_equation, cubic_terms
from .spectral import Field, Grid

__all__ = [
    "NormSpec",
    "PacketSpec",
    "ResonanceStats",
    "GrowthFit",
    "LipschitzProbe",
    "BoundaryDecayViolation",
    "ResolutionError",
    "FitDegenerate",
    "hat_norm",
    "modulation_norm",
    "gauge_apply_numeric",
    "packet_grid",
    "packet_datum",
    "cubic_symbol",
    "resonance_phase",
    "max_resonance_phase",
    "picard3",
    "growth_exponent_fit",
    "predicted_growth_exponent",
    "resonance_ratio_stats",
    "gauge_lipschitz_probe",
    "hierarchy_cubic",
]


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
        if self.kind == "fourier_lebesgue" and not self.exponent > 1:
            raise ValueError("Fourier-Lebesgue exponent must satisfy r > 1")
        if self.kind == "modulation" and not self.exponent >= 1:
            raise ValueError("modulation exponent must satisfy p >= 1")

    def __call__(self, f: Field) -> float:
        if self.kind == "fourier_lebesgue":
            return hat_norm(f, self.s, self.exponent)
        return modulation_norm(f, self.s, self.exponent)


def _dual_exponent(r: float) -> float:
    """Hölder dual r' = r/(r - 1) of a Fourier-Lebesgue exponent 1 < r <= inf."""
    if not r > 1:
        raise ValueError(f"Fourier-Lebesgue exponent must satisfy r > 1, not {r!r}")
    return r / (r - 1) if np.isfinite(r) else 1.0


def _hat_values(f: Field) -> tuple[np.ndarray, np.ndarray, float]:
    """(true frequencies, unitary-convention u_hat samples, dxi)."""
    grid = f.grid
    return grid.true_frequencies, f.coefficients() * np.sqrt(2 * np.pi) / grid.dxi, grid.dxi


def hat_norm(f: Field, s: float, r: float) -> float:
    """Weighted Fourier-Lebesgue norm: l^{r'} of <xi>^s u_hat with dxi weight."""
    rp = _dual_exponent(r)
    xi, uhat, dxi = _hat_values(f)
    # A weight past the float range is inf, and inf times an amplitude of 0
    # (perhaps underflowed) is nan: an overflowing norm is inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = (1 + xi ** 2) ** (s / 2) * np.abs(uhat)
        return float((dxi * np.sum(weighted ** rp)) ** (1.0 / rp))


@lru_cache(maxsize=16)
def _unit_boxes(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, n, starts) of the modes stably sorted by unit box n = floor(xi + 1/2)."""
    boxes = np.floor(grid.true_frequencies + 0.5).astype(np.int64)
    order = np.argsort(boxes, kind="stable")
    cached = (order, *np.unique(boxes[order], return_index=True))
    for a in cached:
        a.flags.writeable = False  # shared by every call on this grid
    return cached


def modulation_norm(f: Field, s: float, p: float) -> float:
    """l^p over unit boxes of <n>^s times the L^2 mass captured by each box."""
    _, uhat, dxi = _hat_values(f)
    order, uniq, starts = _unit_boxes(f.grid)
    sums = np.add.reduceat(dxi * np.abs(uhat[order]) ** 2, starts)
    with np.errstate(over="ignore", invalid="ignore"):  # as in hat_norm
        weighted = (1 + uniq.astype(float) ** 2) ** (s / 2) * np.sqrt(sums)
        if np.isinf(p):
            return float(np.max(weighted)) if weighted.size else 0.0
        return float(np.sum(weighted ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Numeric gauge map
# ---------------------------------------------------------------------------

def gauge_apply_numeric(f: Field, direction: int) -> Field:
    """Multiply by exp(direction * i * Phi), Phi(x) = integral of |f|^2 from x=0.

    The grid stands in for the line, so the datum must vanish at the left
    boundary (below 1e-8 on the first 1% of points).  The modulus is untouched
    and opposite directions invert each other exactly.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    grid = f.grid
    head = max(1, grid.m // 100)
    if np.max(np.abs(f.values[:head])) >= 1e-8:
        raise BoundaryDecayViolation(
            f"|samples| up to {np.max(np.abs(f.values[:head])):.3e} on the first {head} points"
        )
    g = np.abs(f.values) ** 2
    ghat = np.fft.fft(g) / grid.m
    mean = ghat[0].real
    xi = grid.wavenumbers
    tilde = ghat.copy()
    tilde[0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tilde[1:] = tilde[1:] / (1j * xi[1:])
    anti = np.fft.ifft(tilde) * grid.m
    phi = (anti - anti[0]).real + mean * grid.x
    return Field(grid, np.exp(1j * direction * phi) * f.values, f.time)


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


def packet_datum(spec: PacketSpec, grid: Grid) -> Field:
    """Field with u_hat = gamma^(-1/r') N^(-s) on [N, N + gamma), zero elsewhere."""
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
    terms = []  # (coefficient, a, b, c) per cubic monomial ∂^a q · ∂^b r · ∂^c q
    for factors, coeff in cubic.items():
        if len(factors) != 3:
            raise ValueError("polynomial has a non-cubic term")
        (v1, a), (v2, c), (v3, b) = factors  # q sorts before r, and by ascending order
        if (v1, v2, v3) != ("q", "q", "r"):
            raise ValueError("cubic term is not phase balanced")
        terms.append((complex(coeff), a, b, c))

    def m(x1, x2, x3):
        total = 0
        for coeff, a, b, c in terms:
            sym = ((1j * x1) ** a * (1j * x3) ** c + (1j * x3) ** a * (1j * x1) ** c) / 2
            total = total + coeff * (-1j * x2) ** b * sym
        return total

    return m


def resonance_phase(j: int, x1, x2, x3):
    """Phi = -xi^(2j) + xi1^(2j) - xi2^(2j) + xi3^(2j), xi = xi1 - xi2 + xi3.

    Evaluated in the factored form (xi1 - xi2) * [S(xi1, xi2) - S(xi, xi3)]
    with S the complete homogeneous symmetric sum, which avoids the
    catastrophic cancellation of the naive power differences at high carrier
    frequency.
    """
    xi = x1 - x2 + x3
    band = 0
    for mdeg in range(2 * j):
        band = band + x1 ** mdeg * x2 ** (2 * j - 1 - mdeg) - xi ** mdeg * x3 ** (2 * j - 1 - mdeg)
    return (x1 - x2) * band


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


def _phased_support(j: int, phi: Field):
    """The support axes of phi and the resonance phase on their triples."""
    axes = _support_axes(phi)
    return axes, resonance_phase(j, *axes[2])


def _max_abs(phase: np.ndarray) -> float:
    return float(np.max(np.abs(phase))) if phase.size else 0.0


def picard3(j: int, cubic: DiffPoly, phi: Field, t: float) -> Field:
    """Third Picard iterate of the cubic term, by direct simplex summation.

    In coefficient space:  out(xi) = sum over xi = xi1 - xi2 + xi3 of
    m(xi1,xi2,xi3) c(xi1) conj(c(xi2)) c(xi3) * (exp(i t Phi) - 1)/(i Phi),
    the removable singularity at Phi = 0 taking the value t.  The unimodular
    outer propagator is omitted; no norm can see it.  Phase and symbol take
    the S support modes as broadcast axes, so powers run on S values and only
    sums, kernel and scatter on S^3 triples; ufuncs act elementwise, so this
    is bit-identical to the meshgrid sum kept as the test oracle.
    """
    return _picard3(cubic, phi.grid, *_phased_support(j, phi), t)


def _picard3(cubic: DiffPoly, grid: Grid, axes, phase: np.ndarray, t: float) -> Field:
    """picard3 on the support axes and phase of :func:`_phased_support`."""
    m_fn = cubic_symbol(cubic)
    (k1, k2, k3), (a1, a2, a3), (x1, x2, x3) = axes
    out = np.zeros(grid.m, dtype=np.complex128)
    if k1.size == 0 or t == 0.0:
        return Field(grid, out, t)
    # (e^{i t Phi} - 1)/(i Phi) = t e^{i t Phi / 2} sinc(t Phi / 2), |.| <= t
    kernel = t * np.exp(0.5j * t * phase) * np.sinc(t * phase / (2 * np.pi))
    contrib = m_fn(x1, x2, x3) * a1 * np.conj(a2) * a3 * kernel
    k_out = (k1 - k2 + k3).ravel()
    if k_out.min() < -(grid.m // 2) or k_out.max() >= grid.m // 2:
        raise ResolutionError("cubic image of the packet leaves the frequency window")
    np.add.at(out, np.mod(k_out, grid.m), contrib.ravel())
    return Field.from_coefficients(grid, out, t)


def max_resonance_phase(j: int, phi: Field) -> float:
    """max |Phi| over interacting mode triples of a packet field."""
    return _max_abs(_phased_support(j, phi)[1])


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


def growth_exponent_fit(j: int, s: float, r: float, N_list: list[int]) -> GrowthFit:
    """Fit log ||picard3|| against log N for characteristic-function packets.

    The evaluation time t is fixed across N with t * max|Phi| <= 0.1, keeping
    every interaction inside the t-linear regime of the Duhamel kernel.  Each
    packet's resonance phase is computed once, for t and for its iterate.
    """
    if len(set(N_list)) < 4:
        raise FitDegenerate("need at least 4 distinct packet frequencies")
    cubic = hierarchy_cubic(j)
    packets = []
    for N in N_list:
        spec = PacketSpec(N=float(N), j=j, s=s, r=r)
        grid = packet_grid(spec)
        packets.append((grid, *_phased_support(j, packet_datum(spec, grid))))
    phi_max = max(_max_abs(phase) for _, _, phase in packets)
    t = 0.1 / phi_max if phi_max > 0 else 0.1
    norms = [hat_norm(_picard3(cubic, *packet, t), s, r) for packet in packets]
    if not np.all(np.isfinite(norms)):
        raise FitDegenerate("non-finite third-iterate norm")
    if any(not v > 0 for v in norms):
        raise FitDegenerate("vanishing third-iterate norm")
    logN = np.log(np.asarray(N_list, dtype=float))
    logv = np.log(np.asarray(norms))
    (slope, intercept), cov = np.polyfit(logN, logv, 1, cov=True)
    residuals = logv - (slope * logN + intercept)
    return GrowthFit(
        j=j,
        s=s,
        r=r,
        t=t,
        N_values=tuple(float(N) for N in N_list),
        norms=tuple(float(v) for v in norms),
        slope=float(slope),
        intercept=float(intercept),
        stderr=float(np.sqrt(cov[0, 0])),
        residuals=tuple(float(v) for v in residuals),
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


_RESONANCE_BLOCK = 1 << 16  # columns of the (3, count) draw sampled at a time


def resonance_ratio_stats(j: int, count: int, seed: int) -> ResonanceStats:
    """Sample lhs/rhs of the resonance comparison over random triples.

    With xi = xi1 - xi2 + xi3 and alpha = 2j:

        lhs = | |xi|^alpha - |xi1|^alpha + |xi2|^alpha - |xi3|^alpha |,
        rhs = |xi1 - xi2| |xi2 - xi3| max(|xi|, |xi1|, |xi2|, |xi3|)^(alpha-2).

    Each xi_i is uniform on [-1, 1] (xi2 is the negated draw).  Near-resonant
    triples (rhs below 1e-9, where both sides vanish) are discarded; the statistics of the remaining ratios probe
    the implied lower bound.

    The draws are ``default_rng(seed).uniform(-1, 1, (3, count))``, taken in
    column blocks: a uniform double is one PCG64 output, so row r starts
    r * count outputs in.
    """
    if count < 1:
        raise ValueError("count must be positive")
    alpha = 2.0 * j
    rows = [np.random.default_rng(seed) for _ in range(3)]
    for row, rng in enumerate(rows):
        rng.bit_generator.advance(row * count)
    ratios = np.empty(count)
    kept = 0
    for start in range(0, count, _RESONANCE_BLOCK):
        size = min(_RESONANCE_BLOCK, count - start)
        xi = np.stack([rng.uniform(-1.0, 1.0, size) for rng in rows])
        xi[1] = -xi[1]
        total = xi[0] - xi[1] + xi[2]
        a = np.abs(xi)
        lhs = np.abs(np.abs(total) ** alpha - a[0] ** alpha + a[1] ** alpha - a[2] ** alpha)
        ximax = np.maximum(a.max(axis=0), np.abs(total))
        rhs = np.abs(xi[0] - xi[1]) * np.abs(xi[1] - xi[2]) * ximax ** (alpha - 2)
        keep = rhs >= 1e-9
        block = lhs[keep] / rhs[keep]
        ratios[kept:kept + block.size] = block
        kept += block.size
    ratios = ratios[:kept]
    return ResonanceStats(
        alpha=alpha,
        count_requested=count,
        count_kept=kept,
        min_ratio=float(np.min(ratios)),
        median_ratio=float(np.median(ratios, overwrite_input=True)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Gauge continuity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzProbe:
    s: float
    p: float
    radius: float
    trials: int
    seed: int
    max_ratio: float
    pairs_used: int


def gauge_lipschitz_probe(
    s: float,
    p: float,
    radius: float,
    trials: int,
    seed: int = 0,
) -> LipschitzProbe:
    """Largest observed modulation-norm ratio ||G-(u) - G-(v)|| / ||u - v||
    over random localized pairs inside the ball of the given radius, on a
    256-point grid of length 32 pi."""
    if not s > 0.5 - 1.0 / p:
        raise ValueError("need s > 1/2 - 1/p for the gauge map to act on this space")
    grid = Grid(256, 32 * np.pi)
    rng = np.random.default_rng(seed)
    spec = NormSpec("modulation", s, p)
    # random fields on modes |k| <= 6, decaying as (1 + |k|)^-2, under a
    # Gaussian window of width L/16 at the centre
    ks = np.fft.fftfreq(grid.m, d=1.0 / grid.m).astype(int)
    band = np.abs(ks) <= 6
    nb = int(np.count_nonzero(band))
    decay = (1 + np.abs(ks[band])) ** 2
    window = np.exp(-((grid.x - grid.length / 2) ** 2) / (2 * (grid.length / 16) ** 2))
    max_ratio = 0.0
    used = 0
    for _ in range(trials):
        fields = []
        for _ in range(2):
            coeffs = np.zeros(grid.m, dtype=np.complex128)
            coeffs[band] = (rng.normal(size=nb) + 1j * rng.normal(size=nb)) / decay
            f = Field(grid, np.fft.ifft(coeffs) * grid.m * window)
            norm = spec(f)
            target = radius * rng.uniform(0.3, 1.0)
            fields.append(Field(grid, f.values * (target / norm)))
        u, v = fields
        denom = spec(Field(grid, u.values - v.values))
        if denom < 1e-12:
            continue
        gu = gauge_apply_numeric(u, -1)
        gv = gauge_apply_numeric(v, -1)
        ratio = spec(Field(grid, gu.values - gv.values)) / denom
        used += 1
        max_ratio = max(max_ratio, ratio)
    return LipschitzProbe(s, p, radius, trials, seed, float(max_ratio), used)
