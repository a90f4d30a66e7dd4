"""Shared oracles and strategies.

The oracles here are deliberately independent of the library code paths they
check: norms are computed from the definition with an O(M^2) DFT, nonlinear
evaluation by direct summation of mode convolutions, never through the FFT
pipeline under test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from dnls_hierarchy.algebra import DiffPoly, Factors, GaussianRational, grading, pack
from dnls_hierarchy.analysis import ResolutionError, ResonanceStats, cubic_symbol, resonance_phase
from dnls_hierarchy.spectral import Field, Grid

# ---------------------------------------------------------------------------
# Hypothesis strategies for exact polynomials
# ---------------------------------------------------------------------------

_small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

gaussian_rationals = st.builds(GaussianRational, _small_fraction, _small_fraction)

_nonzero_gaussian_rationals = gaussian_rationals.filter(bool)

@st.composite
def diff_polys(draw, max_terms: int = 4, allow_constant: bool = True, max_order: int = 3,
               max_factors: int = 3):
    """Sums of up to ``max_terms`` monomials of up to ``max_factors`` factors.

    Each monomial draws its factors from a pool of at most three, so
    repeated factors are common once ``max_factors`` exceeds the pool.
    """
    factor = st.tuples(st.sampled_from(["q", "r"]), st.integers(0, max_order))
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    acc = DiffPoly.zero()
    for _ in range(n_terms):
        coeff = draw(_nonzero_gaussian_rationals)
        pool = draw(st.lists(factor, min_size=1, max_size=3))
        factors = tuple(draw(st.lists(st.sampled_from(pool), max_size=max_factors)))
        if not allow_constant and not factors:
            factors = (("q", 0),)
        acc = acc + DiffPoly.monomial(coeff, factors)
    return acc


def order_of(factors: Factors) -> int:
    """A monomial's order, 2 * #derivatives + #factors, from its grading."""
    nq, nr, d = grading(pack(factors))
    return 2 * d + nq + nr


# ---------------------------------------------------------------------------
# Exact oracle: the ring on sorted factor tuples, as DiffPoly.items() gives them
# ---------------------------------------------------------------------------

Terms = tuple[tuple[Factors, GaussianRational], ...]


def tuple_collect(pairs) -> Terms:
    """Merge equal factor tuples, drop zeros, sort by factors."""
    acc: dict[Factors, GaussianRational] = {}
    for f, c in pairs:
        s = acc.get(f)
        acc[f] = c if s is None else s + c
    return tuple(sorted(((f, c) for f, c in acc.items() if c), key=lambda t: t[0]))


def tuple_mul(a: Terms, b: Terms) -> Terms:
    return tuple_collect((tuple(sorted(f1 + f2)), c1 * c2) for f1, c1 in a for f2, c2 in b)


def tuple_dx(a: Terms) -> Terms:
    """Leibniz rule: raise each factor's order in turn."""
    return tuple_collect(
        (tuple(sorted(f[:idx] + ((var, order + 1),) + f[idx + 1:])), c)
        for f, c in a
        for idx, (var, order) in enumerate(f)
    )


def tuple_partial(a: Terms, var: str, order: int) -> Terms:
    target = (var, order)
    return tuple_collect(
        (f[:idx] + f[idx + 1:], c * GaussianRational(f.count(target)))
        for f, c in a
        if target in f
        for idx in (f.index(target),)
    )


def tuple_conj(a: Terms) -> Terms:
    return tuple_collect(
        (tuple(sorted(("r" if v == "q" else "q", o) for v, o in f)), c.conjugate()) for f, c in a
    )


# ---------------------------------------------------------------------------
# Numerical oracles
# ---------------------------------------------------------------------------

def random_band_field(grid: Grid, kmax: int, seed: int, decay: float = 2.0) -> Field:
    """Random band-limited field with polynomially decaying spectrum."""
    rng = np.random.default_rng(seed)
    ks = np.fft.fftfreq(grid.m, d=1.0 / grid.m).astype(int)
    coeffs = np.zeros(grid.m, dtype=np.complex128)
    band = np.abs(ks) <= kmax
    nb = int(np.count_nonzero(band))
    coeffs[band] = (rng.normal(size=nb) + 1j * rng.normal(size=nb)) / (
        1.0 + np.abs(ks[band])
    ) ** decay
    return Field(grid, np.fft.ifft(coeffs) * grid.m)


def convolution_oracle(nl: DiffPoly, f: Field) -> np.ndarray:
    """Spectral coefficients of N(u) by direct mode-convolution sums."""
    grid = f.grid
    m = grid.m
    coeffs = np.fft.fft(f.values) / m
    ks = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    order = np.argsort(ks)
    ks_sorted = ks[order]
    out: dict[int, complex] = {}
    for factors, coeff in nl.items():
        spec = None
        kmin = 0
        for var, od in factors:
            amp = (coeffs * (1j * ks * grid.dxi) ** od)[order]
            lo = ks_sorted[0]
            if var == "r":
                amp = np.conj(amp[::-1])  # conj(u) spectrum lives at negated modes
                lo = -ks_sorted[-1]
            if spec is None:
                spec, kmin = amp, lo
            else:
                spec = np.convolve(spec, amp)
                kmin += lo
        cval = complex(coeff)
        for idx, val in enumerate(spec):
            k = kmin + idx
            out[k] = out.get(k, 0.0) + cval * val
    result = np.zeros(m, dtype=np.complex128)
    for idx, k in enumerate(ks):
        result[idx] = out.get(int(k), 0.0)
    return result


def per_order_rows(orders, coeffs: np.ndarray, xi: np.ndarray, p: int) -> dict:
    """Each derivative order synthesised by its own zero-padded inverse FFT
    scaled by p.  With p a power of two the scaling is exact, so the batched
    synthesis must agree bit for bit."""
    m = len(coeffs)
    half = m // 2
    rows = {}
    for order in orders:
        spec = coeffs * (1j * xi) ** order
        rows[order] = np.fft.ifft(np.concatenate((spec[:half], np.zeros(p - m), spec[half:]))) * p
    return rows


def per_factor_products(terms, coeffs: np.ndarray, xi: np.ndarray, p: int) -> np.ndarray:
    """The product kernel term by term: every factor from ``per_order_rows``,
    each term multiplied out on its own and added to the sum in the order
    given, the sum folded by a forward FFT divided by p."""
    half = len(coeffs) // 2
    rows = per_order_rows({order for _, factors in terms for _, order in factors}, coeffs, xi, p)
    total = np.zeros(p, dtype=np.complex128)
    for coeff, factors in terms:
        prod = coeff
        for var, order in factors:
            prod = prod * (rows[order] if var == "q" else np.conj(rows[order]))
        total += prod
    spec = np.fft.fft(total) / p
    return np.concatenate((spec[:half], spec[p - half:]))


def expand_schedule(node, prefix=()) -> list:
    """The (coefficient, sorted factors) pairs a product schedule stands for."""
    const, branches = node
    out = [(const, tuple(sorted(prefix)))] if const else []
    for key, child in branches:
        if isinstance(child, complex):
            out.append((child, tuple(sorted(prefix + (key,)))))
        else:
            out += expand_schedule(child, prefix + (key,))
    return out


def hat_norm_oracle(f: Field, s: float, r: float) -> float:
    """Fourier-Lebesgue norm straight from the definition (O(M^2) DFT)."""
    grid = f.grid
    x = grid.x
    uhat = np.array(
        [
            grid.length / grid.m * np.sum(f.values * np.exp(-1j * xi * x))
            for xi in grid.wavenumbers
        ]
    ) / np.sqrt(2 * np.pi)
    xis = grid.true_frequencies
    rp = r / (r - 1) if np.isfinite(r) else 1.0
    weighted = (1 + xis ** 2) ** (s / 2) * np.abs(uhat)
    return float((grid.dxi * np.sum(weighted ** rp)) ** (1 / rp))


def modulation_norm_oracle(f: Field, s: float, p: float) -> float:
    """Modulation norm from the definition, box by box."""
    grid = f.grid
    x = grid.x
    uhat = np.array(
        [
            grid.length / grid.m * np.sum(f.values * np.exp(-1j * xi * x))
            for xi in grid.wavenumbers
        ]
    ) / np.sqrt(2 * np.pi)
    boxes: dict[int, float] = {}
    for xi, amp in zip(grid.true_frequencies, uhat):
        n = int(np.floor(xi + 0.5))
        boxes[n] = boxes.get(n, 0.0) + grid.dxi * abs(amp) ** 2
    values = [(1 + n * n) ** (s / 2) * np.sqrt(e) for n, e in boxes.items()]
    if np.isinf(p):
        return float(max(values))
    return float(sum(v ** p for v in values) ** (1 / p))


def modulation_norm_boxes_oracle(f: Field, s: float, p: float) -> float:
    """Modulation norm with the unit-box partition sorted anew on every call:
    the library takes the same partition from a per-grid cache, so the two
    agree bit for bit when the cache returns the right grid's boxes."""
    grid = f.grid
    xi = grid.true_frequencies
    uhat = np.fft.fft(f.values) / grid.m * np.sqrt(2 * np.pi) / grid.dxi
    boxes = np.floor(xi + 0.5).astype(np.int64)
    order = np.argsort(boxes, kind="stable")
    boxes_sorted = boxes[order]
    energy2 = grid.dxi * np.abs(uhat[order]) ** 2
    uniq, starts = np.unique(boxes_sorted, return_index=True)
    sums = np.add.reduceat(energy2, starts)
    weighted = (1 + uniq.astype(float) ** 2) ** (s / 2) * np.sqrt(sums)
    if np.isinf(p):
        return float(np.max(weighted)) if weighted.size else 0.0
    return float(np.sum(weighted ** p) ** (1.0 / p))


class ResonanceSample(NamedTuple):
    lhs: float
    rhs: float


def resonance_sample_oracle(xi1: float, xi2: float, xi3: float, alpha: float) -> ResonanceSample:
    """Both sides of the resonance comparison at one triple, xi = xi1 - xi2 + xi3."""
    xi = xi1 - xi2 + xi3
    lhs = abs(abs(xi) ** alpha - abs(xi1) ** alpha + abs(xi2) ** alpha - abs(xi3) ** alpha)
    ximax = max(abs(xi1), abs(xi2), abs(xi3), abs(xi))
    rhs = abs(xi1 - xi2) * abs(xi2 - xi3) * ximax ** (alpha - 2)
    return ResonanceSample(lhs, rhs)


def resonance_stats_oracle(j: int, count: int, seed: int) -> ResonanceStats:
    """Resonance statistics from the whole (3, count) draw at once; the
    library samples the same draw in column blocks."""
    alpha = 2.0 * j
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-1.0, 1.0, size=(3, count))
    xi[1] = -xi[1]
    total = xi[0] - xi[1] + xi[2]
    lhs = np.abs(
        np.abs(total) ** alpha
        - np.abs(xi[0]) ** alpha
        + np.abs(xi[1]) ** alpha
        - np.abs(xi[2]) ** alpha
    )
    ximax = np.maximum(np.abs(xi).max(axis=0), np.abs(total))
    rhs = np.abs(xi[0] - xi[1]) * np.abs(xi[1] - xi[2]) * ximax ** (alpha - 2)
    keep = rhs >= 1e-9
    ratios = lhs[keep] / rhs[keep]
    return ResonanceStats(
        alpha=alpha,
        count_requested=count,
        count_kept=int(np.count_nonzero(keep)),
        min_ratio=float(np.min(ratios)),
        median_ratio=float(np.median(ratios)),
        seed=seed,
    )


def _support_indices(coeffs: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Indices of the modes above rel_tol of the peak (none for a zero field)."""
    peak = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if peak == 0.0:
        return np.empty(0, dtype=np.int64)
    return np.nonzero(np.abs(coeffs) > rel_tol * peak)[0]


def picard3_oracle(j: int, cubic: DiffPoly, phi: Field, t: float) -> Field:
    """Third Picard iterate summed over meshgrid triples of the support modes:
    every power of the phase and the symbol is taken on all S^3 triples.

    It shares `resonance_phase` and `cubic_symbol` with the library, whose
    formulas have their own tests; it checks the broadcast evaluation.
    """
    grid = phi.grid
    m_fn = cubic_symbol(cubic)
    coeffs = phi.coefficients()
    ks = np.fft.fftfreq(grid.m, d=1.0 / grid.m).astype(np.int64)
    support = _support_indices(coeffs)
    out = np.zeros(grid.m, dtype=np.complex128)
    if support.size == 0 or t == 0.0:
        return Field(grid, np.zeros(grid.m, dtype=np.complex128), t)
    k_sup = ks[support]
    c_sup = coeffs[support]
    k1, k2, k3 = np.meshgrid(k_sup, k_sup, k_sup, indexing="ij")
    a1, a2, a3 = np.meshgrid(c_sup, c_sup, c_sup, indexing="ij")
    x1 = grid.xi0 + k1 * grid.dxi
    x2 = grid.xi0 + k2 * grid.dxi
    x3 = grid.xi0 + k3 * grid.dxi
    phase = resonance_phase(j, x1, x2, x3)
    kernel = t * np.exp(0.5j * t * phase) * np.sinc(t * phase / (2 * np.pi))
    contrib = m_fn(x1, x2, x3) * a1 * np.conj(a2) * a3 * kernel
    k_out = (k1 - k2 + k3).ravel()
    idx = np.mod(k_out, grid.m)
    if np.any(ks[idx] != k_out):
        raise ResolutionError("cubic image of the packet leaves the frequency window")
    np.add.at(out, idx, contrib.ravel())
    return Field.from_coefficients(grid, out, t)


def max_resonance_phase_oracle(j: int, phi: Field) -> float:
    """max |Phi| over meshgrid triples of the support modes."""
    grid = phi.grid
    coeffs = phi.coefficients()
    ks = np.fft.fftfreq(grid.m, d=1.0 / grid.m).astype(np.int64)
    support = _support_indices(coeffs)
    if support.size == 0:
        return 0.0
    k_sup = ks[support]
    k1, k2, k3 = np.meshgrid(k_sup, k_sup, k_sup, indexing="ij")
    x1 = grid.xi0 + k1 * grid.dxi
    x2 = grid.xi0 + k2 * grid.dxi
    x3 = grid.xi0 + k3 * grid.dxi
    return float(np.max(np.abs(resonance_phase(j, x1, x2, x3))))


def l2_distance(a: Field, b: Field) -> float:
    return float(np.sqrt(a.grid.dx * np.sum(np.abs(a.values - b.values) ** 2)))
