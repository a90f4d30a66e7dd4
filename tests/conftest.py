"""Shared oracles and strategies.

The oracles here are deliberately independent of the library code paths they
check: norms are computed from the definition with an O(M^2) DFT, nonlinear
evaluation by direct summation of mode convolutions, never through the FFT
pipeline under test; the Euler operator and the antiderivative by DiffPoly
operations in Gaussian rationals, never on the library's integer numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from dnls_hierarchy.algebra import (
    DiffPoly,
    Factors,
    GaussianRational,
    NotExact,
    fmt_fraction,
    grading,
    pack,
    poly_to_json,
    unpack,
    variational_derivative,
)
from dnls_hierarchy.analysis import (
    LipschitzProbe,
    NormSpec,
    ResolutionError,
    ResonanceStats,
    cubic_symbol,
    gauge_apply_numeric,
)
from dnls_hierarchy import hierarchy
from dnls_hierarchy.hierarchy import hamiltonian_density
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
# Exact oracle: every equation derived on its own from its Hamiltonian flow
# ---------------------------------------------------------------------------

class OracleFlow(NamedTuple):
    """An equation's frame, g and N as the oracle derives them, each on its own."""

    n: int
    alpha: GaussianRational
    parity: str
    j: int | None
    lhs_coeff: GaussianRational
    nonlinearity: DiffPoly
    canonical: bool

    def to_json(self) -> dict:
        def number(c: GaussianRational) -> dict:
            return {"re": fmt_fraction(c.re), "im": fmt_fraction(c.im)}

        return {
            "n": self.n,
            "j": self.j,
            "parity": self.parity,
            "alpha": number(self.alpha),
            "linear": {"order": self.n + 1, "sign": number(self.lhs_coeff),
                       "canonical": self.canonical},
            "nonlinearity": poly_to_json(self.nonlinearity),
        }


def hamiltonian_equation_oracle(n: int, alpha) -> OracleFlow:
    """The n-th equation straight from i q_t = 2 alpha dx(delta/delta r [q Y_n]).

    The linear coefficient is checked against its closed form
    (-1)^(n+1) 2 alpha / (2i)^(n+1), and each parity is put in its frame,
    and its canonical ±1 read off, by its own branch; the library scales one
    cached unit form and derives g from (n, alpha) instead.
    """
    if not isinstance(alpha, GaussianRational):
        alpha = GaussianRational.of(alpha)
    rhs = variational_derivative(hamiltonian_density(n), "r").dx().scale(alpha.scale(2))
    lin_key = (("q", n + 1),)
    observed = rhs.coefficient(lin_key)
    expected = GaussianRational.two_i_pow(-(n + 1)).scale(-2 if n % 2 == 0 else 2) * alpha
    assert observed == expected, f"linear coefficient {observed!r} != {expected!r} at n={n}"
    nonlinear = rhs - DiffPoly.monomial(observed, lin_key)
    if n == 0:
        # i q_t = i alpha q_x  ->  q_t - alpha q_x = 0
        assert nonlinear.is_zero
        return OracleFlow(0, alpha, "transport", None, -alpha, DiffPoly.zero(), True)
    if n % 2 == 1:
        # i q_t + g ∂^(2j) q = N with g = -observed, canonical g = (-1)^(j+1)
        j = (n + 1) // 2
        g = -observed
        return OracleFlow(n, alpha, "schrodinger", j, g, nonlinear,
                              g == GaussianRational.of((-1) ** (j + 1)))
    # even n: q_t = -i rhs  ->  q_t + g ∂^(n+1) q = N, canonical g = (-1)^(n/2+1)
    minus_i = GaussianRational.of(0, -1)
    g = -(minus_i * observed)
    return OracleFlow(n, alpha, "mkdv", None, g, nonlinear.scale(minus_i),
                          g == GaussianRational.of((-1) ** (n // 2 + 1)))


# ---------------------------------------------------------------------------
# Exact oracle: the twisted substitution in Gaussian-rational arithmetic
# ---------------------------------------------------------------------------

_QR = DiffPoly.variable("q") * DiffPoly.variable("r")


@lru_cache(maxsize=None)
def _twisted_q_power(order: int, direction: int) -> DiffPoly:
    """(∂_x + direction*i*q*r)^order applied to q, expanded exactly."""
    if order == 0:
        return DiffPoly.variable("q")
    w = _twisted_q_power(order - 1, direction)
    return w.dx() + (_QR * w).scale(GaussianRational.of(0, direction))


def twist_oracle(p: DiffPoly, direction: int) -> DiffPoly:
    """∂_x^k q -> (∂_x + direction*i*qr)^k q and the conjugate rule for r, on
    DiffPoly values: each twisted power built by dx and a product, an
    r-factor's by ``conj``, and every monomial expanded in Horner form."""

    def horner(terms: list[tuple[Factors, GaussianRational]]) -> DiffPoly:
        out, groups = [], {}
        for factors, coeff in terms:
            if factors:
                groups.setdefault(factors[0], []).append((factors[1:], coeff))
            else:
                out.append(DiffPoly.constant(coeff))
        for (var, order), rest in groups.items():
            piece = _twisted_q_power(order, direction)
            out.append((piece.conj() if var == "r" else piece) * horner(rest))
        return DiffPoly.sum(out)

    terms = []
    for key, coeff in p.terms():
        nq, nr, _ = grading(key)
        assert nq == nr + 1, "the oracle takes phase-balanced polynomials only"
        terms.append((unpack(key)[::-1], coeff))
    return horner(terms)


# ---------------------------------------------------------------------------
# Exact oracle: integration by parts in Gaussian-rational arithmetic
# ---------------------------------------------------------------------------

def _factor_grading(key: int) -> tuple[int, int, int]:
    """(#q, #r, #derivatives), counted on the factor tuple."""
    factors = unpack(key)
    nq = sum(var == "q" for var, _ in factors)
    return nq, len(factors) - nq, sum(order for _, order in factors)


def euler_tails_oracle(p: DiffPoly, var: str, lowest: int = 0):
    """(k, T_k) for k from the highest order of ``var`` in p down to ``lowest``,
    T_k = ∂p/∂(∂_x^k var) - dx T_(k+1), each step a DiffPoly operation."""
    orders = [order for key, _ in p.terms() for v, order in unpack(key) if v == var]
    tail = DiffPoly.zero()
    for k in range(max(orders, default=-1), lowest - 1, -1):
        tail = p.partial(var, k) - tail.dx()
        yield k, tail


def variational_derivative_oracle(p: DiffPoly, var: str) -> DiffPoly:
    """The Euler operator: the last Euler tail T_0."""
    tail = DiffPoly.zero()
    for _, tail in euler_tails_oracle(p, var):
        pass
    return tail


def _homotopy_oracle(block: DiffPoly, degree: int) -> DiffPoly:
    """The homotopy operator on a block homogeneous of the given degree,
    (1/degree) sum_var sum_(k>=1) ∂^(k-1) var * T_k, by DiffPoly products."""
    pieces = [
        DiffPoly.variable(var, k - 1) * tail
        for var in ("q", "r")
        for k, tail in euler_tails_oracle(block, var, 1)
    ]
    return DiffPoly.sum(pieces).scale(Fraction(1, degree))


def antiderivative_oracle(p: DiffPoly) -> DiffPoly:
    """The homotopy antiderivative block by block in Gaussian rationals: each
    graded block a DiffPoly, its primitive checked by ``dx`` and the first
    block without one, in the order of ``p.terms()``, raised as NotExact."""
    blocks: dict[tuple[int, int, int], list] = {}
    for key, coeff in p.terms():
        blocks.setdefault(_factor_grading(key), []).append((key, coeff))
    result = []
    for (nq, nr, _), terms in blocks.items():
        block = DiffPoly(terms)
        primitive = _homotopy_oracle(block, nq + nr) if nq + nr else DiffPoly.zero()
        if primitive.dx() != block:
            raise NotExact(block)
        result.append(primitive)
    return DiffPoly.sum(result)


def compute_Y_oracle(n: int) -> DiffPoly:
    """Y_n from its integer coordinates c, each term converted on its own to
    (2i)^(k - 2n - 1) c, k the term's derivative count."""
    return DiffPoly(
        (key, GaussianRational.two_i_pow(_factor_grading(key)[2] - 2 * n - 1).scale(c))
        for key, c in hierarchy._coordinates(n)
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
    """Each derivative order synthesised on p points by its own zero-padded,
    unnormalised inverse FFT: an oracle for the product grid's samples."""
    m = len(coeffs)
    half = m // 2
    rows = {}
    for order in orders:
        spec = coeffs * (1j * xi) ** order
        rows[order] = np.fft.ifft(np.concatenate((spec[:half], np.zeros(p - m), spec[half:])),
                                  norm="forward")
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


def resonance_triple_ratios(j: int, xi: np.ndarray) -> np.ndarray:
    """lhs/rhs of the triples (xi1, xi2, xi3) = the columns of xi whose rhs is
    at least 1e-9, in column order."""
    alpha = 2.0 * j
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
    return lhs[keep] / rhs[keep]


def resonance_ratios_oracle(j: int, count: int, seed: int) -> np.ndarray:
    """Kept ratios of the whole (3, count) draw at once, xi2 its negated
    middle row; the library samples the same draw in column blocks."""
    xi = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(3, count))
    xi[1] = -xi[1]
    return resonance_triple_ratios(j, xi)


def resonance_stats_oracle(j: int, count: int, seed: int) -> ResonanceStats:
    """Resonance statistics of :func:`resonance_ratios_oracle`'s ratios."""
    ratios = resonance_ratios_oracle(j, count, seed)
    return ResonanceStats(
        alpha=2.0 * j,
        count_requested=count,
        count_kept=ratios.size,
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


def _exact_bracket_phase(j: int, grid: Grid, k1, k2, k3) -> np.ndarray:
    """Phi at the true frequencies xi0 + k dxi of integer offsets, accurate to
    rounding: sum over e >= 2 of C(2j, e) xi0^(2j-e) dxi^e B_e, with the
    integer brackets B_e = k1^e - k2^e + k3^e - (k1 - k2 + k3)^e exact (the
    terms e = 0, 1 vanish).  The naive powers lose digits as the carrier
    grows."""
    k = k1 - k2 + k3
    return sum(math.comb(2 * j, e) * grid.xi0 ** (2 * j - e) * grid.dxi ** e
               * (k1 ** e - k2 ** e + k3 ** e - k ** e).astype(float)
               for e in range(2, 2 * j + 1))


def picard3_oracle(j: int, cubic: DiffPoly, phi: Field, t: float, sign: int = -1) -> Field:
    """Third Picard iterate summed over meshgrid triples of the support modes,
    each with the Duhamel kernel (exp(sign i t Phi) - 1)/(sign i Phi) of the
    exact-bracket phase: sign -1 is the linear flow exp(-i xi^(2j) t) that
    `simulate` integrates, +1 the conjugate kernel of the opposite sign.

    It shares `cubic_symbol` with the library, whose formula has its own
    tests; the library evaluates the cubic by the spectral product kernel
    at the nodes of a time quadrature instead.
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
    phase = _exact_bracket_phase(j, grid, k1, k2, k3)
    # (e^{sign i t Phi} - 1)/(sign i Phi) = t e^{sign i t Phi / 2} sinc(t Phi / 2)
    kernel = t * np.exp(0.5j * sign * t * phase) * np.sinc(t * phase / (2 * np.pi))
    contrib = m_fn(x1, x2, x3) * a1 * np.conj(a2) * a3 * kernel
    k_out = (k1 - k2 + k3).ravel()
    idx = np.mod(k_out, grid.m)
    if np.any(ks[idx] != k_out):
        raise ResolutionError("cubic image of the packet leaves the frequency window")
    np.add.at(out, idx, contrib.ravel())
    return Field.from_coefficients(grid, out, t)


def dispersion_phase(j: int, grid: Grid, support, k1, k2, k3) -> np.ndarray:
    """Phi = w(k1) - w(k2) + w(k3) - w(k1 - k2 + k3) at offsets in the support,
    from the solver's w = grid.dispersion(j) on the offsets 2 min - max ..
    2 max - min of the support, in the library's order of operations."""
    lo, hi = int(np.min(support)), int(np.max(support))
    base = 2 * lo - hi
    w = grid.dispersion(j, np.arange(base, 2 * hi - lo + 1))
    return w[k1 - base] - w[k2 - base] + w[k3 - base] - w[k1 - k2 + k3 - base]


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
    return float(np.max(np.abs(dispersion_phase(j, grid, k_sup, k1, k2, k3))))


class LineFit(NamedTuple):
    slope: Fraction
    intercept: Fraction
    stderr: float
    residuals: list[Fraction]


def line_fit_oracle(x: list[float], y: list[float]) -> LineFit:
    """The least-squares line through the points, in exact rational
    arithmetic on the given floats: slope Sxy/Sxx, intercept, residuals and
    the slope's standard error sqrt(SSR / (n - 2) / Sxx), rounded only when
    the variance becomes a float and at its root."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((a - mx) ** 2 for a in xs)
    slope = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    residuals = [b - (slope * a + intercept) for a, b in zip(xs, ys)]
    stderr = float(sum(v * v for v in residuals) / (n - 2) / sxx) ** 0.5
    return LineFit(slope, intercept, stderr, residuals)


def l2_distance(a: Field, b: Field) -> float:
    return float(np.sqrt(a.grid.dx * np.sum(np.abs(a.values - b.values) ** 2)))


def lipschitz_probe_oracle(s: float, p: float, radius: float, trials: int,
                           seed: int = 0) -> LipschitzProbe:
    """The gauge Lipschitz probe trial by trial: each field drawn, normed and
    scaled on its own, each kept pair gauged and its ratio folded into a
    running max.  The library draws the same numbers in the same order and
    maps all fields as rows of one batch."""
    grid = Grid(256, 32 * np.pi)
    rng = np.random.default_rng(seed)
    spec = NormSpec("modulation", s, p)
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
    return LipschitzProbe(float(max_ratio), used)
