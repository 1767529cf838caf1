"""Dependent wild bootstrap for the trend statistic.

The statistic ``T_n = sqrt(n) ln(n) (theta_hat - target)`` is approximated by
multiplying the centered log counts with a slowly mixing Gaussian multiplier
process: an AR(1) chain with autocorrelation ``exp(-|s-t|/l_n)``, i.e. a unit
grid sample of an Ornstein-Uhlenbeck path.  Centering uses the moving-window
mean, so serial dependence up to the multiplier range survives into the
bootstrap distribution.  Quantiles of the bootstrap draws give confidence
intervals for the projection target with half-width ``u* / (sqrt(n) ln n)``.

The forward draw of a row of normals filters it into a multiplier path and
dots the path with the summands d (``_ar1_filter``, a ``dgtsv`` solve with
``lfilter``'s bits).  The same exact sum is the normals dotted with the
adjoint row ``g = _adjoint_row(d, l_n)``, d filtered backwards once, so
``confidence_interval`` and ``coverage_experiment`` share one path,
``_draws``, that draws ``eps @ g`` and filters no block of paths.  Rounding
still moves a draw, by at most a proven margin (``_adjoint_margin``), and an
output reads only one order statistic of the forward draws, so the path
settles that value exactly.  It draws the normals ``VERDICT_STEP`` rows at a
time and, after each step, hands the rows so far and the margin to its
caller, which may stop there: a coverage loop reports one bit per (cell,
alpha), and once no row still to come can flip any bit (``_settled``) it
draws no more.  Otherwise, after all B rows, the draws within twice the
margin of the rank-th (``_near_rows``) are the only ones that can hold the
forward order statistic; only the blocks of normals that hold them are drawn
again from their saved generator states and filtered forward, so ``u*`` and
every coverage verdict are those of the forward draws.  A tie cluster
(constant counts, every draw 0) replays every block.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import rng as _rng
from .errors import ConfigError
from .estimation import (THETA_BAR_LOOPS, TrendFit, nn_means, theta_hat, trend_weights,
                         theta_bar_mc)
from .process import ModelParams, _check_shape, simulate_replicate_block, validate


@dataclass(frozen=True)
class BootstrapConfig:
    """Tuning of the dependent wild bootstrap.

    l_n is the multiplier dependence length, N_n the moving-window size of
    the centering estimator, B the number of bootstrap draws and alpha the
    two-sided confidence level complement.
    """

    l_n: float
    N_n: int
    B: int
    alpha: float

    def __post_init__(self):
        _check_l_n(self.l_n)
        if self.N_n < 1:
            raise ConfigError(f"N_n must be >= 1, got {self.N_n}")
        if self.B < 1:
            raise ConfigError(f"B must be >= 1, got {self.B}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")

    def regime_warnings(self, n: int) -> list[str]:
        """Flag tuning outside the recommended asymptotic regime.

        Outside it the conditional quantile ``u*`` drifts with n: the
        moving-window mean used for centering picks up the curvature of the
        trend ``theta ln t``, mostly for t <= N_n.  Any check of how interval
        widths scale with n must therefore run with no regime warning.
        """
        out = []
        if self.l_n >= self.N_n:
            out.append(
                f"l_n={self.l_n} >= N_n={self.N_n}: multiplier range should stay "
                "below the centering window"
            )
        rate = self.l_n * self.N_n * math.log(n) ** 2 / n
        if rate >= 1.0:
            out.append(
                f"l_n*N_n*ln(n)^2/n = {rate:.3g} >= 1: centering bias may dominate"
            )
        return out


@dataclass(frozen=True)
class ConfidenceInterval:
    """Two-sided interval for the projection target, centered at theta_hat."""

    lower: float
    upper: float
    level: float
    u_star: float
    theta_hat: float
    half_width: float


def _check_l_n(l_n: float) -> None:
    if not (l_n > 0 and math.isfinite(l_n)):
        raise ConfigError(f"l_n must be positive and finite, got {l_n}")


# Elements in one block of normal rows (8 MB of float64; at least 16 rows, so
# 12.8 MB at n = 1e5): the draws take O(n) memory whatever B is.  ``_draws``
# holds one block and filters a replayed one in place.
BLOCK_ELEMENTS = 2**20

# Rows of normals ``_draws`` draws between two looks
VERDICT_STEP = 32


def _ar1_solve(v: np.ndarray, l_n: float) -> np.ndarray:
    """``v[..., t] += phi v[..., t-1]``, ``phi = exp(-1/l_n)``, in place on C-contiguous rows.

    ``dgtsv`` on ``v.T`` (the rows as columns) with unit diagonal and ``-phi`` below never
    pivots; it gives ``lfilter([1], [1, -phi], v)``'s bits up to the sign of a zero.
    """
    n, b = v.shape[-1], v.T
    if n > 1:  # dgtsv rejects an empty off-diagonal
        x, info = dgtsv(np.full(n - 1, -math.exp(-1.0 / l_n)), np.ones(n), np.zeros(n - 1), b,
                        overwrite_b=1)[3:]
        if x is not b or info != 0:  # f2py solves a copy, silently, unless b is column-major
            raise ValueError(f"no in-place AR(1) filter (info {info}): need C-contiguous float64")
    return v


def _ar1_filter(eps: np.ndarray, l_n: float) -> np.ndarray:
    """Filter standard normal rows in place into AR(1) multiplier paths; returns ``eps``.

    Column 0 starts each path at unit variance; each later step applies
    ``W_t = phi W_{t-1} + sqrt(1 - phi^2) eps_t``, so every marginal is
    standard normal and the covariance is ``exp(-|s-t|/l_n)``.
    """
    start = eps[:, 0].copy()  # scaling every column is faster than a strided eps[:, 1:]
    eps *= math.sqrt(-math.expm1(-2.0 / l_n))
    eps[:, 0] = start
    return _ar1_solve(eps, l_n)


def _block_buffer(n: int, B: int) -> np.ndarray:
    # 16-row multiples: gemv keeps a row's bits when each of up to 4 threads gets 4k rows
    return np.empty((min(max(16, BLOCK_ELEMENTS // n // 16 * 16), B), n))


def _draws(ds: Sequence[np.ndarray], l_ns: Sequence[float], ranks: Sequence[int], B: int,
           rng: np.random.Generator, buf: np.ndarray):
    """Yield looks ``(drawn, margin)`` at B draws per cell whose ``ranks`` order statistics
    are those of the forward draws ``_ar1_filter(rng.standard_normal((B, n)), l_n) @ d``.

    ``drawn`` holds the first m draws, one column per cell (d, l_n), and every
    rank's forward order statistic of a column lies in
    ``[p_(rank-(B-m)) - margin, p_(rank) + margin]``, p the sorted column and an
    end past the drawn rows infinite.  Each block of ``buf`` rows is filled
    ``VERDICT_STEP`` rows at a time, which gives the bits of one call, and the
    rows so far times each ``g = _adjoint_row(d, l_n)`` go to ``drawn``: each
    draw lies within its cell's ``_adjoint_margin`` of its forward draw, and
    the generator state at each block's start is kept.  After all B rows, only
    the rows ``_near_rows`` names can hold a forward rank-th order statistic;
    the blocks that hold them are drawn again from their saved states and
    filtered forward, as the forward loop draws them, and overwrite their rows.
    Every other row lies strictly on its side of those rows' forward draws, so
    the last look has margin 0.  The looks are views of one array that later
    looks overwrite, and the B draws are allocated first, so a B that no memory
    holds fails before any normal is drawn.
    """
    draws = np.empty((B, len(ds)))
    n = buf.shape[1]
    g = np.array([_adjoint_row(d, l_n) for d, l_n in zip(ds, l_ns)])
    h1 = np.array([_adjoint_row(np.abs(d), l_n).sum() for d, l_n in zip(ds, l_ns)])
    d1 = np.array([np.abs(d).sum() for d in ds])
    starts, m, big = [], 0, 0.0
    for r0 in range(0, B, len(buf)):
        eps = buf[:min(len(buf), B - r0)]
        starts.append(rng.bit_generator.state)
        for s0 in range(0, len(eps), VERDICT_STEP):
            part = eps[s0:s0 + VERDICT_STEP]
            rng.standard_normal(out=part)
            np.matmul(part, g.T, out=draws[m:m + len(part)])
            m += len(part)
            big = max(big, part.max(), -part.min())  # no temporary the size of a step
            margin = _adjoint_margin(n, big, h1, d1)
            yield draws[:m], margin
    for c, (d, l_n) in enumerate(zip(ds, l_ns)):
        # a strided column as the gemv's out could leave the forward draws' bits
        col = draws[:, c].copy()
        rows = np.concatenate([_near_rows(col, rank, margin[c]) for rank in ranks])
        for block in np.unique(rows // len(buf)):
            r0 = block * len(buf)
            eps = buf[:min(len(buf), B - r0)]
            rng.bit_generator.state = starts[block]
            rng.standard_normal(out=eps)
            np.matmul(_ar1_filter(eps, l_n), d, out=col[r0:r0 + len(eps)])
        draws[:, c] = col
    yield draws, np.zeros(len(ds))


def _near_rows(draws: np.ndarray, rank: int, margin: float) -> np.ndarray:
    """Rows whose exact draws may hold the rank-th order statistic, each draw being
    within ``margin`` of its exact one.

    Sorted, the draws split at every gap wider than ``2 margin``; the piece that
    holds the rank-th is the cluster.  A row below it has an exact draw below
    ``p_lo - margin``, and every cluster row one at or above that, and likewise
    above; so the cluster rows take the same ranks among the exact draws, and
    the rank-th exact draw is one of theirs.
    """
    order = np.argsort(draws)
    far = np.flatnonzero(np.diff(draws[order]) > 2.0 * margin)  # gap i: rows i, i+1
    i = np.searchsorted(far, rank - 1)
    lo = far[i - 1] + 1 if i else 0
    hi = far[i] + 1 if i < len(far) else len(draws)
    return order[lo:hi]


def _adjoint_row(d: np.ndarray, l_n: float) -> np.ndarray:
    """``g`` with ``eps @ g == _ar1_filter(eps, l_n) @ d`` up to rounding.

    The paths are ``w = L^-1 S eps``, with L the AR(1) recursion and
    ``S = diag(1, s, ..., s)``, so ``w @ d = eps @ (S L^-T d)``: filter d
    backwards, ``g_t = d_t + phi g_{t+1}``, and scale entries 1.. by s.
    """
    g = _ar1_solve(d[::-1].copy(), l_n)[::-1]
    g[1:] *= math.sqrt(-math.expm1(-2.0 / l_n))
    return g


def _summands(fit: TrendFit, N_n: int) -> np.ndarray:
    """Trend-weighted, window-centered log counts ``d`` with ``T* = w @ d``."""
    centered = fit.series_transformed - nn_means(fit.series_transformed, N_n)
    return trend_weights(fit.n) * centered


def t_star_variance(fit: TrendFit, cfg: BootstrapConfig) -> float:
    """Exact conditional variance of the bootstrap statistic.

    Quadratic form ``d' Sigma d`` with ``Sigma_st = exp(-|s-t|/l_n)``.  With
    ``phi = exp(-1/l_n)`` the causal filter ``f_t = sum_{s<=t} phi^(t-s) d_s``
    holds the diagonal and the lower triangle, so ``d' Sigma d = 2 d.f - d.d``
    in O(n).  The simulation path mirrors it only up to Monte Carlo error, so
    this is the diagnostic of choice for variance-matching checks.
    """
    d = _summands(fit, cfg.N_n)
    f = _ar1_solve(d.copy(), cfg.l_n)
    return float(2.0 * (d @ f) - d @ d)


def _rank(B: int, alpha: float) -> int:
    """1-based rank, ceil((1 - alpha/2) * B) within 1..B, of the draw that gives u*."""
    return min(max(math.ceil((1.0 - alpha / 2.0) * B), 1), B)


def _u_star(draws: np.ndarray, alpha: float) -> float:
    """Order statistic at ``_rank`` of the signed draws.

    Clipped at zero so degenerate configurations keep lower <= upper.
    """
    return max(float(np.sort(draws)[_rank(len(draws), alpha) - 1]), 0.0)


def _half_width(u, n: int):
    """``u / (sqrt(n) ln n)``; it rounds monotonically in u, for floats and arrays alike."""
    return u / (math.sqrt(n) * math.log(n))


def confidence_interval(x, cfg: BootstrapConfig, master_seed: int) -> ConfidenceInterval:
    """Bootstrap confidence interval for the projection target.

    Draws B bootstrap statistics from the (master_seed, NS_BOOT) stream and
    inverts the symmetric two-sided quantile at level 1 - alpha.  The draws
    are the normals times the adjoint row, and the blocks that can hold the
    rank-th forward draw are replayed and filtered forward (``_draws``), so
    ``u*`` and the interval have the bits of the forward draws.
    """
    _check_shape(cfg.B, 1)
    if cfg.B < 200:
        warnings.warn(f"B={cfg.B} bootstrap draws is low; quantiles will be coarse",
                      stacklevel=2)
    fit = theta_hat(x)
    for msg in cfg.regime_warnings(fit.n):
        warnings.warn(msg, stacklevel=2)
    rng = _rng.stream(master_seed, _rng.NS_BOOT)
    *_, (draws, _) = _draws([_summands(fit, cfg.N_n)], [cfg.l_n], [_rank(cfg.B, cfg.alpha)],
                            cfg.B, rng, _block_buffer(fit.n, cfg.B))
    return _interval_from_draws(fit, draws[:, 0], cfg.alpha)


def _interval_from_draws(fit: TrendFit, draws: np.ndarray, alpha: float) -> ConfidenceInterval:
    u = _u_star(draws, alpha)
    hw = _half_width(u, fit.n)
    return ConfidenceInterval(
        lower=fit.theta_hat - hw,
        upper=fit.theta_hat + hw,
        level=1.0 - alpha,
        u_star=u,
        theta_hat=fit.theta_hat,
        half_width=hw,
    )


@dataclass(frozen=True)
class CoverageCell:
    l_n: float
    N_n: int
    alpha: float
    coverage: float
    mc_loops: int
    B: int


def _gamma(k: int) -> float:
    """``gamma_k = k u / (1 - k u)``, with u the float64 unit roundoff: k roundings of one
    term lie within a factor ``1 +- gamma_k`` of it (Higham 2002, section 3.1)."""
    unit = 2.0**-53
    return k * unit / (1.0 - k * unit)


def _adjoint_margin(n: int, big: float, h1: float, d1: float) -> float:
    """A bound on how far an adjoint draw ``eps_b . g`` lies from its forward draw.

    ``big`` bounds ``|eps_bt|``, ``h1`` is the sum of ``h = _adjoint_row(|d|, l_n)``
    and ``d1`` is ``||d||_1``.  With the same float ``phi`` and ``s`` (``s_0 = 1``),
    both draws expand into the terms ``eps_r s_r phi^(t-r) d_t``, ``r <= t``, of one
    exact sum.  Forward, a term takes one rounding in the scaling, at most
    ``2(t-r)+1 <= 2n-1`` in the filter (a product and a sum per step; the back pass
    of ``dgtsv`` divides by 1 and subtracts 0, exactly), one in its product with
    ``d_t`` and at most ``n-1`` in any summation order of the dot product: at most
    3n.  The adjoint draw takes at most ``2n-1`` in the backward filter, one in the
    scaling, one in the product with ``eps_r`` and at most ``n-1`` in the sum.  So
    each lies within ``gamma_3n sum_r |eps_br| h_r <= gamma_3n big h1`` of the exact
    sum.  A product that underflows adds at most half the least subnormal ``eta``,
    carried on by factors within ``1 + gamma_3n`` and by ``phi^k <= 1``: forward,
    the 2n-2 products of the scaling and the filter each reach the draw through at
    most ``||d||_1`` and the n of the dot product directly; adjoint, each of the
    n-1 filter products through at most ``||eps_b||_1 <= n big``, the n-1 scalings
    through ``big`` and the n dot products directly.  Together
    ``2 eta (1 + gamma_3n) n (d1 + n big + 1)`` at most.  The bound is doubled,
    which covers the factor ``1 + gamma_3n``, the rounding of h1, d1 and the bound
    itself, and that of comparing draws against it.  It holds for any summation
    order of the adjoint dot product, so a step's product needs no margin of its own.
    """
    return 2.0 * (2.0 * _gamma(3 * n) * big * h1 + n * 2.0**-1074 * (d1 + n * big + 1.0))


def _settled(fit: TrendFit, drawn: np.ndarray, B: int, ranks: Sequence[int],
             margin: np.ndarray, theta_bar: float) -> np.ndarray | None:
    """Covered verdicts (cells, alphas) of a look of ``_draws``, or None if one is still open.

    The rank-th forward draw of each cell lies in
    ``[p_(rank-(B-m)) - margin, p_(rank) + margin]``, p the m sorted drawn rows.
    ``lower <= theta_bar <= upper`` holds on an upward closed set of
    ``u* = max(S_(rank), 0)``, since the half-width rounds monotonically, so a
    verdict that agrees at both ends is the forward draws'.  The last look
    (margin 0) fixes every verdict.
    """
    m, a = len(drawn), len(ranks)
    # the 1-based drawn ranks of the lower ends, then of the upper ends
    ks = [rank - (B - m) for rank in ranks] + [*ranks]
    u = np.sort(drawn, axis=0)[[min(max(k, 1), m) - 1 for k in ks]]
    u[:a] -= margin
    u[a:] += margin
    for j, k in enumerate(ks):
        if not 1 <= k <= m:  # an end past the drawn rows
            u[j] = -np.inf if j < a else np.inf
    hw = _half_width(np.maximum(u, 0.0, out=u), fit.n)
    covered = (fit.theta_hat - hw <= theta_bar) & (theta_bar <= fit.theta_hat + hw)
    return covered[:a].T if np.array_equal(covered[:a], covered[a:]) else None


def _loop_covered(fit: TrendFit, ds: list, l_ns: list, alphas: tuple, B: int,
                  theta_bar: float, rng: np.random.Generator, buf: np.ndarray) -> np.ndarray:
    """Covered verdicts (cells, alphas) of one loop: those of the first look of
    ``_draws`` that ``_settled`` fixes.  No normal is drawn after it; the stream
    is the loop's own, so no other loop changes."""
    ranks = [_rank(B, alpha) for alpha in alphas]
    return next(covered for drawn, margin in _draws(ds, l_ns, ranks, B, rng, buf)
                if (covered := _settled(fit, drawn, B, ranks, margin, theta_bar)) is not None)


def _coverage_chunk(params: ModelParams, n: int, cells: tuple, alphas: tuple,
                    B: int, theta_bar: float, master_seed: int,
                    lo: int, hi: int) -> np.ndarray:
    """Covered counts of shape (len(cells), len(alphas)) for loops lo..hi-1.

    Within a loop every cell reuses the trajectory and the normals of the
    loop's bootstrap stream, and every alpha reads the same draws, which keeps
    the per-alpha intervals nested.  Each verdict is the one the forward draws
    give (``_loop_covered``), whether the loop stops early or replays blocks
    after all B rows.  The block buffer is made once per chunk: a fresh one per
    loop costs about 1900 page faults per loop at n = B = 500.
    """
    counts = np.zeros((len(cells), len(alphas)), dtype=np.int64)
    _, xs = simulate_replicate_block(params, n, master_seed, lo, hi)
    buf = _block_buffer(n, B)
    l_ns = [l_n for l_n, _ in cells]
    for i in range(lo, hi):
        fit = theta_hat(xs[i - lo, 1:])
        ds = {N_n: _summands(fit, N_n) for N_n in {w for _, w in cells}}
        rng = _rng.stream(master_seed, _rng.NS_BOOT, i)
        counts += _loop_covered(fit, [ds[N_n] for _, N_n in cells], l_ns, alphas, B, theta_bar,
                                rng, buf)
    return counts


def coverage_experiment(params: ModelParams, n: int, cells: Sequence[tuple[float, int]],
                        alphas: Sequence[float], mc_loops: int, B: int,
                        master_seed: int, theta_bar_loops: int = THETA_BAR_LOOPS,
                        threads: int = 1) -> list[CoverageCell]:
    """Fraction of Monte Carlo loops whose interval covers the target.

    The target is estimated once per (params, n) from ``theta_bar_loops``
    independent replicates.  One row per (l_n, N_n, alpha).  Loop i counts
    as covered where the interval that ``confidence_interval``'s forward draws
    on the (master_seed, NS_BOOT, i) stream give holds the target.  A loop
    stops drawing once the rows drawn so far fix all its verdicts, bracketing
    each ``u*`` by order statistics widened by a rounding margin, and otherwise
    settles each ``u*`` to the forward draws after all B rows.
    """
    validate(params)
    if mc_loops < 1:
        raise ConfigError("mc_loops must be >= 1")
    if len(cells) == 0 or len(alphas) == 0:  # nothing to cover: run no loop
        raise ConfigError("need at least one (l_n, N_n) cell and one alpha")
    for l_n, N_n in cells:  # each (cell, alpha) must be a valid bootstrap tuning
        for alpha in alphas:
            BootstrapConfig(l_n=l_n, N_n=N_n, B=B, alpha=alpha)
    _check_shape(B, len(cells))  # the (B, cells) draws of a chunk
    np.empty((B, len(cells)))  # a B no memory holds fails here, not after the target
    t_seed = _rng.derive_seed(master_seed, _rng.NS_TARGET)
    theta_bar = theta_bar_mc(params, n, theta_bar_loops, t_seed, threads).theta_bar
    cells_t = tuple((float(l), int(w)) for l, w in cells)
    alphas_t = tuple(float(a) for a in alphas)
    worker = partial(_coverage_chunk, params, n, cells_t, alphas_t, B, theta_bar, master_seed)
    # a loop's count depends only on its own streams, so any split sums the
    # same; at least one chunk per worker
    chunk = min(_rng.CHUNK, -(-mc_loops // max(threads or 1, 1)))
    parts = _rng.run_chunks(worker, mc_loops, threads, chunk=chunk)
    counts = np.zeros((len(cells_t), len(alphas_t)), dtype=np.int64)
    for p in parts:
        counts += p
    rows = []
    for ci, (l_n, N_n) in enumerate(cells_t):
        for ai, alpha in enumerate(alphas_t):
            rows.append(CoverageCell(
                l_n=l_n, N_n=N_n, alpha=alpha,
                coverage=counts[ci, ai] / mc_loops,
                mc_loops=mc_loops, B=B,
            ))
    return rows
