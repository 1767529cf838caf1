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
adjoint row ``g = _adjoint_row(d, l_n)``, d filtered backwards once, so both
``confidence_interval`` and ``coverage_experiment`` draw ``eps @ g`` and
filter no block of paths.  Rounding still moves a draw, by at most a proven
margin, and an output reads only one order statistic of the draws, so each
path settles that value exactly:

* ``confidence_interval`` sorts its adjoint draws and takes the cluster of
  draws around the rank-th that lie within twice the margin of each other
  (``_near_rows``), the margin (``_adjoint_margin``) bounding how far an
  adjoint draw lies from its forward draw.  Only the blocks of normals that
  hold cluster rows are drawn again, from their saved generator states, and
  filtered forward; so ``u*`` has the bits of the forward draws, and a tie
  cluster (constant counts, every draw 0) replays every block.
* A coverage loop reports one bit per (cell, alpha), so it draws its normals
  ``VERDICT_STEP`` rows at a time and stops once no row still to come can
  flip any bit.  The order statistic that gives ``u*`` is bracketed by the
  sorted draws so far, widened by a bound on the rounding gap between the
  step products and the reference block products; covering is monotone in
  ``u*``, so a bit that agrees at both ends of its bracket is the bit the
  full draws give.  A loop with a bit still open takes the full path, so
  every covered count keeps its bits.
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
# holds one block and filters a replayed one in place; a coverage loop filters none.
BLOCK_ELEMENTS = 2**20

# Rows of normals a coverage loop draws between two looks at its verdicts
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


def _draws(d: np.ndarray, l_n: float, B: int, rng: np.random.Generator,
           rank: int) -> np.ndarray:
    """B draws whose rank-th order statistic has the bits of the forward draws
    ``_ar1_filter(rng.standard_normal((B, len(d))), l_n) @ d``, one block of rows at a time.

    Each block of normals times ``g = _adjoint_row(d, l_n)`` gives its draws in one
    gemv, and the generator state at the block's start is kept.  Each adjoint draw
    lies within ``_adjoint_margin`` of its forward draw, so only the rows
    ``_near_rows`` names can hold the forward rank-th order statistic.  The blocks
    that hold them are drawn again from their saved states and filtered forward,
    as the forward loop draws them, and overwrite their rows.  Every other row,
    adjoint or forward, lies strictly on its side of those rows' forward draws,
    so the rank-th order statistic is the forward one.  A short last block
    matches wherever the one (B, n) product is itself independent of the BLAS
    thread count.  The B draws are allocated first, so a B that no memory holds
    fails before any normal is drawn.
    """
    out = np.empty(B)
    buf = _block_buffer(len(d), B)
    g = _adjoint_row(d, l_n)
    starts, big = [], 0.0
    for r0 in range(0, B, len(buf)):
        eps = buf[:min(len(buf), B - r0)]
        starts.append(rng.bit_generator.state)
        rng.standard_normal(out=eps)
        np.matmul(eps, g, out=out[r0:r0 + len(eps)])
        big = max(big, eps.max(), -eps.min())  # no temporary the size of a block
    abs_d = np.abs(d)
    margin = _adjoint_margin(len(d), big, _adjoint_row(abs_d, l_n).sum(), abs_d.sum())
    for block in np.unique(_near_rows(out, rank, margin) // len(buf)):
        r0 = block * len(buf)
        eps = buf[:min(len(buf), B - r0)]
        rng.bit_generator.state = starts[block]
        rng.standard_normal(out=eps)
        np.matmul(_ar1_filter(eps, l_n), d, out=out[r0:r0 + len(eps)])
    return out


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
    are the normals times the adjoint row, each within a proven rounding
    margin of its forward draw (``_adjoint_margin``).  The blocks that hold
    the cluster of draws within twice that margin around the rank-th are
    replayed from their saved generator states and filtered forward
    (``_draws``), so ``u*`` and the interval have the bits of the forward
    draws, and no other block is filtered.
    """
    _check_shape(cfg.B, 1)
    if cfg.B < 200:
        warnings.warn(f"B={cfg.B} bootstrap draws is low; quantiles will be coarse",
                      stacklevel=2)
    fit = theta_hat(x)
    for msg in cfg.regime_warnings(fit.n):
        warnings.warn(msg, stacklevel=2)
    rng = _rng.stream(master_seed, _rng.NS_BOOT)
    draws = _draws(_summands(fit, cfg.N_n), cfg.l_n, cfg.B, rng, _rank(cfg.B, cfg.alpha))
    return _interval_from_draws(fit, draws, cfg.alpha)


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


def _order_margin(n: int, big: float, g1: np.ndarray) -> np.ndarray:
    """Per cell, a bound on how far two summation orders of ``eps_b . g`` can differ.

    ``big`` bounds ``|eps_bt|`` and ``g1`` is ``||g||_1`` per cell.  Each order
    lies within ``gamma_n sum_t |eps_bt g_t|`` of the exact sum, plus half the
    least subnormal per product that underflows.  The bound is doubled, which
    covers its own rounding and that of adding it to a draw.
    """
    return 2.0 * (2.0 * _gamma(n) * big * g1 + n * 2.0**-1074)


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
    itself, and that of comparing draws against it.
    """
    return 2.0 * (2.0 * _gamma(3 * n) * big * h1 + n * 2.0**-1074 * (d1 + n * big + 1.0))


def _settled(fit: TrendFit, draws: np.ndarray, B: int, ranks: np.ndarray,
             margin: np.ndarray, theta_bar: float) -> np.ndarray | None:
    """Covered verdicts (cells, alphas) that no further row can change, or None.

    ``draws`` holds the first m of B draws, one column per cell, each within
    ``margin`` of the draw the reference block product gives.  With p the
    sorted columns, the rank-th of all B draws lies in
    ``[p_(rank-(B-m)) - margin, p_(rank) + margin]``, an end past the drawn
    rows being infinite.  ``lower <= theta_bar <= upper`` holds on an upward
    closed set of ``u* = max(S_(rank), 0)``, since the half-width rounds
    monotonically, so a verdict that agrees at both ends is the full draws'.
    """
    m, cells = draws.shape
    q = np.concatenate([np.full((1, cells), -np.inf), np.sort(draws, axis=0),
                        np.full((1, cells), np.inf)])
    ends = [np.maximum(q[np.maximum(ranks - (B - m), 0)] - margin, 0.0),
            np.maximum(q[np.minimum(ranks, m + 1)] + margin, 0.0)]
    low, high = ((fit.theta_hat - hw <= theta_bar) & (theta_bar <= fit.theta_hat + hw)
                 for hw in (_half_width(u, fit.n) for u in ends))
    return low.T if np.array_equal(low, high) else None


def _loop_covered(fit: TrendFit, g: np.ndarray, alphas: tuple, B: int, theta_bar: float,
                  rng: np.random.Generator, eps_buf: np.ndarray,
                  draws: np.ndarray) -> np.ndarray:
    """Covered verdicts (cells, alphas) of one loop whose cells have adjoint rows ``g``.

    Each block of ``rng.standard_normal((B, n))`` is filled ``VERDICT_STEP``
    rows at a time, which gives the bits of one call, and the rows drawn so far
    times ``g.T`` go to ``draws``.  After each step ``_settled`` may fix every
    verdict, and then no further normal is drawn: the stream is the loop's own,
    so no other loop changes.  Otherwise the loop takes the full path, one
    ``eps @ g.T`` per block and ``_interval_from_draws``.
    """
    ranks = np.array([_rank(B, alpha) for alpha in alphas])
    g1 = np.abs(g).sum(axis=1)
    blocks, m, big = [], 0, 0.0
    for r0 in range(0, B, len(eps_buf)):
        eps = eps_buf[:min(len(eps_buf), B - r0)]
        for s0 in range(0, len(eps), VERDICT_STEP):
            part = eps[s0:s0 + VERDICT_STEP]
            rng.standard_normal(out=part)
            np.matmul(part, g.T, out=draws[m:m + len(part)])
            m += len(part)
            big = max(big, part.max(), -part.min())  # no temporary the size of a step
            covered = _settled(fit, draws[:m], B, ranks, _order_margin(g.shape[1], big, g1),
                               theta_bar)
            if covered is not None:
                return covered
        blocks.append(eps @ g.T)
    full = np.concatenate(blocks)
    covered = np.zeros((len(g), len(alphas)), dtype=bool)
    for ci in range(len(g)):
        for ai, alpha in enumerate(alphas):
            ci_obj = _interval_from_draws(fit, full[:, ci], alpha)
            covered[ci, ai] = ci_obj.lower <= theta_bar <= ci_obj.upper
    return covered


def _coverage_chunk(params: ModelParams, n: int, cells: tuple, alphas: tuple,
                    B: int, theta_bar: float, master_seed: int,
                    lo: int, hi: int) -> np.ndarray:
    """Covered counts of shape (len(cells), len(alphas)) for loops lo..hi-1.

    Within a loop every cell reuses the trajectory and the normals of the
    loop's bootstrap stream; a cell's draws are ``eps @ _adjoint_row(d, l_n)``, so
    one product serves all cells and no block is filtered.  Every alpha reads
    the same draws, which keeps the per-alpha intervals nested.  A loop draws
    its normals in steps of ``VERDICT_STEP`` rows and stops once every
    verdict is fixed (``_loop_covered``); a verdict fixed early is, by its
    rounding margin, the verdict of the full draws, so the counts keep their
    bits.  The block buffer and the draws are made once per chunk: fresh
    arrays per loop cost about 1900 page faults per loop at n = B = 500.
    """
    counts = np.zeros((len(cells), len(alphas)), dtype=np.int64)
    _, xs = simulate_replicate_block(params, n, master_seed, lo, hi)
    eps_buf = _block_buffer(n, B)
    draws = np.empty((B, len(cells)))
    for i in range(lo, hi):
        fit = theta_hat(xs[i - lo, 1:])
        ds = {N_n: _summands(fit, N_n) for N_n in {w for _, w in cells}}
        g = np.array([_adjoint_row(ds[N_n], l_n) for l_n, N_n in cells])
        rng = _rng.stream(master_seed, _rng.NS_BOOT, i)
        counts += _loop_covered(fit, g, alphas, B, theta_bar, rng, eps_buf, draws)
    return counts


def coverage_experiment(params: ModelParams, n: int, cells: Sequence[tuple[float, int]],
                        alphas: Sequence[float], mc_loops: int, B: int,
                        master_seed: int, theta_bar_loops: int = THETA_BAR_LOOPS,
                        threads: int = 1) -> list[CoverageCell]:
    """Fraction of Monte Carlo loops whose interval covers the target.

    The target is estimated once per (params, n) from ``theta_bar_loops``
    independent replicates.  One row per (l_n, N_n, alpha).  Loop i's draws
    equal the forward draws on the (master_seed, NS_BOOT, i) stream up to rounding.
    A loop stops drawing once the rows drawn so far fix all its verdicts,
    bracketing each ``u*`` by order statistics widened by a rounding margin,
    and otherwise draws all B rows; either way a count is the one the full
    draws give, so the rows keep their bits.
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
