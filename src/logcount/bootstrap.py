"""Dependent wild bootstrap for the trend statistic.

The statistic ``T_n = sqrt(n) ln(n) (theta_hat - target)`` is approximated by
multiplying the centered log counts with a slowly mixing Gaussian multiplier
process: an AR(1) chain with autocorrelation ``exp(-|s-t|/l_n)``, i.e. a unit
grid sample of an Ornstein-Uhlenbeck path.  Centering uses the moving-window
mean, so serial dependence up to the multiplier range survives into the
bootstrap distribution.  Quantiles of the bootstrap draws give confidence
intervals for the projection target with half-width ``u* / (sqrt(n) ln n)``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np
from scipy.signal import lfilter

from . import rng as _rng
from .errors import ConfigError
from .estimation import (THETA_BAR_LOOPS, TrendFit, nn_means, theta_hat, trend_weights,
                         theta_bar_mc)
from .process import ModelParams, simulate_replicate_block, validate


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


# Elements in one block of multiplier rows (8 MB of float64), so the draws of
# ``t_star`` and ``coverage_experiment`` take O(n) memory whatever B is.  A
# block has at least 16 rows, so past n = 2**16 it holds 16 n elements
# (12.8 MB at n = 1e5).  ``_ar1_filter`` runs ``lfilter`` on row slices of at
# most a quarter block, whose output it copies back into the block, so a
# block of normals and one slice (14.4 MB at n = 1e5) are all that a draw
# holds.
BLOCK_ELEMENTS = 2**20
SLICE_ELEMENTS = BLOCK_ELEMENTS // 4


def multipliers(n: int, l_n: float, rng: np.random.Generator, size: Optional[int] = None):
    """AR(1) Gaussian multiplier paths with covariance exp(-|s-t|/l_n).

    The first value is standard normal and each step applies
    ``W_t = exp(-1/l_n) W_{t-1} + sqrt(1 - exp(-2/l_n)) eps_t``; every
    marginal is standard normal.  Shape (n,) or (size, n).  This draws every
    path in one call; the bootstrap statistics stream the same paths in row
    blocks (``_draws``).
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    _check_l_n(l_n)
    eps = rng.standard_normal((1 if size is None else size, n))
    w = _ar1_filter(eps, l_n, eps)
    return w[0] if size is None else w


def _ar1_filter(eps: np.ndarray, l_n: float, v: np.ndarray) -> np.ndarray:
    """Turn standard normal rows into AR(1) paths with covariance exp(-|s-t|/l_n).

    ``v`` receives the filter input, column 0 of ``eps`` as the unit-variance
    start and the scaled innovations after it, and is then filtered in place
    and returned: ``lfilter`` runs on row slices of at most ``SLICE_ELEMENTS``
    elements and each output is written back over its slice.  ``lfilter``
    works row by row, so the slicing keeps every row's bits.  ``v`` may be
    ``eps`` itself, which then holds the paths instead of the normals.
    """
    phi = math.exp(-1.0 / l_n)
    start = eps[:, 0].copy()  # scaling every column is faster than a strided eps[:, 1:]
    np.multiply(math.sqrt(-math.expm1(-2.0 / l_n)), eps, out=v)
    v[:, 0] = start
    rows = max(1, SLICE_ELEMENTS // v.shape[1])
    for r0 in range(0, len(v), rows):
        v[r0:r0 + rows] = lfilter([1.0], [1.0, -phi], v[r0:r0 + rows], axis=1)
    return v


def _draws(n: int, B: int, l_ns: Sequence[float]):
    """Kernel ``draw(rng, ds)``: ``w @ d`` for B multiplier paths w of length n.

    The result has shape (len(l_ns), len(ds), B); every l_n filters the same
    normals.  Rows are drawn in consecutive blocks of about ``BLOCK_ELEMENTS``
    elements and equal ``multipliers(n, l_n, rng, size=B) @ d`` bit for bit:
    the stream runs on across ``standard_normal`` calls, ``lfilter`` works
    row by row, and BLAS gemv gives a row the same bits in any block whose
    per-thread share of rows is a multiple of 4 (16-row multiples serve up to
    4 threads; a short last block matches wherever the one (B, n) product is
    itself independent of the thread count).  The paths of an l_n replace
    their filter input in place (``_ar1_filter``): the last l_n filters the
    normals block itself, so ``t_star`` holds one block of normals and one
    ``lfilter`` slice; only the earlier l_n of a coverage loop fill a second
    block with their scaled copy.  The buffers are made once per kernel, so
    the loops of a coverage chunk reuse their pages; fresh arrays per loop
    went back to the OS on free and cost about 1900 page faults per loop at
    n = B = 500.
    """
    rows = max(16, BLOCK_ELEMENTS // n // 16 * 16)
    eps_buf = np.empty((min(rows, B), n))
    v_buf = np.empty_like(eps_buf) if len(l_ns) > 1 else None
    last = len(l_ns) - 1

    def draw(rng: np.random.Generator, ds: Sequence[np.ndarray]) -> np.ndarray:
        out = np.empty((len(l_ns), len(ds), B))
        for r0 in range(0, B, rows):
            eps = eps_buf[:min(rows, B - r0)]
            rng.standard_normal(out=eps)
            for li, l_n in enumerate(l_ns):
                w = _ar1_filter(eps, l_n, eps if li == last else v_buf[:len(eps)])
                for di, d in enumerate(ds):
                    out[li, di, r0:r0 + len(w)] = w @ d
        return out

    return draw


def _summands(fit: TrendFit, N_n: int) -> np.ndarray:
    """Trend-weighted, window-centered log counts ``d`` with ``T* = w @ d``."""
    centered = fit.series_transformed - nn_means(fit.series_transformed, N_n)
    return trend_weights(fit.n) * centered


def t_star(fit: TrendFit, cfg: BootstrapConfig, rng: np.random.Generator,
           size: int) -> np.ndarray:
    """``size`` bootstrap statistics: weighted, window-centered log counts
    times fresh multiplier paths."""
    return _draws(fit.n, size, (cfg.l_n,))(rng, (_summands(fit, cfg.N_n),))[0, 0]


def t_star_variance(fit: TrendFit, cfg: BootstrapConfig) -> float:
    """Exact conditional variance of the bootstrap statistic.

    Quadratic form ``d' Sigma d`` with ``Sigma_st = exp(-|s-t|/l_n)``.  With
    ``phi = exp(-1/l_n)`` the causal filter ``f_t = sum_{s<=t} phi^(t-s) d_s``
    holds the diagonal and the lower triangle, so ``d' Sigma d = 2 d.f - d.d``
    in O(n).  The simulation path mirrors it only up to Monte Carlo error, so
    this is the diagnostic of choice for variance-matching checks.
    """
    d = _summands(fit, cfg.N_n)
    f = lfilter([1.0], [1.0, -math.exp(-1.0 / cfg.l_n)], d)
    return float(2.0 * (d @ f) - d @ d)


def _u_star(draws: np.ndarray, alpha: float) -> float:
    """Order statistic at ceil((1 - alpha/2) * B) of the signed draws.

    Clipped at zero so degenerate configurations keep lower <= upper.
    """
    b = len(draws)
    rank = min(max(math.ceil((1.0 - alpha / 2.0) * b), 1), b)
    return max(float(np.sort(draws)[rank - 1]), 0.0)


def confidence_interval(x, cfg: BootstrapConfig, master_seed: int) -> ConfidenceInterval:
    """Bootstrap confidence interval for the projection target.

    Draws B bootstrap statistics from the (master_seed,) stream and inverts
    the symmetric two-sided quantile at level 1 - alpha.
    """
    if cfg.B < 200:
        warnings.warn(f"B={cfg.B} bootstrap draws is low; quantiles will be coarse",
                      stacklevel=2)
    fit = theta_hat(x)
    for msg in cfg.regime_warnings(fit.n):
        warnings.warn(msg, stacklevel=2)
    rng = _rng.stream(master_seed, _rng.NS_BOOT)
    draws = t_star(fit, cfg, rng, size=cfg.B)
    return _interval_from_draws(fit, draws, cfg.alpha)


def _interval_from_draws(fit: TrendFit, draws: np.ndarray, alpha: float) -> ConfidenceInterval:
    u = _u_star(draws, alpha)
    hw = u / (math.sqrt(fit.n) * math.log(fit.n))
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


def _coverage_chunk(params: ModelParams, n: int, cells: tuple, alphas: tuple,
                    B: int, theta_bar: float, master_seed: int,
                    lo: int, hi: int) -> np.ndarray:
    """Covered counts of shape (len(cells), len(alphas)) for loops lo..hi-1.

    Within a loop all cells reuse the same trajectory and the same bootstrap
    innovations; only the AR(1) filtering (per l_n) and the centering window
    (per N_n) differ.  This keeps the per-alpha intervals nested exactly.
    """
    counts = np.zeros((len(cells), len(alphas)), dtype=np.int64)
    l_ns = list(dict.fromkeys(l_n for l_n, _ in cells))
    nns = list(dict.fromkeys(N_n for _, N_n in cells))
    draw = _draws(n, B, l_ns)
    _, xs = simulate_replicate_block(params, n, master_seed, lo, hi)
    for i in range(lo, hi):
        fit = theta_hat(xs[i - lo, 1:])
        rng = _rng.stream(master_seed, _rng.NS_BOOT, i)
        by_cell = draw(rng, [_summands(fit, N_n) for N_n in nns])
        for ci, (l_n, N_n) in enumerate(cells):
            draws = by_cell[l_ns.index(l_n), nns.index(N_n)]
            for ai, alpha in enumerate(alphas):
                ci_obj = _interval_from_draws(fit, draws, alpha)
                if ci_obj.lower <= theta_bar <= ci_obj.upper:
                    counts[ci, ai] += 1
    return counts


def coverage_experiment(params: ModelParams, n: int, cells: Sequence[tuple[float, int]],
                        alphas: Sequence[float], mc_loops: int, B: int,
                        master_seed: int, theta_bar_loops: int = THETA_BAR_LOOPS,
                        threads: int = 1) -> list[CoverageCell]:
    """Fraction of Monte Carlo loops whose interval covers the target.

    The target is estimated once per (params, n) from ``theta_bar_loops``
    independent replicates.  One row per (l_n, N_n, alpha).
    """
    validate(params)
    if mc_loops < 1:
        raise ConfigError("mc_loops must be >= 1")
    if len(cells) == 0 or len(alphas) == 0:  # nothing to cover: run no loop
        raise ConfigError("need at least one (l_n, N_n) cell and one alpha")
    for l_n, N_n in cells:  # each (cell, alpha) must be a valid bootstrap tuning
        for alpha in alphas:
            BootstrapConfig(l_n=l_n, N_n=N_n, B=B, alpha=alpha)
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
