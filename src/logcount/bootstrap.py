"""Dependent wild bootstrap for the trend statistic.

The statistic ``T_n = sqrt(n) ln(n) (theta_hat - target)`` is approximated by
multiplying the centered log counts with a slowly mixing Gaussian multiplier
process: an AR(1) chain with autocorrelation ``exp(-|s-t|/l_n)``, i.e. a unit
grid sample of an Ornstein-Uhlenbeck path.  Centering uses the moving-window
mean, so serial dependence up to the multiplier range survives into the
bootstrap distribution.  Quantiles of the bootstrap draws give confidence
intervals for the projection target with half-width ``u* / (sqrt(n) ln n)``.
``t_star`` filters the normals into paths, ``coverage_experiment`` the summands
backwards (the adjoint), each by a ``dgtsv`` solve with ``lfilter``'s bits.
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


# Elements in one block of normal rows (8 MB of float64; at least 16 rows, so
# 12.8 MB at n = 1e5): the draws take O(n) memory whatever B is.  ``t_star``
# filters a block in place, so it holds one block; a coverage loop filters none.
BLOCK_ELEMENTS = 2**20


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


def _normal_blocks(rng: np.random.Generator, B: int, buf: np.ndarray):
    """Yield the normals of ``rng.standard_normal((B, n))`` in row blocks, each in ``buf``."""
    for r0 in range(0, B, len(buf)):
        eps = buf[:min(len(buf), B - r0)]
        rng.standard_normal(out=eps)
        yield eps


def _draws(d: np.ndarray, l_n: float, B: int, rng: np.random.Generator) -> np.ndarray:
    """``_ar1_filter(rng.standard_normal((B, len(d))), l_n) @ d`` bit for bit, one block of
    paths at a time.

    A short last block matches wherever the one (B, n) product is itself
    independent of the BLAS thread count.
    """
    return np.concatenate([_ar1_filter(eps, l_n) @ d
                           for eps in _normal_blocks(rng, B, _block_buffer(len(d), B))])


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


def t_star(fit: TrendFit, cfg: BootstrapConfig, rng: np.random.Generator,
           size: int) -> np.ndarray:
    """``size`` bootstrap statistics: weighted, window-centered log counts
    times fresh multiplier paths."""
    return _draws(_summands(fit, cfg.N_n), cfg.l_n, size, rng)


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

    Within a loop every cell reuses the trajectory and the normals of
    ``t_star``'s stream; a cell's draws are ``eps @ _adjoint_row(d, l_n)``, so
    one product per block serves all cells and no block is filtered.  Every
    alpha reads the same draws, which keeps the per-alpha intervals nested.
    The block buffer is made once per chunk: fresh arrays per loop cost about
    1900 page faults per loop at n = B = 500.
    """
    counts = np.zeros((len(cells), len(alphas)), dtype=np.int64)
    _, xs = simulate_replicate_block(params, n, master_seed, lo, hi)
    eps_buf = _block_buffer(n, B)
    for i in range(lo, hi):
        fit = theta_hat(xs[i - lo, 1:])
        ds = {N_n: _summands(fit, N_n) for N_n in {w for _, w in cells}}
        g = np.array([_adjoint_row(ds[N_n], l_n) for l_n, N_n in cells])
        rng = _rng.stream(master_seed, _rng.NS_BOOT, i)
        draws = np.concatenate([eps @ g.T for eps in _normal_blocks(rng, B, eps_buf)])
        for ci in range(len(cells)):
            for ai, alpha in enumerate(alphas):
                ci_obj = _interval_from_draws(fit, draws[:, ci], alpha)
                if ci_obj.lower <= theta_bar <= ci_obj.upper:
                    counts[ci, ai] += 1
    return counts


def coverage_experiment(params: ModelParams, n: int, cells: Sequence[tuple[float, int]],
                        alphas: Sequence[float], mc_loops: int, B: int,
                        master_seed: int, theta_bar_loops: int = THETA_BAR_LOOPS,
                        threads: int = 1) -> list[CoverageCell]:
    """Fraction of Monte Carlo loops whose interval covers the target.

    The target is estimated once per (params, n) from ``theta_bar_loops``
    independent replicates.  One row per (l_n, N_n, alpha).  Loop i's draws
    equal ``t_star`` on the (master_seed, NS_BOOT, i) stream up to rounding.
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
