"""Trend estimation for the log-linear count model.

The mean log count grows like ``theta * ln(t)`` with trend exponent
``theta = c / (1 - a - b)``.  Regressing ``ln(X_t + 1)`` on ``ln(t)`` by
least squares gives the estimator implemented here; it is centered at the
finite-sample projection target (the same regression applied to the exact
means), which the t-type statistic ``sqrt(n) ln(n) (theta_hat - target)``
tracks at its non-standard rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import rng as _rng
from .errors import ConfigError
from .process import ModelParams, _workspace, simulate_replicate_block, validate
from .innovations import DistributionConstants

# Default number of replicate fits that estimate the projection target.
THETA_BAR_LOOPS = 20_000


@dataclass(frozen=True)
class TrendFit:
    """Least-squares fit of ln(X_t+1) on ln(t), t = 1..n."""

    theta_hat: float
    n: int
    weights_denominator: float
    series_transformed: np.ndarray  # ln(X_t + 1), t = 1..n


@dataclass(frozen=True)
class TargetTheta:
    """Monte Carlo estimate of the projection target of the trend fit."""

    theta_bar: float
    mc_loops: int
    stderr: float


def _check_counts(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigError("count series must be one-dimensional")
    if np.any(x < 0) or np.any(x != np.floor(x)):
        raise ConfigError("count series must contain non-negative integers")
    return x


def _log_time(n: int) -> tuple[np.ndarray, float]:
    """The regressor ``ln(t)``, t = 1..n, and its squared norm ``sum_t ln(t)^2``."""
    logt = np.log(np.arange(1, n + 1, dtype=float))
    return logt, float(logt @ logt)


def theta_hat(x) -> TrendFit:
    """Fit the trend exponent: sum ln(t) ln(X_t+1) / sum ln(t)^2.

    The first observation has weight ln(1) = 0 and never contributes.
    """
    x = _check_counts(x)
    n = len(x)
    if n < 2:
        raise ConfigError(f"need at least 2 observations to fit a trend, got {n}")
    logt, denom = _log_time(n)
    transformed = np.log1p(x)
    est = float(logt @ transformed) / denom
    return TrendFit(theta_hat=est, n=n, weights_denominator=denom,
                    series_transformed=transformed)


def t_statistic(fit: TrendFit, theta_ref: float) -> float:
    """sqrt(n) * ln(n) * (theta_hat - theta_ref)."""
    return math.sqrt(fit.n) * math.log(fit.n) * (fit.theta_hat - theta_ref)


def trend_weights(n: int) -> np.ndarray:
    """w_t = sqrt(n) ln(n) ln(t) / sum_s ln(s)^2 for t = 1..n."""
    if n < 2:
        raise ConfigError("weights need n >= 2")
    logt, denom = _log_time(n)
    return math.sqrt(n) * math.log(n) * logt / denom


def asymptotic_sigma2(params: ModelParams,
                      constants: Optional[DistributionConstants] = None) -> float:
    """Limit variance of the trend statistic: Var(ln Y) (1-a)^2 / (1-a-b)^2."""
    k = constants if constants is not None else validate(params)
    return k.var_ln_y * (1.0 - params.a) ** 2 / (1.0 - (params.a + params.b)) ** 2


def nn_means(transformed: np.ndarray, window: int) -> np.ndarray:
    """Moving averages of an already log-transformed series for every t.

    Sums are accumulated after subtracting the first value, which keeps the
    running totals small (better conditioning on long series) and makes a
    constant series reproduce itself exactly.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    transformed = np.asarray(transformed, dtype=float)
    n = len(transformed)
    anchor = transformed[0]
    csum = np.concatenate(([0.0], np.cumsum(transformed - anchor)))
    t = np.arange(1, n + 1)
    lo = np.maximum(1, t - window)
    hi = np.minimum(n, t + window)
    return anchor + (csum[hi] - csum[lo - 1]) / (hi - lo + 1)


def _theta_span(params: ModelParams, n: int, master_seed: int, lo: int, hi: int) -> np.ndarray:
    """Trend fits of replicates lo..hi-1, one ``CHUNK``-row block at a time.

    Every block is stepped on one workspace and fitted by one (rows, n) @ logt
    product, as each chunk of ``run_chunks`` would be, so the fits do not
    depend on the span.  The C-ordered ln(X_t + 1) rows that the product
    reads overwrite the block's sigma, which no fit reads.
    """
    logt, denom = _log_time(n)
    ws = _workspace(params, n, min(hi - lo, _rng.CHUNK))
    thetas = np.empty(hi - lo)
    for b_lo, b_hi in _rng.chunk_bounds(hi - lo):
        _, xs = simulate_replicate_block(params, n, master_seed, lo + b_lo, lo + b_hi, ws)
        rows = np.log1p(xs[:, 1:], out=ws[:(b_hi - b_lo) * n].reshape(b_hi - b_lo, n))
        thetas[b_lo:b_hi] = rows @ logt / denom
    return thetas


def ensemble_theta_hats(params: ModelParams, n: int, replicates: int, master_seed: int,
                        threads: int = 1) -> np.ndarray:
    """Trend fits of independent replicate trajectories (one stream each).

    Each worker fits one span of whole chunks (``rng.span``); a span holds
    one block's workspace and the fits, so its rows are not bounded by the
    width of the paths.
    """
    validate(params)
    if n < 2:
        raise ConfigError(f"need at least 2 observations to fit a trend, got {n}")
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    worker = partial(_theta_span, params, n, master_seed)
    parts = _rng.run_chunks(worker, replicates, threads, chunk=_rng.span(replicates, threads, 1))
    return np.concatenate(parts)


def theta_bar_mc(params: ModelParams, n: int, mc_loops: int, master_seed: int,
                 threads: int = 1) -> TargetTheta:
    """Monte Carlo projection target: the trend fit applied to mean log counts.

    Since the target is linear in the per-time means, it equals the average
    of per-replicate fits, whose spread gives the standard error.
    """
    if mc_loops < 1:
        raise ConfigError("mc_loops must be >= 1")
    thetas = ensemble_theta_hats(params, n, mc_loops, master_seed, threads)
    se = float(thetas.std(ddof=1) / math.sqrt(mc_loops)) if mc_loops > 1 else 0.0
    return TargetTheta(theta_bar=float(thetas.mean()), mc_loops=mc_loops, stderr=se)
