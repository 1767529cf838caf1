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
from .process import ModelParams, simulate_replicate_block, validate
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


def theta_hat(x) -> TrendFit:
    """Fit the trend exponent: sum ln(t) ln(X_t+1) / sum ln(t)^2.

    The first observation has weight ln(1) = 0 and never contributes.
    """
    x = _check_counts(x)
    n = len(x)
    if n < 2:
        raise ConfigError(f"need at least 2 observations to fit a trend, got {n}")
    logt = np.log(np.arange(1, n + 1, dtype=float))
    transformed = np.log1p(x)
    denom = float(logt @ logt)
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
    logt = np.log(np.arange(1, n + 1, dtype=float))
    return math.sqrt(n) * math.log(n) * logt / float(logt @ logt)


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


def _theta_chunk(params: ModelParams, n: int, master_seed: int, lo: int, hi: int) -> np.ndarray:
    _, xs = simulate_replicate_block(params, n, master_seed, lo, hi)
    logt = np.log(np.arange(1, n + 1, dtype=float))
    return np.log1p(xs[:, 1:]) @ logt / float(logt @ logt)


def ensemble_theta_hats(params: ModelParams, n: int, replicates: int, master_seed: int,
                        threads: int = 1) -> np.ndarray:
    """Trend fits of independent replicate trajectories (one stream each)."""
    validate(params)
    if n < 2:
        raise ConfigError(f"need at least 2 observations to fit a trend, got {n}")
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    worker = partial(_theta_chunk, params, n, master_seed)
    parts = _rng.run_chunks(worker, replicates, threads)
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


def _curve_chunk(params: ModelParams, n: int, master_seed: int, lo: int, hi: int):
    _, xs = simulate_replicate_block(params, n, master_seed, lo, hi)
    l = np.log1p(xs)
    s1 = l.sum(axis=0)
    s2 = (l * l).sum(axis=0)
    s12 = (l[:, :-1] * l[:, 1:]).sum(axis=0)
    return s1, s2, s12


def mean_log_curve(params: ModelParams, n: int, replicates: int, master_seed: int):
    """Per-time Monte Carlo means of ln(X_t+1) with paired-difference errors.

    Returns (means, se_means, se_diffs) where ``se_diffs[t]`` is the standard
    error of ``mean[t+1] - mean[t]`` computed from the per-replicate paired
    differences, the right yardstick for monotonicity checks.
    """
    validate(params)
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    worker = partial(_curve_chunk, params, n, master_seed)
    parts = _rng.run_chunks(worker, replicates)
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    s12 = sum(p[2] for p in parts)
    R = replicates
    means = s1 / R
    var = np.maximum(s2 / R - means**2, 0.0) * R / max(R - 1, 1)
    se_means = np.sqrt(var / R)
    # Var(l_{t+1} - l_t) = Var(l_{t+1}) + Var(l_t) - 2 Cov
    cov = (s12 / R - means[:-1] * means[1:]) * R / max(R - 1, 1)
    var_diff = np.maximum(var[1:] + var[:-1] - 2.0 * cov, 0.0)
    se_diffs = np.sqrt(var_diff / R)
    return means, se_means, se_diffs
