"""The log-linear count feedback process and its analytic summaries.

The observable count at time t is ``X_t = floor(sigma_t * Y_t)`` with i.i.d.
innovations ``Y_t`` and a latent intensity driven by a log-linear recursion

    ln(sigma_t) = a * ln(sigma_{t-1}) + b * ln(X_{t-1} + 1) + C_{t-1},

where the exogenous term is either the deterministic trend ``c * ln(t)`` or
an i.i.d. sequence.  Under the contraction condition ``a + b * gamma < 1``
the count process forgets its past geometrically fast; this module evaluates
that decay bound as well as the stationary autocovariances of
``ln(X_t + 1)``, and simulates trajectories reproducibly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
from scipy.special import ndtri

from . import rng as _rng
from .errors import LOG_SIGMA_LIMIT, ConfigError, ExplosionError
from .innovations import (
    DistributionConstants,
    DiscretizedLaw,
    InnovationSpec,
    compute_constants,
)


@dataclass(frozen=True)
class ExogenousSpec:
    """Exogenous contribution to the intensity recursion.

    kind "trend": the value entering ln(sigma_t) is ``c * ln(t)`` with the
    trend coefficient taken from the model parameters; deterministic, so the
    mean absolute deviation bound M is zero.

    kind "iid": an i.i.d. sequence drawn by inverse transform from a named
    family ("normal": mean/sd, "uniform": mean/half_width).
    """

    kind: str = "trend"
    family: Optional[str] = None
    mean: float = 0.0
    sd: float = 0.0
    half_width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("trend", "iid"):
            raise ConfigError(f"exogenous kind must be 'trend' or 'iid', got {self.kind!r}")
        if not all(map(math.isfinite, (self.mean, self.sd, self.half_width))):
            raise ConfigError("exogenous mean, sd and half_width must be finite")
        if self.kind == "iid":
            if self.family == "normal":
                if not self.sd >= 0:
                    raise ConfigError("iid normal exogenous needs sd >= 0")
            elif self.family == "uniform":
                if not self.half_width >= 0:
                    raise ConfigError("iid uniform exogenous needs half_width >= 0")
            else:
                raise ConfigError("iid exogenous family must be 'normal' or 'uniform'")

    @property
    def mean_abs_dev(self) -> float:
        """M = sup_t E|C_t - E C_t|."""
        if self.kind == "trend":
            return 0.0
        if self.family == "normal":
            return self.sd * math.sqrt(2.0 / math.pi)
        return self.half_width / 2.0

    def quantile(self, u):
        """Inverse CDF of one exogenous draw (iid kind only)."""
        if self.kind != "iid":
            raise ConfigError("deterministic trend exogenous has no sampling quantile")
        u = np.asarray(u, dtype=float)
        if self.family == "normal":
            return self.mean + self.sd * ndtri(u)
        return self.mean + self.half_width * (2.0 * u - 1.0)


TREND = ExogenousSpec(kind="trend")


@dataclass(frozen=True)
class ModelParams:
    """Recursion coefficients, innovation law and initial intensity."""

    a: float
    b: float
    c: float
    innovation: InnovationSpec
    sigma0: float = 1.0
    exogenous: ExogenousSpec = field(default=TREND)

    def __post_init__(self):
        if not (self.a >= 0 and math.isfinite(self.a)):
            raise ConfigError(f"coefficient a must be >= 0, got {self.a}")
        if not (self.b >= 0 and math.isfinite(self.b)):
            raise ConfigError(f"coefficient b must be >= 0, got {self.b}")
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ConfigError(f"trend coefficient c must be >= 0, got {self.c}")
        if not (self.sigma0 >= 1 and math.isfinite(self.sigma0)):
            raise ConfigError(f"initial intensity sigma0 must be >= 1, got {self.sigma0}")

    @property
    def theta(self) -> float:
        """Trend exponent c / (1 - a - b) of the mean log counts."""
        return self.c / (1.0 - self.a - self.b)


def validate(params: ModelParams) -> DistributionConstants:
    """Check the contraction condition and return the innovation constants."""
    consts = compute_constants(params.innovation)
    contraction = params.a + params.b * consts.gamma
    if not contraction < 1.0:
        raise ConfigError(
            "contraction condition violated: "
            f"a + b*gamma = {params.a} + {params.b}*{consts.gamma:.6f} = {contraction:.6f} >= 1"
        )
    return consts


@dataclass
class Trajectory:
    """Simulated path of (sigma_t, X_t) with the inputs that produced it.

    ``c_exo[t]`` is the exogenous term that entered ``ln(sigma_t)``; index 0
    carries 0 by convention since sigma_0 is a parameter.  ``y[t]`` is the
    realized innovation, so ``x[t] == floor(sigma[t] * y[t])`` exactly.
    """

    sigma: np.ndarray
    x: np.ndarray
    c_exo: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x) - 1

    def counts(self) -> np.ndarray:
        """The statistical sample X_1, ..., X_n."""
        return self.x[1:]


def _exo_term(params: ModelParams, t: int, u_c):
    """Exogenous term C_{t-1} entering ln(sigma_t); ``u_c`` drives the iid kind."""
    if params.exogenous.kind == "trend":
        return params.c * math.log(t)
    return params.exogenous.quantile(u_c)


def _log_sigma(params: ModelParams, sigma_prev, x_prev, c_t):
    """ln(sigma_t) of the recursion, for a scalar or per replicate."""
    return params.a * np.log(sigma_prev) + params.b * np.log1p(x_prev) + c_t


def _next_sigma(params: ModelParams, t: int, sigma_prev, x_prev, c_t):
    """sigma_t of the recursion (scalar or per replicate); ExplosionError past the limit."""
    log_sigma = _log_sigma(params, sigma_prev, x_prev, c_t)
    bad = np.abs(log_sigma) > LOG_SIGMA_LIMIT
    if np.any(bad):
        raise ExplosionError(t, float(np.ravel(log_sigma)[np.argmax(bad)]))
    return np.exp(log_sigma)


def step(sigma_prev: float, x_prev: float, t: int, params: ModelParams,
         rng: np.random.Generator):
    """Advance the recursion one step; returns (sigma_t, X_t, C_{t-1}, Y_t).

    For the iid exogenous kind the generator is consumed in the order
    (exogenous draw, innovation draw).
    """
    if not (sigma_prev > 0 and math.isfinite(sigma_prev)):
        raise ConfigError(f"sigma_prev must be finite and positive, got {sigma_prev}")
    if not (x_prev >= 0 and math.isfinite(x_prev) and x_prev == math.floor(x_prev)):
        raise ConfigError(f"x_prev must be a non-negative integer count, got {x_prev}")
    if not t >= 1:
        raise ConfigError(f"step index t must be >= 1, got {t}")
    u_c = rng.random() if params.exogenous.kind == "iid" else None
    c_val = float(_exo_term(params, t, u_c))
    sigma_t = float(_next_sigma(params, t, sigma_prev, x_prev, c_val))
    y_t = float(params.innovation.quantile(rng.random()))
    x_t = math.floor(sigma_t * y_t)
    return sigma_t, x_t, c_val, y_t


def _evolve(params: ModelParams, n: int, u_y: np.ndarray, u_c: Optional[np.ndarray] = None):
    """The recursion over R replicates, in one loop for every R.

    u_y has shape (R, n+1): column 0 seeds X_0 ~ law(sigma0), column t the
    innovation of step t.  u_c (R, n) supplies exogenous draws for the iid
    kind; column t-1 is consumed at step t.

    Step t reads element t of views of the (R, n+1) matrices, never copies:
    at R = 1 the rows, so it steps numpy scalars; at R > 1 the transposes,
    so it steps one column of replicates.  The loop stores ln(sigma_t) in
    ``sig``; after it, one check finds the earliest t past LOG_SIGMA_LIMIT
    (and the first replicate at that t), and one ``np.exp`` turns columns
    1..n into sigma.  Every transcendental is a numpy ufunc, which gives the
    same bits on a scalar, a contiguous and a strided array, so a replicate's
    path never depends on R or on the block it runs in.
    """
    R = u_y.shape[0]
    # neither the innovations nor the exogenous terms depend on the recursion
    ys = params.innovation.quantile(u_y)
    cs = np.zeros((R, n + 1))
    if u_c is None:
        cs[:, 1:] = [_exo_term(params, t, None) for t in range(1, n + 1)]
    else:
        cs[:, 1:] = params.exogenous.quantile(u_c)
    sig = np.empty((R, n + 1))
    xs = np.empty((R, n + 1))
    sig[:, 0] = params.sigma0
    xs[:, 0] = np.floor(sig[:, 0] * ys[:, 0])
    # column 0 keeps sigma0 itself; columns 1..n hold ln(sigma_t) until the exp below
    log_sig, x, c, y = (a[0] if R == 1 else a.T for a in (sig, xs, cs, ys))
    sigma = log_sig[0]
    # past an explosion the loop steps inf and nan silently; the check below reports it
    with np.errstate(all="ignore"):
        for t in range(1, n + 1):
            log_sig[t] = ls = _log_sigma(params, sigma, x[t - 1], c[t])
            sigma = np.exp(ls)
            x[t] = np.floor(sigma * y[t])
    body = sig[:, 1:]
    # fmax/fmin skip the NaNs that can follow an explosion, as the limit test does
    if (np.fmax.reduce(body, axis=None, initial=-np.inf) > LOG_SIGMA_LIMIT
            or np.fmin.reduce(body, axis=None, initial=np.inf) < -LOG_SIGMA_LIMIT):
        bad = np.abs(body) > LOG_SIGMA_LIMIT
        t = int(bad.any(axis=0).argmax())
        raise ExplosionError(t + 1, float(body[bad[:, t].argmax(), t]))
    np.exp(body, out=body)
    return sig, xs, cs, ys


def _evolve_rows(params: ModelParams, n: int, uniforms):
    """``_evolve`` on ``uniforms(width)``, an (R, width) matrix whose rows hold
    the n+1 innovation uniforms followed, for the iid kind, by n exogenous ones."""
    if n < 0:
        raise ConfigError("trajectory length must be >= 0")
    iid = params.exogenous.kind == "iid"
    u = uniforms(2 * n + 1 if iid else n + 1)
    return _evolve(params, n, u[:, :n + 1], u[:, n + 1:] if iid else None)


def simulate(params: ModelParams, n: int, master_seed: int) -> Trajectory:
    """Simulate (sigma_t, X_t) for t = 0..n, deterministically in the seed."""
    validate(params)
    sig, xs, cs, ys = _evolve_rows(
        params, n, lambda width: _rng.stream(master_seed).random((1, width)))
    return Trajectory(sigma=sig[0], x=xs[0], c_exo=cs[0], y=ys[0])


def simulate_replicate_block(params: ModelParams, n: int, master_seed: int,
                             lo: int, hi: int):
    """Simulate replicates lo..hi-1, each from its own (seed, NS_SIM, r) stream.

    Returns arrays of shape (hi-lo, n+1): sigma, x.
    """
    sig, xs, _, _ = _evolve_rows(params, n, partial(_rng.uniform_rows, master_seed, lo, hi))
    return sig, xs


def theorem1_bound(params: ModelParams, n: int,
                   constants: Optional[DistributionConstants] = None) -> float:
    """Analytic upper bound on the mixing coefficient after a gap of n steps.

    The count process is absolutely regular with coefficients bounded by

        (a + b*gamma)^n * (big_gamma / (1-a))
            * { 2|ln sigma0| + (2b(p_sup + E ln+ Y) + 2M) / (1-a-b) }.
    """
    k = constants if constants is not None else validate(params)
    lead = (params.a + params.b * k.gamma) ** n
    return lead * k.big_gamma / (1.0 - params.a) * _theorem1_brace(params, k)


def _theorem1_brace(params: ModelParams, k: DistributionConstants) -> float:
    """The brace ``2|ln sigma0| + (2b(p_sup + E ln+ Y) + 2M) / (1-a-b)`` of Theorem 1."""
    return 2.0 * abs(math.log(params.sigma0)) + (
        2.0 * params.b * (k.p_sup + k.e_ln_plus) + 2.0 * params.exogenous.mean_abs_dev
    ) / (1.0 - params.a - params.b)


def theoretical_autocovariance(params: ModelParams, u: int,
                               constants: Optional[DistributionConstants] = None) -> float:
    """Large-t limit of cov(ln(X_t+1), ln(X_{t-u}+1)).

    At lag 0 this is ``Var(ln Y) * (b^2/(1-(a+b)^2) + 1)``; at lag u >= 1 it
    is ``Var(ln Y) * (b^2 (a+b)^u / (1-(a+b)^2) + b (a+b)^{u-1})``.
    """
    if u < 0:
        raise ConfigError("lag must be >= 0")
    k = constants if constants is not None else validate(params)
    ab = params.a + params.b
    v = k.var_ln_y
    if u == 0:
        return v * (params.b**2 / (1.0 - ab**2) + 1.0)
    return v * (params.b**2 * ab**u / (1.0 - ab**2) + params.b * ab ** (u - 1))


def initial_law(params: ModelParams) -> DiscretizedLaw:
    """Law of X_0, the discretization of the initial intensity."""
    return DiscretizedLaw(params.innovation, params.sigma0)
