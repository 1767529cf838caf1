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
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
from scipy.special import ndtri

from . import rng as _rng
from .errors import LOG_SIGMA_LIMIT, ConfigError, ExplosionError
from .innovations import DistributionConstants, InnovationSpec, compute_constants


@dataclass(frozen=True)
class ExogenousSpec:
    """Exogenous contribution to the intensity recursion.

    kind "trend": the value entering ln(sigma_t) is ``c * ln(t)`` with the
    trend coefficient taken from the model parameters; deterministic, so the
    mean absolute deviation bound M is zero.

    kind "iid": an i.i.d. sequence drawn by inverse transform from a named
    family ("normal": mean/sd, "uniform": mean/half_width).  A field that
    the kind and family do not read must keep its default.
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
        read = {"kind"} if self.kind == "trend" else {
            "kind", "family", "mean", "sd" if self.family == "normal" else "half_width"}
        unread = [f.name for f in fields(self)
                  if f.name not in read and getattr(self, f.name) != f.default]
        if unread:  # a value nothing reads would be dropped without a word
            raise ConfigError(f"exogenous kind {self.kind!r}, family {self.family!r} "
                              f"does not use {unread}")

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
    """Recursion coefficients, innovation law and initial intensity; an iid
    exogenous term replaces the trend, so beside one the trend's ``c`` is 0."""

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
        if self.exogenous.kind == "iid" and self.c != 0:  # nothing would read it
            raise ConfigError(f"trend coefficient c must be 0 beside an iid term, got {self.c}")
        if not (self.sigma0 >= 1 and math.isfinite(self.sigma0)):
            raise ConfigError(f"initial intensity sigma0 must be >= 1, got {self.sigma0}")

    @property
    def theta(self) -> float:
        """Trend exponent c / (1 - a - b) of the mean log counts."""
        return self.c / (1.0 - self.a - self.b)


def validate(params: ModelParams) -> DistributionConstants:
    """Check the contraction condition and return the innovation constants."""
    consts = compute_constants(params.innovation)
    contraction = _contraction(params, consts)
    if not contraction < 1.0:
        raise ConfigError(
            "contraction condition violated: "
            f"a + b*gamma = {params.a} + {params.b}*{consts.gamma:.6f} = {contraction:.6f} >= 1"
        )
    return consts


def _contraction(params: ModelParams, k: DistributionConstants) -> float:
    """The Theorem-1 contraction ``a + b*gamma``; ``validate`` requires it below 1."""
    return params.a + params.b * k.gamma


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


def _log_sigma(params: ModelParams, log_sigma_prev, log1p_x_prev, c_t):
    """ln(sigma_t) of the recursion from ln(sigma_{t-1}) and ln(X_{t-1} + 1), for a
    scalar or per replicate."""
    return params.a * log_sigma_prev + params.b * log1p_x_prev + c_t


# Most elements one quantile call transforms: ``_quantile_rows`` feeds the
# innovation and exogenous quantiles a few time rows at a time, so that
# their temporaries stay small beside a block's workspace.
QUANTILE_SLAB = 2**13


def _workspace(params: ModelParams, n: int, rows: int) -> np.ndarray:
    """Flat float64 buffer for every matrix of a ``rows``-replicate ``_evolve``
    block: three (n+1, rows) slots, four for the iid kind."""
    slots = 4 if params.exogenous.kind == "iid" else 3
    _check_shape(rows, slots * (n + 1))
    return np.empty(slots * (n + 1) * rows)


def _quantile_rows(quantile, u, out) -> None:
    """``out[t] = quantile(u[t])`` for every row t of ``out``, in calls of at
    most about ``QUANTILE_SLAB`` elements."""
    step = max(QUANTILE_SLAB // max(out.shape[1], 1), 1)
    for t in range(0, len(out), step):
        out[t:t + step] = quantile(u[t:t + step])


def _evolve(params: ModelParams, n: int, R: int, uniforms, workspace=None, draw=None):
    """The recursion over R replicates.

    ``uniforms(out)`` fills the C-ordered (R, width) matrix ``out`` with the
    draws: column 0 seeds X_0 ~ law(sigma0), column t the innovation of step
    t, and for the iid kind columns n+1.. the n exogenous draws, column n+t
    consumed at step t.

    ``draw = (start, fn)``, passed only by the pair experiment of
    ``coupling``, hands the steps from ``start`` on to ``fn(t, sigma, x_t)``,
    which writes X_t in row ``x_t`` in place of ``floor(sigma_t Y_t)``.  The
    kernel floors steps 0..start-1 itself and turns only their innovation
    columns into ``ys``: ``uniforms`` need not fill columns start..n, and
    rows start..n of ``ys`` are left unwritten.  Such a block steps rows at
    R = 1 too and stops at the first step past LOG_SIGMA_LIMIT, so ``fn``
    never sees an exploded scale.

    Every matrix of the block lives in ``workspace`` (from ``_workspace``, or
    a new one), in (n+1, R) slots stored time-major: row t of a slot holds
    step t of every replicate.  The draws fill slot 0 (slots 0 and 1 for the
    iid kind) as one (R, width) matrix; ``_quantile_rows`` turns them into
    the innovations ``ys`` in the last slot and, for the iid kind, the
    exogenous terms ``cs`` in slot 2.  ln(sigma) then overwrites slot 0 and X
    fills slot 1.  For the trend kind ``cs`` is a broadcast view of one
    (n+1) row ``c ln t`` that every replicate shares, so the block holds
    three slots and the quantile's temporaries.  A caller that runs block
    after block on one workspace reuses its pages; each block overwrites the
    last.

    At R = 1 step t reads element t of lists of floats, cheaper to index and
    written back after the loop, and each ufunc result is taken as a Python
    float, whose arithmetic is the same IEEE double arithmetic as numpy's but
    cheaper per scalar.  At R > 1 step t reads row t-1 and writes row t of
    each slot, contiguous rows of R replicates, with ``out=`` ufuncs in the
    order of ``_log_sigma``.  The loop stores ln(sigma_t) in slot 0; after it
    one check finds the earliest t past LOG_SIGMA_LIMIT (and its first
    replicate: the lowest row of ``out``), and one ``np.exp`` turns rows 1..n
    into sigma.  Every transcendental is a numpy ufunc, with the same bits on
    a float and on any array (``math``'s differ in the last bit), so a path
    never depends on R or its block.

    Returns (R, n+1) views ``sig``, ``xs``, ``cs``, ``ys`` (transposes of the
    slots, and of the trend row's broadcast).
    """
    if n < 0:
        raise ConfigError("trajectory length must be >= 0")
    iid = params.exogenous.kind == "iid"
    width, m = (2 * n + 1 if iid else n + 1), n + 1
    ws = _workspace(params, n, R) if workspace is None else workspace
    slot = [ws[i * m * R:(i + 1) * m * R].reshape(m, R) for i in range(4 if iid else 3)]
    # neither the innovations nor the exogenous terms depend on the recursion
    u = ws[:R * width].reshape(R, width)
    uniforms(u)
    start, fn = (m, None) if draw is None else draw
    y = slot[-1]
    _quantile_rows(params.innovation.quantile, u[:, :start].T, y[:start])
    if iid:
        c = slot[2]
        c[0] = 0.0
        _quantile_rows(params.exogenous.quantile, u[:, m:].T, c[1:])
        cs = c.T
    else:
        row = np.zeros(m)
        row[1:] = [params.c * math.log(t) for t in range(1, m)]
        c = row.tolist()
        cs = np.broadcast_to(row, (R, m))
    log_sig, x = slot[0], slot[1]  # the draws are spent
    # row 0 keeps sigma0 itself; rows 1..n hold ln(sigma_t) until the exp below
    log_sig[0] = params.sigma0
    np.floor(np.multiply(log_sig[0], y[0], out=x[0]), out=x[0])
    # past an explosion the loop steps inf and nan silently; the check below reports it
    with np.errstate(all="ignore"):
        if R == 1 and draw is None:
            ls1, x1, y1 = log_sig[:, 0].tolist(), x[:, 0].tolist(), y[:, 0].tolist()
            c1 = c[:, 0].tolist() if iid else c
            sigma = ls1[0]
            for t in range(1, m):
                ls1[t] = ls = _log_sigma(params, float(np.log(sigma)), float(np.log1p(x1[t - 1])),
                                         c1[t])
                sigma = float(np.exp(ls))
                x1[t] = float(np.floor(sigma * y1[t]))
            log_sig[:, 0], x[:, 0] = ls1, x1
        else:
            sigma, lx = np.full(R, params.sigma0), np.empty(R)
            a, b = params.a, params.b
            steps = zip(log_sig[1:], x[:-1], x[1:], y[1:], c[1:])
            for t, (ls, x_prev, x_t, y_t, c_t) in enumerate(steps, 1):
                np.multiply(np.log(sigma, out=ls), a, out=ls)
                np.multiply(np.log1p(x_prev, out=lx), b, out=lx)
                np.add(ls, lx, out=ls)
                np.add(ls, c_t, out=ls)
                np.exp(ls, out=sigma)
                if fn is not None and _past_limit(ls):  # the check below reports it
                    break
                if t < start:
                    np.floor(np.multiply(sigma, y_t, out=x_t), out=x_t)
                else:
                    fn(t, sigma, x_t)
    body = log_sig[1:]
    if _past_limit(body):
        bad = np.abs(body) > LOG_SIGMA_LIMIT
        t = int(bad.any(axis=1).argmax())
        raise ExplosionError(t + 1, float(body[t, bad[t].argmax()]))
    np.exp(body, out=body)
    return log_sig.T, x.T, cs, y.T


def _past_limit(log_sigma) -> bool:
    """Whether any entry of ``log_sigma`` is past LOG_SIGMA_LIMIT; fmax/fmin skip
    the NaNs that can follow an explosion, as the limit test does."""
    return bool(np.fmax.reduce(log_sigma, axis=None, initial=-np.inf) > LOG_SIGMA_LIMIT
                or np.fmin.reduce(log_sigma, axis=None, initial=np.inf) < -LOG_SIGMA_LIMIT)


def _check_shape(rows: int, width: int) -> None:
    """ConfigError for a (rows, width) float64 matrix whose byte count no
    array index can hold, before anything is allocated."""
    if rows * width > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"a {rows} x {width} matrix of draws is too large for any array")


def simulate(params: ModelParams, n: int, master_seed: int) -> Trajectory:
    """Simulate (sigma_t, X_t) for t = 0..n, deterministically in the seed."""
    validate(params)
    sig, xs, cs, ys = _evolve(params, n, 1, lambda out: _rng.stream(master_seed).random(out=out))
    # c_exo copies its row: a trend row is a read-only broadcast view
    return Trajectory(sigma=sig[0], x=xs[0], c_exo=np.array(cs[0]), y=ys[0])


def simulate_replicate_block(params: ModelParams, n: int, master_seed: int,
                             lo: int, hi: int, workspace=None):
    """Simulate replicates lo..hi-1, each from its own (seed, NS_SIM, r) stream.

    Returns (hi-lo, n+1) views sigma, x of time-major buffers.  With a
    ``workspace`` (``_workspace(params, n, rows)``, rows >= hi-lo) they live
    in it, sigma in its first (n+1) * (hi-lo) elements, until the next block
    run on it.
    """
    sig, xs, _, _ = _evolve(params, n, hi - lo,
                            lambda out: _rng.uniform_rows(master_seed, lo, hi, out.shape[1], out),
                            workspace)
    return sig, xs


def theorem1_bound(params: ModelParams, n: int,
                   constants: Optional[DistributionConstants] = None) -> float:
    """Analytic upper bound on the mixing coefficient after a gap of n steps.

    The count process is absolutely regular with coefficients bounded by

        (a + b*gamma)^n * (big_gamma / (1-a))
            * { 2|ln sigma0| + (2b(p_sup + E ln+ Y) + 2M) / (1-a-b) }.
    """
    k = constants if constants is not None else validate(params)
    lead = _contraction(params, k) ** n
    return lead * k.big_gamma / (1.0 - params.a) * _theorem1_brace(params, k)


def _theorem1_brace(params: ModelParams, k: DistributionConstants) -> float:
    """The brace ``2|ln sigma0| + (2b(p_sup + E ln+ Y) + 2M) / (1-a-b)`` of Theorem 1."""
    return 2.0 * abs(math.log(params.sigma0)) + (
        2.0 * params.b * (k.p_sup + k.e_ln_plus) + 2.0 * params.exogenous.mean_abs_dev
    ) / (1.0 - params.a - params.b)
