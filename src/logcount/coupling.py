"""Ordered maximal coupling of discretized laws and mixing-rate experiments.

Two counts with the same innovation but different scales can be drawn from a
single uniform so that (a) each has its exact marginal law, (b) they coincide
with probability ``1 - d_TV`` (the maximum possible), and (c) the larger
scale never produces the smaller count.  Every coupled draw goes through
``_scaled_coupled``, which takes the one pmf crossing of the two laws from
``innovations._crossing_index`` (built on the closed-form crossing of their
scaled densities).  Draws at bit-equal scales merge at one quantile without
that crossing test, and the two residual searches of the other draws share
one bisection.  The explicit pmf-table construction that the tests compare
it against lives with them, in ``tests/oracles.py``.  Running two feedback
chains with independent pasts and coupling them from a cut-off time onward
turns the fraction of replicates whose counts ever differ after a gap into
a Monte Carlo upper bound on the mixing coefficient, which can then be
compared to the analytic geometric bound.  Both chains of a pair step
through ``process._evolve``, the kernel of every path, as the halves of one
block.  The experiment only counts, so it steps worker-sized spans.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import rng as _rng
from .errors import ConfigError
from .innovations import _crossing_index, _discrete_quantile
from .process import (ModelParams, _check_shape, _evolve, _theorem1_brace, theorem1_bound,
                      validate)


# ---------------------------------------------------------------------------
# Coupled draws at two scales
# ---------------------------------------------------------------------------

def _first_true(lo: np.ndarray, hi: np.ndarray, pred):
    """Vectorized binary search: smallest k in [lo, hi] with pred(k) true.

    ``pred`` must be monotone (false below some threshold, true at hi).
    Above 2**53 not every integer is a float: the midpoint is kept below
    ``hi`` and ``lo`` advances to at least the next float, so each open
    bracket shrinks on every pass and the search ends on a representable k.
    The midpoint halves before it adds, which is exact and cannot overflow.
    """
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    while np.any(open_ := lo < hi):
        mid = np.minimum(np.floor(lo / 2.0 + hi / 2.0), np.nextafter(hi, 0.0))
        t = pred(mid)
        lo = np.where(open_ & ~t, np.maximum(mid + 1.0, np.nextafter(mid, np.inf)), lo)
        hi = np.where(open_ & t, mid, hi)
    return lo


def _scaled_coupled(base, sigma: np.ndarray, sigma_prime: np.ndarray, u: np.ndarray):
    """Coupled draw at two scales of one innovation, one replicate per vector entry.

    Equivalent to the dense table construction because the pmf difference of
    the two scalings changes sign once (the scaled densities of every
    built-in family cross once); ``_crossing_index`` finds that index from
    the closed-form crossing with one test per draw.  Merged draws are
    closed-form quantiles.  Each residual draw bisects ``sf`` differences
    over a bracket capped by a quantile of its own law, so no search runs
    into the far tail of a heavy-tailed base, where pmf differences taken
    from ``sf`` values are rounding noise.  The residual searches of both
    laws run as one stacked bisection: they call the same ``sf``
    difference, and on the few residual draws of a step the cost is the
    number of calls, not their length.

    Where ``sigma == sigma_prime`` and ``u < 1`` the two laws are one law:
    ``dtv`` is exactly 0, every draw merges, and both merged branches give
    the quantile at ``u``.  Those entries take that quantile directly and
    skip the crossing test; the others run the general path, which is
    elementwise, so every output keeps its bits.
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma_prime = np.asarray(sigma_prime, dtype=float)
    u = np.asarray(u, dtype=float)
    x_first = np.empty(u.shape)
    x_second = np.empty(u.shape)
    merged = np.ones(u.shape, dtype=bool)
    same = (sigma == sigma_prime) & (u < 1.0)
    x_first[same] = x_second[same] = _discrete_quantile(base, sigma[same], u[same])
    rest = ~same
    sigma, sigma_prime, u = sigma[rest], sigma_prime[rest], u[rest]

    swap = sigma < sigma_prime
    s_hi = np.where(swap, sigma_prime, sigma)
    s_lo = np.where(swap, sigma, sigma_prime)

    ks = _crossing_index(base, s_lo, s_hi)
    # crossing index: below ks the low-scale law dominates pointwise
    f_hi_cross = base.cdf(ks / s_hi)
    dtv = base.sf(ks / s_hi) - base.sf(ks / s_lo)
    omega = 1.0 - dtv

    x = np.empty(u.shape)
    merged_rest = u < omega

    low_branch = merged_rest & (u <= f_hi_cross)
    if np.any(low_branch):
        x[low_branch] = _discrete_quantile(base, s_hi[low_branch], u[low_branch])
    high_branch = merged_rest & ~low_branch
    if np.any(high_branch):
        lvl = np.minimum(u[high_branch] + dtv[high_branch], np.nextafter(1.0, 0.0))
        x[high_branch] = _discrete_quantile(base, s_lo[high_branch], lvl)
    x_hi = x.copy()
    x_lo = x.copy()

    res = ~merged_rest
    if np.any(res):
        v = u[res] - omega[res]
        d_r = dtv[res]
        ks_r = ks[res]
        shi_r = s_hi[res]
        slo_r = s_lo[res]

        def d_of(k, shi=shi_r, slo=slo_r):
            return base.sf((k + 1.0) / shi) - base.sf((k + 1.0) / slo)

        # residual of the high-scale law lives above the crossing,
        # cumulative mass dtv - D(k), non-decreasing in k; since
        # D(k) <= sf_hi(k), it reaches v by the high law's quantile at
        # 1 - (dtv - v), and only where rounding hides that does the
        # search run on to the 1 - 1e-13 quantile
        top = np.minimum(1.0 - (d_r - v), np.nextafter(1.0, 0.0))
        cap = np.maximum(_discrete_quantile(base, shi_r, top) + 1.0, ks_r)
        hidden = ~(d_of(cap) <= d_r - v)
        if np.any(hidden):
            cap[hidden] = np.ceil(shi_r[hidden] * float(base.quantile(1.0 - 1e-13))) + 1.0
        # residual of the low-scale law lives at or below the crossing,
        # cumulative mass D(k), non-decreasing in k; the first n rows search
        # the high law's residual over [ks, cap], the last n the low law's
        # over [0, ks - 1]
        n = len(v)
        high = np.arange(2 * n) < n
        level = np.concatenate((d_r - v, v))
        shi2, slo2 = np.tile(shi_r, 2), np.tile(slo_r, 2)

        def reached(k):
            d = d_of(k, shi2, slo2)
            return np.where(high, d <= level, d >= level)

        both = _first_true(np.concatenate((ks_r, np.zeros_like(ks_r))),
                           np.concatenate((cap, np.maximum(ks_r - 1.0, 0.0))), reached)
        x_hi[res], x_lo[res] = both[:n], both[n:]

    x_first[rest] = np.where(swap, x_lo, x_hi)
    x_second[rest] = np.where(swap, x_hi, x_lo)
    merged[rest] = merged_rest
    return x_first, x_second, merged


# ---------------------------------------------------------------------------
# Coupled chain experiments
# ---------------------------------------------------------------------------

@dataclass
class CouplingExperimentResult:
    """Monte Carlo upper-bound estimates of the mixing coefficients.

    ``beta_hat[i]`` is the fraction of replicates whose coupled chains differ
    anywhere in the window [k + horizons[i], k + horizons[i] + truncation].
    Because the window is finite the estimate undershoots the full-horizon
    event by at most ``truncation_bound``; it always estimates an upper bound
    of the mixing coefficient, never the coefficient itself.
    """

    k: int
    truncation: int
    replicates: int
    horizons: np.ndarray
    beta_hat: np.ndarray
    stderr: np.ndarray
    theorem_bound: np.ndarray
    truncation_bound: np.ndarray

    def log_slope(self):
        """LS slope of ln(beta_hat) over horizons with at least 10 hits."""
        keep = self.beta_hat >= 10 / self.replicates
        if keep.sum() < 2:
            return None
        x = self.horizons[keep].astype(float)
        y = np.log(self.beta_hat[keep])
        return float(np.polyfit(x, y, 1)[0])


def _uniform_width(params: ModelParams, k: int, horizon: int) -> int:
    """Uniforms per replicate of the pair experiment.

    (k+1) innovations per chain for the independent phase, then one shared
    uniform per coupled step; iid exogenous adds k draws per chain plus one
    shared draw per coupled step.
    """
    return 2 * (k + 1) + horizon + (2 * k + horizon if params.exogenous.kind == "iid" else 0)


def _coupled_chain_block(params: ModelParams, k: int, horizon: int, master_seed: int,
                         lo: int, hi: int) -> np.ndarray:
    """Replicates lo..hi-1 of the pair experiment: ``merged`` of shape (hi-lo, horizon),
    True where the coupled step t = k+1+j drew equal counts.

    One ``_evolve`` block of 2R rows steps chain A in rows [0, R) and chain B
    in rows [R, 2R) over t = 0..k+horizon, each on its own innovations and
    exogenous draws up to t = k and on the pair's shared ones after it.  The
    kernel floors ``sigma_t Y_t`` up to t = k; its ``draw`` hook takes over
    at t = k+1 and draws both halves from the pair's coupled uniform, so
    only the first k+1 innovation columns are filled and transformed.  An
    explosion reports the earliest step past the limit, chain A's rows
    before B's.  Every step is elementwise per replicate, so a replicate's
    row does not depend on the rows it runs with.
    """
    R = hi - lo
    iid = params.exogenous.kind == "iid"
    width = _uniform_width(params, k, horizon)
    _check_shape(R, width)
    u = _rng.uniform_rows(master_seed, lo, hi, width)
    off = 2 * (k + 1) + horizon
    uc = u[:, 2 * (k + 1): off]
    m = k + horizon + 1

    def uniforms(out):
        """Chain A's columns of ``u`` into rows [0, R) of ``out``, B's into [R, 2R)."""
        for i, half in enumerate((out[:R], out[R:])):
            half[:, :k + 1] = u[:, i * (k + 1): (i + 1) * (k + 1)]
            if iid:
                half[:, m: m + k] = u[:, off + i * k: off + (i + 1) * k]
                half[:, m + k:] = u[:, off + 2 * k:]  # shared across the pair

    merged = np.empty((R, horizon), dtype=bool)

    def draw(t, sigma, x_t):
        """X_t of both halves at a coupled step t > k."""
        j = t - k - 1
        x_t[:R], x_t[R:], merged[:, j] = _scaled_coupled(params.innovation, sigma[:R],
                                                         sigma[R:], uc[:, j])

    _evolve(params, k + horizon, 2 * R, uniforms, draw=(k + 1, draw))
    return merged


def _beta_chunk(params: ModelParams, k: int, n_max: int, truncation: int,
                master_seed: int, lo: int, hi: int) -> np.ndarray:
    """Per gap n = 1..n_max, the int64 count of replicates lo..hi-1 whose
    chains differ somewhere in [k+n, k+n+truncation]; any split of the
    replicates into blocks sums to the same counts."""
    diff = ~_coupled_chain_block(params, k, n_max + truncation, master_seed, lo, hi)
    windows = np.lib.stride_tricks.sliding_window_view(diff, truncation + 1, axis=1)
    return windows.any(axis=2).sum(axis=0).astype(np.int64)


def estimate_beta(params: ModelParams, k: int, n_grid, truncation: int,
                  replicates: int, master_seed: int,
                  threads: int = 1) -> CouplingExperimentResult:
    """Monte Carlo upper-bound estimate of mixing coefficients over a gap grid.

    For each gap n the estimate is the fraction of replicates whose coupled
    chains differ anywhere in [k+n, k+n+truncation].  The analytic decay
    bound and the tail left out by the truncation are evaluated alongside.

    Each worker steps one contiguous span of replicates (``rng.span``), not
    ``rng.CHUNK``-row chunks: every replicate owns its stream, every step is
    elementwise per replicate and the chunks only sum int64 counts, so the
    result does not depend on the span or on ``threads``.
    """
    consts = validate(params)
    n_grid = np.asarray(sorted(set(int(n) for n in n_grid)), dtype=int)
    if len(n_grid) == 0 or n_grid[0] < 1:
        raise ConfigError("need at least one gap, and gaps must be >= 1")
    if k < 0 or truncation < 0 or replicates < 1:
        raise ConfigError("need k >= 0, truncation >= 0 and replicates >= 1")
    n_max = int(n_grid[-1])
    worker = partial(_beta_chunk, params, k, n_max, truncation, master_seed)
    # the counts are integers, so a worker steps one wide span of replicates
    rows = _rng.span(replicates, threads, _uniform_width(params, k, n_max + truncation))
    parts = _rng.run_chunks(worker, replicates, threads, chunk=rows)
    counts = np.zeros(n_max, dtype=np.int64)
    for p in parts:
        counts += p
    sel = counts[n_grid - 1]
    beta = sel / replicates
    stderr = np.sqrt(beta * (1.0 - beta) / replicates)
    bound = np.array([theorem1_bound(params, int(n), consts) for n in n_grid])
    # mass of divergence events beyond the window, from the geometric decay
    # of the post-merge log-scale gap: factor a per silent step
    contraction = params.a + params.b * consts.gamma
    tail_factor = params.a ** (truncation + 1) / (1.0 - params.a) if params.a > 0 else 0.0
    brace = _theorem1_brace(params, consts)
    trunc = consts.big_gamma * tail_factor * brace * contraction ** n_grid.astype(float)
    return CouplingExperimentResult(
        k=k,
        truncation=truncation,
        replicates=replicates,
        horizons=n_grid,
        beta_hat=beta,
        stderr=stderr,
        theorem_bound=bound,
        truncation_bound=trunc,
    )
