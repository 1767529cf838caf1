"""Ordered maximal coupling of discretized laws and mixing-rate experiments.

Two counts with the same innovation but different scales can be drawn from a
single uniform so that (a) each has its exact marginal law, (b) they coincide
with probability ``1 - d_TV`` (the maximum possible), and (c) the larger
scale never produces the smaller count.  Every coupled draw, single or inside
a chain experiment, goes through ``_scaled_coupled``, which takes the one
pmf crossing of the two laws from ``innovations._crossing_index`` (built on
the closed-form crossing of their scaled densities); the explicit
pmf-table construction ``_dense_coupled`` is kept only as the exact oracle
the tests compare it against.  Running two feedback chains with
independent pasts and coupling them from a cut-off time onward turns the
fraction of replicates whose counts ever differ after a gap into a Monte
Carlo upper bound on the mixing coefficient, which can then be compared to
the analytic geometric bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import rng as _rng
from .errors import ConfigError, NumericError
from .innovations import DENSE_MAX, DiscretizedLaw, _crossing_index, _discrete_quantile
from .process import (ModelParams, _evolve, _exo_term, _next_sigma, _theorem1_brace,
                      theorem1_bound, validate)


# ---------------------------------------------------------------------------
# Single coupled draw
# ---------------------------------------------------------------------------

def _dense_coupled(law: DiscretizedLaw, law_prime: DiscretizedLaw, u: np.ndarray,
                   tail: float = 1e-12):
    """Reference construction from explicit pmf tables; the tests' oracle.

    No program path calls it: ``coupled_draw`` and the chain experiments use
    ``_scaled_coupled``, which the tests check against this construction.
    The uniform is split at the overlap mass: below it both outputs are the
    quantile of the normalized overlap ``min(p, q)``; above it each output is
    the quantile of its normalized residual at the same level, which keeps
    the draw of the stochastically larger law on top.

    Both laws are tabulated on one common grid ``0..kmax``, with ``kmax`` the
    larger of the two ``support_bound(tail)``, and each table is closed by a
    tail bin holding ``sf(kmax)``, so the overlap and residual masses sum to
    one for both laws.  The tail bin is exact under the single-crossing
    assumption shared with ``_scaled_coupled``: above the cut the pmf
    difference keeps its sign, so ``min(sf, sf')`` is the overlap mass there.
    A level falling in the tail bin returns index ``kmax + 1``.
    """
    kmax = max(law.support_bound(tail), law_prime.support_bound(tail))
    if kmax > DENSE_MAX:
        raise NumericError(f"pmf table of {kmax + 2} entries exceeds the dense limit")
    ks = np.arange(kmax + 1, dtype=float)
    p = np.append(law.pmf(ks), law.sf(kmax))
    q = np.append(law_prime.pmf(ks), law_prime.sf(kmax))
    m = kmax + 2
    overlap = np.minimum(p, q)
    omega = float(overlap.sum())
    cum_overlap = np.cumsum(overlap)
    cum_res_p = np.cumsum(p - overlap)
    cum_res_q = np.cumsum(q - overlap)

    u = np.asarray(u, dtype=float)
    merged = u < omega
    x = np.empty(u.shape)
    xp = np.empty(u.shape)
    idx = np.searchsorted(cum_overlap, u[merged], side="left")
    x[merged] = xp[merged] = np.minimum(idx, m - 1)
    v = u[~merged] - omega
    x[~merged] = np.minimum(np.searchsorted(cum_res_p, v, side="left"), m - 1)
    xp[~merged] = np.minimum(np.searchsorted(cum_res_q, v, side="left"), m - 1)
    return x, xp, merged


def _first_true(lo: np.ndarray, hi: np.ndarray, pred):
    """Vectorized binary search: smallest k in [lo, hi] with pred(k) true.

    ``pred`` must be monotone (false below some threshold, true at hi).
    Above 2**53 not every integer is a float: the midpoint is kept below
    ``hi`` and ``lo`` advances to at least the next float, so each open
    bracket shrinks on every pass and the search ends on a representable k.
    """
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    while np.any(open_ := lo < hi):
        mid = np.minimum(np.floor((lo + hi) / 2.0), np.nextafter(hi, 0.0))
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
    from ``sf`` values are rounding noise.
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma_prime = np.asarray(sigma_prime, dtype=float)
    u = np.asarray(u, dtype=float)
    swap = sigma < sigma_prime
    s_hi = np.where(swap, sigma_prime, sigma)
    s_lo = np.where(swap, sigma, sigma_prime)

    ks = _crossing_index(base, s_lo, s_hi)
    # crossing index: below ks the low-scale law dominates pointwise
    f_hi_cross = base.cdf(ks / s_hi)
    dtv = base.sf(ks / s_hi) - base.sf(ks / s_lo)
    omega = 1.0 - dtv

    x = np.empty(u.shape)
    merged = u < omega

    low_branch = merged & (u <= f_hi_cross)
    if np.any(low_branch):
        x[low_branch] = _discrete_quantile(base, s_hi[low_branch], u[low_branch])
    high_branch = merged & ~low_branch
    if np.any(high_branch):
        lvl = np.minimum(u[high_branch] + dtv[high_branch], np.nextafter(1.0, 0.0))
        x[high_branch] = _discrete_quantile(base, s_lo[high_branch], lvl)
    x_hi = x.copy()
    x_lo = x.copy()

    res = ~merged
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
        x_hi[res] = _first_true(ks_r, cap, lambda k: d_of(k) <= d_r - v)
        # residual of the low-scale law lives at or below the crossing,
        # cumulative mass D(k), non-decreasing in k
        x_lo[res] = _first_true(
            np.zeros_like(ks_r), np.maximum(ks_r - 1.0, 0.0), lambda k: d_of(k) >= v
        )

    x_first = np.where(swap, x_lo, x_hi)
    x_second = np.where(swap, x_hi, x_lo)
    return x_first, x_second, merged


def coupled_draw(law: DiscretizedLaw, law_prime: DiscretizedLaw,
                 rng: np.random.Generator, size=None):
    """Draw (X, X', merged) from the ordered maximal coupling.

    Marginals are exact, ``P(X = X') = 1 - d_TV``, and the draw of the law
    with the larger scale is almost surely the larger count.  Every draw goes
    through ``_scaled_coupled``, whatever the scales or the tail: one
    crossing test per draw, a closed-form quantile for a merged draw and a
    capped ``sf`` bisection for each residual one.  Scalar unless ``size``
    is given.
    """
    if law.base != law_prime.base:
        raise ConfigError("coupled_draw requires both laws to share the innovation spec")
    u = rng.random(1 if size is None else size)
    x, xp, merged = _scaled_coupled(
        law.base, np.full(u.shape, law.sigma), np.full(u.shape, law_prime.sigma), u
    )
    if size is None:
        return float(x[0]), float(xp[0]), bool(merged[0])
    return x, xp, merged


# ---------------------------------------------------------------------------
# Coupled chain experiments
# ---------------------------------------------------------------------------

@dataclass
class CoupledRun:
    """One pair of chains: independent up to the cut-off, coupled afterwards."""

    k: int
    sigma: np.ndarray        # intensities of the first chain, t = 0..k+H
    sigma_prime: np.ndarray
    x: np.ndarray
    x_prime: np.ndarray
    merged: np.ndarray       # per coupled step t = k+1..k+H, True if X_t == X_t'

    def differs(self) -> np.ndarray:
        """Indicator of X_t != X_t' over the coupled steps."""
        return ~self.merged

    def diff_indicator(self, n: int, horizon: int) -> bool:
        """True if the chains differ anywhere in [k+n, k+n+horizon]."""
        return bool(self.differs()[n - 1:n + horizon].any())


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

    def log_slope(self, min_hits: int = 10):
        """LS slope of ln(beta_hat) over horizons with at least min_hits hits."""
        keep = self.beta_hat >= min_hits / self.replicates
        if keep.sum() < 2:
            return None
        x = self.horizons[keep].astype(float)
        y = np.log(self.beta_hat[keep])
        return float(np.polyfit(x, y, 1)[0])


def _coupled_chain_block(params: ModelParams, k: int, horizon: int, master_seed: int,
                         lo: int, hi: int):
    """Replicates lo..hi-1 of the pair experiment.

    Returns ``(merged, sigma, x)``: ``merged`` of shape (hi-lo, horizon) is
    True where the coupled step t = k+1+j drew equal counts; ``sigma`` and
    ``x`` of shape (2, hi-lo, k+1+horizon) hold both chains, the first chain
    at index 0, over t = 0..k+horizon.

    Uniform budget per replicate: (k+1) innovations per chain for the
    independent phase, then one shared uniform per coupled step; iid
    exogenous adds k draws per chain plus one shared draw per coupled step.
    """
    R = hi - lo
    iid = params.exogenous.kind == "iid"
    u = _rng.uniform_rows(master_seed, lo, hi,
                          2 * (k + 1) + horizon + (2 * k + horizon if iid else 0))
    ua = u[:, : k + 1]
    ub = u[:, k + 1: 2 * (k + 1)]
    uc = u[:, 2 * (k + 1): 2 * (k + 1) + horizon]
    if iid:
        off = 2 * (k + 1) + horizon
        uca = u[:, off: off + k]
        ucb = u[:, off + k: off + 2 * k]
        ucs = u[:, off + 2 * k:]
    else:
        uca = ucb = ucs = None

    sig = np.empty((2, R, k + 1 + horizon))
    xs = np.empty((2, R, k + 1 + horizon))
    sig[0, :, :k + 1], xs[0, :, :k + 1], _, _ = _evolve(params, k, ua, uca)
    sig[1, :, :k + 1], xs[1, :, :k + 1], _, _ = _evolve(params, k, ub, ucb)
    sigma_a, sigma_b = sig[:, :, k]
    x_a, x_b = xs[:, :, k]

    merged = np.empty((R, horizon), dtype=bool)
    for j in range(horizon):
        t = k + 1 + j
        c_t = _exo_term(params, t, ucs[:, j] if iid else None)  # shared across the pair
        sigma_a = _next_sigma(params, t, sigma_a, x_a, c_t)
        sigma_b = _next_sigma(params, t, sigma_b, x_b, c_t)
        x_a, x_b, merged[:, j] = _scaled_coupled(params.innovation, sigma_a, sigma_b, uc[:, j])
        sig[0, :, t], sig[1, :, t] = sigma_a, sigma_b
        xs[0, :, t], xs[1, :, t] = x_a, x_b
    return merged, sig, xs


def run_coupled_chains(params: ModelParams, k: int, n_max: int, truncation: int,
                       master_seed: int, replicate: int = 0) -> CoupledRun:
    """One replicate of the pair experiment with full paths retained."""
    validate(params)
    merged, sig, xs = _coupled_chain_block(
        params, k, n_max + truncation, master_seed, replicate, replicate + 1)
    return CoupledRun(k=k, sigma=sig[0, 0], sigma_prime=sig[1, 0],
                      x=xs[0, 0], x_prime=xs[1, 0], merged=merged[0])


def _beta_chunk(params: ModelParams, k: int, n_max: int, truncation: int,
                master_seed: int, lo: int, hi: int) -> np.ndarray:
    merged, _, _ = _coupled_chain_block(params, k, n_max + truncation, master_seed, lo, hi)
    diff = ~merged
    windows = np.lib.stride_tricks.sliding_window_view(diff, truncation + 1, axis=1)
    return windows.any(axis=2).sum(axis=0).astype(np.int64)


def estimate_beta(params: ModelParams, k: int, n_grid, truncation: int,
                  replicates: int, master_seed: int,
                  threads: int = 1) -> CouplingExperimentResult:
    """Monte Carlo upper-bound estimate of mixing coefficients over a gap grid.

    For each gap n the estimate is the fraction of replicates whose coupled
    chains differ anywhere in [k+n, k+n+truncation].  The analytic decay
    bound and the tail left out by the truncation are evaluated alongside.
    """
    consts = validate(params)
    n_grid = np.asarray(sorted(set(int(n) for n in n_grid)), dtype=int)
    if len(n_grid) == 0 or n_grid[0] < 1:
        raise ConfigError("need at least one gap, and gaps must be >= 1")
    if k < 0 or truncation < 0 or replicates < 1:
        raise ConfigError("need k >= 0, truncation >= 0 and replicates >= 1")
    n_max = int(n_grid[-1])
    worker = partial(_beta_chunk, params, k, n_max, truncation, master_seed)
    parts = _rng.run_chunks(worker, replicates, threads)
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
