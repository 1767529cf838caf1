"""Exact reference constructions that the tests compare the fast paths against.

No program path calls them; they live here, beside the tests, and not in
``src/logcount``:

* ``dense_coupled``, the ordered maximal coupling from explicit pmf tables,
* ``support_bound``, the count above which a discretized law holds less than
  a given tail mass, which sizes those tables,
* ``nn_mean``, the moving-window mean of ``ln(X_s + 1)`` at one time index,
  the scalar reference of ``estimation.nn_means``,
* ``density_slope``, the derivative ``p'(y)`` of the chi-square and
  half-Cauchy densities, which ``compute_constants`` integrates in closed
  form,
* ``slope_abs_integral``, that closed form as a sum over the two monotone
  segments on either side of the mode, the reference of the big_gamma that
  ``compute_constants`` takes from one look at the mode, and
* ``loglog_sum_check``, the sum ``sum_t ln(t+h) ln(t)`` against its leading
  term ``n ln(n)^2``, which the trend weights rest on, and
* ``fmt``, the text of one CSV cell, the scalar reference of
  ``cli._fmt_column``, and
* ``ar1_recursion``, the recursion ``y_t = v_t + phi y_{t-1}`` as one
  ``scipy.signal.lfilter`` call, the reference of ``bootstrap._ar1_solve``,
* ``ar1_paths``, the AR(1) multiplier paths from one ``ar1_recursion`` call
  on a copy of the normals, the reference of ``bootstrap._ar1_filter`` and,
  times the summands, of the forward draws,
* ``forward_draws`` and ``t_star``, the forward bootstrap draws: every block
  of normals filtered into multiplier paths and dotted with the summands,
  the reference of the order statistic that ``bootstrap._draws`` settles
  exactly and of the adjoint draws within their rounding margin,
* ``exo_term`` and ``next_sigma``, one step of the recursion: the exogenous
  term C_{t-1} and sigma_t with its explosion check,
* ``simulate``, the recursion with every step on ``np.float64`` scalars and
  the trend row from ``exo_term``, the reference of ``process.simulate``'s
  Python-float steps,
* ``first_explosion``, the earliest step past ``LOG_SIGMA_LIMIT`` by a plain
  loop over replicate rows with a check at every step,
* ``replicate_block`` and ``theta_chunk``, the recursion stepped on
  (R, n+1) matrices one column of replicates at a time and each chunk's trend
  fits from one fresh (R, n) matrix, the references of the time-major
  ``process._evolve`` at every R and of ``estimation.ensemble_theta_hats``,
* ``coupled_chain_block``, the pair experiment as one ``process._evolve``
  call per chain up to the cut-off, then the coupled steps one
  ``next_sigma`` per chain at a time, the reference of
  ``coupling._coupled_chain_block``'s single ``_evolve`` call,
* ``theoretical_autocovariance``, the large-t limit of the autocovariance of
  ln(X_t + 1) at a lag,
* ``head_sum``, the dense TV head of one pair as one buffer of pmf
  differences summed by one numpy call, the reference of each partner's sum
  in ``innovations._head_sums``, and
* ``half_cauchy_quantile``, the half-Cauchy quantile as a select between
  two whole-array branches, the reference of ``HalfCauchy.quantile``.
"""
import math

import numpy as np
from scipy.signal import lfilter

from logcount import bootstrap, coupling, process
from logcount import rng as _rng
from logcount.errors import LOG_SIGMA_LIMIT, ConfigError, ExplosionError, NumericError
from logcount.innovations import DENSE_MAX, TAIL, ChiSquare, DiscretizedLaw, HalfCauchy


def support_bound(law: DiscretizedLaw, tail: float = TAIL) -> int:
    """k such that the mass of ``law`` above k is below ``tail``."""
    return int(math.ceil(law.sigma * float(law.base.quantile(1.0 - tail))))


def dense_coupled(law: DiscretizedLaw, law_prime: DiscretizedLaw, u: np.ndarray,
                  tail: float = 1e-12):
    """Ordered maximal coupling from explicit pmf tables; the oracle of ``_scaled_coupled``.

    The uniform is split at the overlap mass: below it both outputs are the
    quantile of the normalized overlap ``min(p, q)``; above it each output is
    the quantile of its normalized residual at the same level, which keeps
    the draw of the stochastically larger law on top.

    Both laws are tabulated on one common grid ``0..kmax``, with ``kmax`` the
    larger of their two ``support_bound``, and each table is closed by a tail
    bin holding ``sf(kmax)``, so the overlap and residual masses sum to one
    for both laws.  The tail bin is exact under the single-crossing
    assumption shared with ``_scaled_coupled``: above the cut the pmf
    difference keeps its sign, so ``min(sf, sf')`` is the overlap mass there.
    A level falling in the tail bin returns index ``kmax + 1``.
    """
    kmax = max(support_bound(law, tail), support_bound(law_prime, tail))
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


def nn_mean(x, t: int, window: int) -> float:
    """Boundary-aware moving average of ln(X_s+1) over |s - t| <= window.

    ``t`` is the 1-based time index; the divisor is the realized number of
    neighbors inside {1, ..., n}.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if not 1 <= t <= n:
        raise ConfigError(f"index t={t} outside 1..{n}")
    if window < 1:
        raise ConfigError("window must be >= 1")
    lo = max(1, t - window)
    hi = min(n, t + window)
    return float(np.log1p(x[lo - 1:hi]).mean())


def density_slope(spec, y):
    """``p'(y)`` of a chi-square or half-Cauchy innovation, 0 below the origin."""
    y = np.asarray(y, dtype=float)
    if isinstance(spec, ChiSquare):
        with np.errstate(divide="ignore", invalid="ignore"):
            val = spec.density(y) * ((spec.df / 2.0 - 1.0) / np.maximum(y, np.finfo(float).tiny) - 0.5)
        return np.where(y > 0, val, 0.0)
    assert isinstance(spec, HalfCauchy)
    m, s = abs(spec.location), spec.scale
    yy = np.maximum(y, 0.0)
    val = -(2.0 * s / math.pi) * (
        (yy - m) / ((yy - m) ** 2 + s * s) ** 2 + (yy + m) / ((yy + m) ** 2 + s * s) ** 2
    )
    return np.where(y >= 0, val, 0.0)


def slope_abs_integral(spec) -> float:
    """``int_0^inf x |p'(x)| dx`` as closed segment sums on either side of the mode.

    On a segment where p is monotone, ``int x p'(x) dx = [x p(x)] - deltaF``.
    """
    pts = [0.0, spec.mode, math.inf]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        fa = float(spec.cdf(a)) if a > 0 else 0.0
        fb = float(spec.cdf(b)) if math.isfinite(b) else 1.0
        xa = a * float(spec.density(a)) if a > 0 else 0.0
        xb = b * float(spec.density(b)) if math.isfinite(b) else 0.0
        total += abs((xb - xa) - (fb - fa))
    return total


def loglog_sum_check(n: int, h: int) -> tuple[float, float, float]:
    """(exact, leading, remainder) for sum ln(t+h) ln(t), 1 <= t, t+h <= n.

    The exact sum equals ``n ln(n)^2`` up to a remainder of order n ln(n);
    callers check ``|remainder| / (n ln n)`` against their constant.
    """
    if n < abs(h) + 2:
        raise ConfigError("need n >= |h| + 2")
    lo = max(1, 1 - h)
    hi = n - max(h, 0)
    t = np.arange(lo, hi + 1, dtype=float)
    exact = float(np.log(t + h) @ np.log(t))
    leading = n * math.log(n) ** 2
    return exact, leading, exact - leading


def fmt(v) -> str:
    """Shortest round-trip text of one value; integral floats print as integers."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isfinite(f) and f == int(f) and abs(f) < 2**53:
        return str(int(f))
    return repr(f)


def ar1_recursion(v: np.ndarray, l_n: float) -> np.ndarray:
    """``y_t = v_t + phi y_{t-1}`` along the last axis, ``phi = exp(-1/l_n)``, in a new array."""
    return lfilter([1.0], [1.0, -math.exp(-1.0 / l_n)], v, axis=-1)


def ar1_paths(eps: np.ndarray, l_n: float) -> np.ndarray:
    """AR(1) paths with covariance exp(-|s-t|/l_n) from standard normal rows.

    Column 0 of ``eps`` starts each path at unit variance; the later columns,
    scaled by ``sqrt(1 - phi^2)``, drive ``W_t = phi W_{t-1} + ...`` with
    ``phi = exp(-1/l_n)``, filtered over all rows at once.  ``eps`` is left
    as it is.
    """
    v = math.sqrt(-math.expm1(-2.0 / l_n)) * eps
    v[:, 0] = eps[:, 0]
    return ar1_recursion(v, l_n)


def forward_draws(d: np.ndarray, l_n: float, B: int, rng: np.random.Generator) -> np.ndarray:
    """``_ar1_filter(rng.standard_normal((B, len(d))), l_n) @ d``, one block of paths at a time.

    Each block of ``bootstrap._block_buffer`` rows is filtered in place and
    multiplied by d in one gemv, so every row has the bits of the one (B, n)
    product wherever that product is independent of the BLAS thread count.
    """
    out = np.empty(B)
    buf = bootstrap._block_buffer(len(d), B)
    for r0 in range(0, B, len(buf)):
        eps = buf[:min(len(buf), B - r0)]
        rng.standard_normal(out=eps)
        np.matmul(bootstrap._ar1_filter(eps, l_n), d, out=out[r0:r0 + len(eps)])
    return out


def t_star(fit, cfg, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` forward bootstrap statistics: weighted, window-centered log counts
    times fresh multiplier paths."""
    return forward_draws(bootstrap._summands(fit, cfg.N_n), cfg.l_n, size, rng)


def exo_term(params, t: int, u_c):
    """Exogenous term C_{t-1} entering ln(sigma_t); ``u_c`` drives the iid kind."""
    if params.exogenous.kind == "trend":
        return params.c * math.log(t)
    return params.exogenous.quantile(u_c)


def next_sigma(params, t: int, sigma_prev, x_prev, c_t):
    """sigma_t of the recursion (scalar or per replicate); ExplosionError past the limit."""
    log_sigma = params.a * np.log(sigma_prev) + params.b * np.log1p(x_prev) + c_t
    bad = np.abs(log_sigma) > LOG_SIGMA_LIMIT
    if np.any(bad):
        raise ExplosionError(t, float(np.ravel(log_sigma)[np.argmax(bad)]))
    return np.exp(log_sigma)


def simulate(params, n: int, master_seed: int):
    """(sigma, x, c_exo, y) rows of ``process.simulate``, stepped on ``np.float64`` scalars.

    The same uniforms, quantiles and ufuncs as the program; each step is
    ``a ln(sigma) + b ln(X + 1) + C`` with numpy scalar arithmetic, and the
    trend row is one ``process._exo_term`` call per t.  Raises the
    ``ExplosionError`` of the earliest t past ``LOG_SIGMA_LIMIT``.
    """
    iid = params.exogenous.kind == "iid"
    width = 2 * n + 1 if iid else n + 1
    u = _rng.stream(master_seed).random((1, width))[0]
    ys = params.innovation.quantile(u[:n + 1])
    cs = np.zeros(n + 1)
    if iid:
        cs[1:] = params.exogenous.quantile(u[n + 1:])
    else:
        cs[1:] = [exo_term(params, t, None) for t in range(1, n + 1)]
    sig, xs = np.empty(n + 1), np.empty(n + 1)
    sig[0] = params.sigma0
    xs[0] = np.floor(sig[0] * ys[0])
    log_sig, x, c, y = sig.tolist(), xs.tolist(), cs.tolist(), ys.tolist()
    sigma = log_sig[0]
    with np.errstate(all="ignore"):
        for t in range(1, n + 1):
            log_sig[t] = ls = params.a * np.log(sigma) + params.b * np.log1p(x[t - 1]) + c[t]
            sigma = np.exp(ls)
            x[t] = np.floor(sigma * y[t])
    sig[:], xs[:] = log_sig, x
    for t in range(1, n + 1):
        if abs(sig[t]) > LOG_SIGMA_LIMIT:  # a NaN after an explosion is skipped
            raise ExplosionError(t, float(sig[t]))
    sig[1:] = np.exp(sig[1:])
    return sig, xs, cs, ys


def first_explosion(params, u_y, u_c):
    """(t, ln sigma_t) of the earliest |ln sigma_t| past the limit, and of the first
    row of ``u_y`` at that t, by a plain per-step loop with a check at every step
    (iid kind: ``u_c`` holds the exogenous uniforms), or None."""
    ys = params.innovation.quantile(u_y)
    sigma = np.full(len(u_y), params.sigma0)
    x = np.floor(sigma * ys[:, 0])
    for t in range(1, u_y.shape[1]):
        c = params.exogenous.quantile(u_c[:, t - 1])
        log_sigma = params.a * np.log(sigma) + params.b * np.log1p(x) + c
        bad = np.flatnonzero(np.abs(log_sigma) > LOG_SIGMA_LIMIT)
        if len(bad):
            return t, float(log_sigma[bad[0]])
        sigma = np.exp(log_sigma)
        with np.errstate(over="ignore"):  # a count may overflow just before an explosion
            x = np.floor(sigma * ys[:, t])
    return None


def replicate_block(params, n: int, master_seed: int, lo: int, hi: int):
    """(sigma, x) of ``process.simulate_replicate_block``, stepped on (R, n+1) matrices.

    The uniforms of ``rng.uniform_rows`` as one (R, width) matrix, the
    quantiles over whole matrices, and step t reading and writing column t of
    each matrix, ``a ln(sigma) + b ln(X + 1) + C`` on arrays of R replicates
    (at R = 1 too).  Raises the ``ExplosionError`` of the earliest t past
    ``LOG_SIGMA_LIMIT`` and its first replicate.
    """
    R = hi - lo
    iid = params.exogenous.kind == "iid"
    u = _rng.uniform_rows(master_seed, lo, hi, 2 * n + 1 if iid else n + 1)
    ys = params.innovation.quantile(u[:, :n + 1])
    cs = np.zeros((R, n + 1))
    if iid:
        cs[:, 1:] = params.exogenous.quantile(u[:, n + 1:])
    else:
        cs[:, 1:] = [params.c * math.log(t) for t in range(1, n + 1)]
    sig = np.empty((R, n + 1))
    xs = np.empty((R, n + 1))
    sig[:, 0] = params.sigma0
    xs[:, 0] = np.floor(sig[:, 0] * ys[:, 0])
    log_sig, x, c, y = sig.T, xs.T, cs.T, ys.T
    sigma = log_sig[0]
    with np.errstate(all="ignore"):
        for t in range(1, n + 1):
            log_sig[t] = params.a * np.log(sigma) + params.b * np.log1p(x[t - 1]) + c[t]
            sigma = np.exp(log_sig[t])
            x[t] = np.floor(sigma * y[t])
    body = sig[:, 1:]
    bad = np.abs(body) > LOG_SIGMA_LIMIT  # a NaN after an explosion is skipped
    if bad.any():
        t = int(bad.any(axis=0).argmax())
        raise ExplosionError(t + 1, float(body[bad[:, t].argmax(), t]))
    sig[:, 1:] = np.exp(body)
    return sig, xs


def theta_chunk(params, n: int, master_seed: int, lo: int, hi: int) -> np.ndarray:
    """Trend fits of replicates lo..hi-1 of one chunk: ``replicate_block``'s
    ln(X_t + 1), t = 1..n, as one fresh (R, n) matrix times ln(t), over
    ``sum_t ln(t)^2``."""
    _, xs = replicate_block(params, n, master_seed, lo, hi)
    logt = np.log(np.arange(1, n + 1, dtype=float))
    return np.log1p(xs[:, 1:]) @ logt / float(logt @ logt)


def coupled_chain_block(params, k: int, horizon: int, master_seed: int, lo: int, hi: int):
    """``merged`` of ``coupling._coupled_chain_block``, one chain and one step at a time.

    Chain A, then chain B, runs over t = 0..k as its own ``process._evolve``
    block, which checks its own explosions; then each coupled step takes
    ``next_sigma`` of A, then of B, with the shared exogenous term, and draws
    both counts from the pair's uniform by ``_scaled_coupled``.  Only the
    current step of each chain is kept.
    """
    R = hi - lo
    iid = params.exogenous.kind == "iid"
    width = coupling._uniform_width(params, k, horizon)
    u = _rng.uniform_rows(master_seed, lo, hi, width)
    off = 2 * (k + 1) + horizon
    uc = u[:, 2 * (k + 1): off]

    def independent(i):
        """Chain i over t = 0..k from its own columns of ``u``: (sigma_k, X_k)."""
        def draws(out):
            out[:, :k + 1] = u[:, i * (k + 1): (i + 1) * (k + 1)]
            if iid:
                out[:, k + 1:] = u[:, off + i * k: off + (i + 1) * k]

        s_i, x_i, _, _ = process._evolve(params, k, R, draws)
        return s_i[:, k].copy(), x_i[:, k].copy()

    (sigma_a, x_a), (sigma_b, x_b) = independent(0), independent(1)
    merged = np.empty((R, horizon), dtype=bool)
    # a scale near the limit may overflow a heavy tail's search cap, silently
    # as in the program's steps
    with np.errstate(all="ignore"):
        for j in range(horizon):
            t = k + 1 + j
            c_t = exo_term(params, t, u[:, off + 2 * k + j] if iid else None)
            sigma_a = next_sigma(params, t, sigma_a, x_a, c_t)
            sigma_b = next_sigma(params, t, sigma_b, x_b, c_t)
            x_a, x_b, merged[:, j] = coupling._scaled_coupled(params.innovation, sigma_a,
                                                              sigma_b, uc[:, j])
    return merged


def theoretical_autocovariance(params, u: int, constants=None) -> float:
    """Large-t limit of cov(ln(X_t+1), ln(X_{t-u}+1)).

    At lag 0 this is ``Var(ln Y) * (b^2/(1-(a+b)^2) + 1)``; at lag u >= 1 it
    is ``Var(ln Y) * (b^2 (a+b)^u / (1-(a+b)^2) + b (a+b)^{u-1})``.
    """
    if u < 0:
        raise ConfigError("lag must be >= 0")
    k = constants if constants is not None else process.validate(params)
    ab = params.a + params.b
    v = k.var_ln_y
    if u == 0:
        return v * (params.b**2 / (1.0 - ab**2) + 1.0)
    return v * (params.b**2 * ab**u / (1.0 - ab**2) + params.b * ab ** (u - 1))


def head_sum(law1: DiscretizedLaw, law2: DiscretizedLaw, k: int) -> float:
    """``sum_{j <= k} |p1(j) - p2(j)|`` from one (k+1)-entry buffer and one ``sum``."""
    ks = np.arange(k + 1, dtype=float)
    return float(np.abs(law1.pmf(ks) - law2.pmf(ks)).sum())


def half_cauchy_quantile(spec: HalfCauchy, u):
    """Quantile of a half-Cauchy innovation at a nonzero location.

    ``cot(pi u)`` is taken from the nearer end of (0, 1) in both branches
    over the whole array and selected, and the root of
    ``y^2 + 2ys cot(pi u) - c = 0`` likewise.
    """
    u = np.asarray(u, dtype=float)
    m, s = abs(spec.location), spec.scale
    c = m * m + s * s
    with np.errstate(divide="ignore", invalid="ignore"):
        s_cot = s * np.where(u > 0.5, -1.0 / np.tan(math.pi * (1.0 - u)), 1.0 / np.tan(math.pi * u))
        r = np.hypot(s_cot, math.sqrt(c))
        return np.where(s_cot > 0, c / (s_cot + r), r - s_cot)
