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
  form, and
* ``loglog_sum_check``, the sum ``sum_t ln(t+h) ln(t)`` against its leading
  term ``n ln(n)^2``, which the trend weights rest on, and
* ``fmt``, the text of one CSV cell, the scalar reference of
  ``cli._fmt_column``, and
* ``ar1_paths``, the AR(1) multiplier paths from one ``lfilter`` call on a
  copy of the normals, the reference of ``bootstrap._ar1_filter``,
* ``head_sum``, the dense TV head of one pair as one buffer of pmf
  differences summed by one numpy call, the reference of each partner's sum
  in ``innovations._head_sums``, and
* ``half_cauchy_quantile``, the half-Cauchy quantile as a select between
  two whole-array branches, the reference of ``HalfCauchy.quantile``.
"""
import math

import numpy as np
from scipy.signal import lfilter

from logcount.errors import ConfigError, NumericError
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


def ar1_paths(eps: np.ndarray, l_n: float) -> np.ndarray:
    """AR(1) paths with covariance exp(-|s-t|/l_n) from standard normal rows.

    Column 0 of ``eps`` starts each path at unit variance; the later columns,
    scaled by ``sqrt(1 - phi^2)``, drive ``W_t = phi W_{t-1} + ...`` with
    ``phi = exp(-1/l_n)``, filtered over all rows at once.  ``eps`` is left
    as it is.
    """
    v = math.sqrt(-math.expm1(-2.0 / l_n)) * eps
    v[:, 0] = eps[:, 0]
    return lfilter([1.0], [1.0, -math.exp(-1.0 / l_n)], v, axis=1)


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
