"""Exact reference constructions that the tests compare the fast paths against.

No program path calls them; they live here, beside the tests, and not in
``src/logcount``.
"""
import numpy as np

from logcount.errors import NumericError
from logcount.innovations import DENSE_MAX, DiscretizedLaw


def dense_coupled(law: DiscretizedLaw, law_prime: DiscretizedLaw, u: np.ndarray,
                  tail: float = 1e-12):
    """Ordered maximal coupling from explicit pmf tables; the oracle of ``_scaled_coupled``.

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
