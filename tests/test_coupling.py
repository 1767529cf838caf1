import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

import logcount as lc
from logcount.coupling import (_beta_chunk, _coupled_chain_block, _crossing_index,
                               _first_true, _scaled_coupled)
from logcount.errors import ConfigError
from logcount.rng import chunk_bounds
from oracles import dense_coupled, support_bound

EXP = lc.Exponential(1.0)
HN = lc.HalfNormal(math.sqrt(math.pi / 2.0))  # E[Y] = scale * sqrt(2/pi) = 1
HC = lc.HalfCauchy(0.0, 1.0)
PARAMS = lc.ModelParams(a=0.1, b=0.1, c=2.0, innovation=EXP)
IID_PARAMS = lc.ModelParams(a=0.3, b=0.3, c=0.0, innovation=EXP,
                            exogenous=lc.ExogenousSpec(kind="iid", family="normal",
                                                       mean=0.5, sd=0.3))


def chi2_gof_pvalue(law, draws):
    """Goodness of fit of integer draws against a discretized law."""
    pmf = law.pmf(np.arange(support_bound(law) + 1))
    N = len(draws)
    expected = pmf * N
    # pool the tail so every bin keeps expected count >= 5
    tail_len = int(np.searchsorted(np.cumsum(expected[::-1]), 5.0)) + 1
    m = max(len(expected) - tail_len, 1)
    obs = np.bincount(draws.astype(int), minlength=len(pmf)).astype(float)
    obs_pool = np.concatenate([obs[:m], [obs[m:].sum()]])
    exp_pool = np.concatenate([expected[:m], [N - expected[:m].sum()]])
    keep = exp_pool >= 5
    stat = float(((obs_pool[keep] - exp_pool[keep]) ** 2 / exp_pool[keep]).sum())
    return float(stats.chi2.sf(stat, keep.sum() - 1))


# ---------------------------------------------------------------------------
# coupled_draw
# ---------------------------------------------------------------------------

def test_equal_scales_always_merge():
    law = lc.DiscretizedLaw(EXP, 3.0)
    x, xp, merged = lc.coupled_draw(law, law, np.random.default_rng(0), size=5000)
    assert merged.all()
    assert np.array_equal(x, xp)
    assert chi2_gof_pvalue(law, x) > 1e-3


def test_mismatched_bases_rejected():
    with pytest.raises(ConfigError):
        lc.coupled_draw(lc.DiscretizedLaw(EXP, 1.0), lc.DiscretizedLaw(HN, 1.0),
                        np.random.default_rng(0), size=1)


def test_merge_frequency_matches_overlap():
    law1, law2 = lc.DiscretizedLaw(EXP, 1.0), lc.DiscretizedLaw(EXP, 2.0)
    _, _, merged = lc.coupled_draw(law1, law2, np.random.default_rng(7), size=1_000_000)
    tv = lc.tv_distance(law1, law2)
    se = math.sqrt(tv * (1 - tv) / 1_000_000)
    assert abs(merged.mean() - (1 - tv)) <= 3 * se


def test_order_preservation_exhaustive():
    law_hi, law_lo = lc.DiscretizedLaw(EXP, 3.0), lc.DiscretizedLaw(EXP, 1.0)
    x, xp, merged = lc.coupled_draw(law_hi, law_lo, np.random.default_rng(3), size=1_000_000)
    assert np.all(x >= xp)
    assert np.all(x[~merged] > xp[~merged])


def test_merge_frequency_random_scale_pairs():
    rng = np.random.default_rng(12)
    for _ in range(20):
        s1, s2 = np.exp(rng.uniform(-1.5, 2.5, size=2))
        law1, law2 = lc.DiscretizedLaw(EXP, float(s1)), lc.DiscretizedLaw(EXP, float(s2))
        _, _, merged = lc.coupled_draw(law1, law2, rng, size=40_000)
        tv = lc.tv_distance(law1, law2)
        se = math.sqrt(max(tv * (1 - tv), 1e-12) / 40_000)
        assert abs(merged.mean() - (1 - tv)) <= 4 * se + 1e-9


@pytest.mark.parametrize("spec,pairs", [
    (EXP, [(1.0, 2.0), (2.0, 1.0), (5.0, 5.5), (0.5, 3.0), (7.0, 7.0)]),
    (HN, [(4.0, 4.4), (1.0, 2.5)]),
    (lc.ChiSquare(3), [(3.0, 2.0), (1.0, 1.2)]),
], ids=["exp", "halfnormal", "chi2"])
def test_fast_path_equals_dense_reference(spec, pairs):
    u = np.linspace(1e-9, 1 - 1e-9, 4001)
    for s1, s2 in pairs:
        law1, law2 = lc.DiscretizedLaw(spec, s1), lc.DiscretizedLaw(spec, s2)
        xd, xpd, md = dense_coupled(law1, law2, u)
        xs, xps, ms = _scaled_coupled(spec, np.full_like(u, s1), np.full_like(u, s2), u)
        assert np.array_equal(xd, xs)
        assert np.array_equal(xpd, xps)
        assert np.array_equal(md, ms)


def test_fast_path_equals_dense_reference_heavy_tail():
    # the half-Cauchy table cannot be materialized at the default tail, so the
    # oracle is cut at a coarser tail; its closing tail bin keeps the overlap
    # mass above the cut, so omega and the residual quantiles stay exact.
    # Levels next to the overlap split are left out, where rounding of omega
    # could send the two routes down different branches
    spec = lc.HalfCauchy(0.0, 1.0)
    law1, law2 = lc.DiscretizedLaw(spec, 1.0), lc.DiscretizedLaw(spec, 1.5)
    tail = 1e-4
    omega = 1.0 - lc.tv_distance(law1, law2)
    u = np.linspace(1e-6, 0.995, 2001)
    u = u[np.abs(u - omega) > 2 * tail]
    xd, xpd, md = dense_coupled(law1, law2, u, tail=tail)
    xs, xps, ms = _scaled_coupled(spec, np.full_like(u, 1.0), np.full_like(u, 1.5), u)
    assert np.array_equal(xd, xs)
    assert np.array_equal(xpd, xps)
    assert np.array_equal(md, ms)


def _hc_tv(s_lo, s_hi):
    """Total variation of the HalfCauchy(0, 1) count laws at two scales.

    For stochastically ordered laws with one pmf crossing it is the largest
    ``P(k/s_hi < Y <= k/s_lo) = (2/pi) atan(k (s_hi - s_lo) / (s_lo s_hi + k^2))``
    over integers k, and the continuous maximum sits at ``k^2 = s_lo s_hi``.
    """
    k = math.floor(math.sqrt(s_lo * s_hi)) + np.arange(-2.0, 4.0)
    k = k[k >= 0]
    return float(np.max(2.0 / math.pi * np.arctan(k * (s_hi - s_lo) / (s_lo * s_hi + k * k))))


def test_heavy_tail_merge_frequency_matches_overlap():
    # the crossing sits at k = sqrt(1000 * 1500); a search over the far tail
    # used to land near 1e13, where dtv ~ 0, and merge every draw
    law1, law2 = lc.DiscretizedLaw(HC, 1000.0), lc.DiscretizedLaw(HC, 1500.0)
    n = 100_000
    _, _, merged = lc.coupled_draw(law1, law2, np.random.default_rng(31), size=n)
    tv = lc.tv_distance(law1, law2)
    assert tv == pytest.approx(_hc_tv(1000.0, 1500.0), abs=1e-15)
    assert abs(merged.mean() - (1 - tv)) <= 5 * math.sqrt(tv * (1 - tv) / n)


def test_heavy_tail_merge_frequency_random_scale_pairs():
    rng = np.random.default_rng(41)
    n = 10_000
    for _ in range(300):
        s_lo = float(np.exp(rng.uniform(0.0, 12.0)))
        s_hi = s_lo * float(np.exp(rng.uniform(0.0, 1.0)))
        _, _, merged = lc.coupled_draw(lc.DiscretizedLaw(HC, s_lo), lc.DiscretizedLaw(HC, s_hi),
                                       rng, size=n)
        tv = _hc_tv(s_lo, s_hi)
        assert abs(merged.mean() - (1 - tv)) <= 5 * math.sqrt(tv * (1 - tv) / n), (s_lo, s_hi)


def test_heavy_tail_marginals_at_the_crossing():
    lo, hi = lc.DiscretizedLaw(HC, 1000.0), lc.DiscretizedLaw(HC, 1500.0)
    n = 100_000
    x_hi, x_lo, _ = lc.coupled_draw(hi, lo, np.random.default_rng(32), size=n)
    k = math.isqrt(1000 * 1500)  # floor of the crossing sqrt(s_lo s_hi)
    for law, x in ((lo, x_lo), (hi, x_hi)):
        f = float(law.cdf(k))
        assert abs(np.mean(x <= k) - f) <= 5 * math.sqrt(f * (1 - f) / n), law.sigma


def _mp_cdf(spec, t):
    """CDF of the innovation in mpmath, from each family's closed form."""
    if isinstance(spec, lc.Exponential):
        return -mpmath.expm1(-spec.rate * t)
    if isinstance(spec, lc.HalfNormal):
        return mpmath.erf(t / (spec.scale * mpmath.sqrt(2)))
    if isinstance(spec, lc.ChiSquare):
        return mpmath.gammainc(mpmath.mpf(spec.df) / 2, 0, t / 2, regularized=True)
    m, s = abs(spec.location), spec.scale
    return (mpmath.atan((t - m) / s) + mpmath.atan((t + m) / s)) / mpmath.pi


@pytest.mark.parametrize("spec", [EXP, HN, lc.ChiSquare(6), HC, lc.HalfCauchy(4.0, 1.0)], ids=str)
def test_crossing_index_matches_mpmath(spec):
    # exact smallest k with pmf_hi(k) >= pmf_lo(k) on floor(y*) +- 3; at the
    # largest scale and the closest ratios the pmf differences there are
    # below the rounding of sf, so these rows check the close-scale path
    with mpmath.workdps(50):
        for s_lo in (0.8, 13.0, 2.5e4):
            for gap in (1e-9, 1e-6, 1e-3, 0.5, 1.7):
                s_hi = s_lo * (1.0 + gap)
                lo, hi = mpmath.mpf(s_lo), mpmath.mpf(s_hi)
                k0 = math.floor(float(spec.crossing(s_lo, s_hi)))
                exact = next(k for k in range(max(k0 - 3, 0), k0 + 4)
                             if _mp_cdf(spec, (k + 1) / hi) - _mp_cdf(spec, k / hi)
                             >= _mp_cdf(spec, (k + 1) / lo) - _mp_cdf(spec, k / lo))
                got = _crossing_index(spec, np.array([s_lo]), np.array([s_hi]))
                assert got[0] == exact, (s_lo, gap)


@pytest.mark.parametrize("spec,counts", [
    (EXP, [106, 55, 34, 19, 8, 4, 3, 0, 0, 0]),
    (lc.ChiSquare(6), [116, 64, 39, 20, 11, 5, 4, 1, 0, 0]),
    (HC, [115, 66, 45, 23, 15, 8, 5, 2, 0, 0]),
    (lc.HalfCauchy(4.0, 1.0), [192, 128, 86, 46, 27, 14, 8, 2, 0, 0]),
], ids=["exp", "chi2", "hc", "hc4"])
def test_beta_chunk_counts_pinned(spec, counts):
    # any change to the coupling that moves a single divergence count shows
    # here, not only in the benchmark digests
    params = lc.ModelParams(a=0.3, b=0.3, c=1.0, innovation=spec)
    assert _beta_chunk(params, 5, 10, 5, 0, 0, 512).tolist() == counts


@pytest.mark.parametrize("params", [
    lc.ModelParams(a=0.3, b=0.3, c=1.0, innovation=EXP),
    lc.ModelParams(a=0.3, b=0.3, c=1.0, innovation=lc.ChiSquare(6)),
    lc.ModelParams(a=0.3, b=0.3, c=1.0, innovation=HC),
    IID_PARAMS,
], ids=["exp", "chi2", "hc", "iid"])
def test_beta_counts_do_not_depend_on_the_span(params):
    # estimate_beta sums the counts of worker-sized spans; any split of the
    # replicates must give the counts of one block over all of them
    N = 1100

    def counts(bounds):
        return sum(_beta_chunk(params, 5, 10, 5, 3, lo, hi) for lo, hi in bounds)

    whole = _beta_chunk(params, 5, 10, 5, 3, 0, N)
    assert whole.dtype == np.int64 and whole[0] > 0
    cuts = [0]
    for size in itertools.cycle((7, 300)):
        cuts.append(min(cuts[-1] + size, N))
        if cuts[-1] == N:
            break
    assert np.array_equal(counts(chunk_bounds(N)), whole)
    assert np.array_equal(counts(zip(cuts[:-1], cuts[1:])), whole)


def test_first_true_terminates_above_2_pow_53():
    # between 2**53 and 2**54 only even integers are floats: in the first
    # bracket mid + 1 rounds back to lo, in the second the tied midpoint
    # rounds up to hi; the predicate aborts a search that does not end
    big = 2.0**53
    lo = np.array([big, big + 2, 0.0])
    hi = np.array([big + 2, big + 4, 10.0])
    first = np.array([big + 2, big + 4, 3.0])
    calls = []

    def pred(k):
        calls.append(1)
        assert len(calls) < 200, "bisection does not terminate"
        return k >= first

    assert np.array_equal(_first_true(lo, hi, pred), first)


def test_stacked_first_true_equals_two_searches():
    # _scaled_coupled runs both residual searches as one bisection over the
    # stacked brackets; each row must end where its own search ends, however
    # many more passes the other half takes
    rng = np.random.default_rng(23)
    n = 400
    lo_a = np.floor(rng.uniform(0.0, 1e6, n))
    hi_a = lo_a + np.floor(10.0 ** rng.uniform(0.0, 12.0, n))
    lo_b = np.zeros(n)
    hi_b = np.floor(10.0 ** rng.uniform(0.0, 3.0, n))
    t_a = rng.uniform(lo_a, hi_a)
    t_b = rng.uniform(0.0, hi_b)

    def pred_a(k, t=t_a):
        return k >= t

    def pred_b(k, t=t_b):
        return k * k >= t * t

    high = np.arange(2 * n) < n
    both = _first_true(np.concatenate((lo_a, lo_b)), np.concatenate((hi_a, hi_b)),
                       lambda k: np.where(high, pred_a(k, np.tile(t_a, 2)),
                                          pred_b(k, np.tile(t_b, 2))))
    assert np.array_equal(both[:n], _first_true(lo_a, hi_a, pred_a))
    assert np.array_equal(both[n:], _first_true(lo_b, hi_b, pred_b))


@pytest.mark.parametrize("spec", [EXP, lc.ChiSquare(6), HC, lc.HalfCauchy(4.0, 1.0)], ids=str)
def test_mixed_equal_and_unequal_scales_match_one_entry_calls(spec):
    # equal scales take the one-quantile shortcut, the rest the general path;
    # every entry of a mixed batch must keep the bits of a call on it alone
    rng = np.random.default_rng(29)
    n = 300
    sigma = np.exp(rng.uniform(-2.0, 9.0, n))
    kind = rng.integers(0, 3, n)
    sigma_prime = np.where(kind == 0, sigma,
                           np.where(kind == 1, sigma * (1.0 + rng.uniform(0.0, 1e-3, n)),
                                    sigma * np.exp(rng.uniform(-1.0, 1.0, n))))
    flip = rng.random(n) < 0.5
    sigma, sigma_prime = np.where(flip, sigma_prime, sigma), np.where(flip, sigma, sigma_prime)
    u = rng.random(n)
    u[:4] = [0.0, 1e-300, np.nextafter(1.0, 0.0), 0.5]
    x, xp, merged = _scaled_coupled(spec, sigma, sigma_prime, u)
    assert merged[kind == 0].all() and np.array_equal(x[kind == 0], xp[kind == 0])
    assert not merged[kind != 0].all()
    for i in range(n):
        xi, xpi, mi = _scaled_coupled(spec, sigma[i:i + 1], sigma_prime[i:i + 1], u[i:i + 1])
        assert (xi[0], xpi[0], mi[0]) == (x[i], xp[i], merged[i]), i


def test_marginals_pass_gof_both_coordinates():
    rng = np.random.default_rng(2024)
    law1, law2 = lc.DiscretizedLaw(EXP, 2.0), lc.DiscretizedLaw(EXP, 4.5)
    x, xp, _ = lc.coupled_draw(law1, law2, rng, size=200_000)
    assert chi2_gof_pvalue(law1, x) > 1e-3
    assert chi2_gof_pvalue(law2, xp) > 1e-3


# ---------------------------------------------------------------------------
# coupled chains
# ---------------------------------------------------------------------------

def test_degenerate_recursion_merges_immediately():
    # without feedback the intensities coincide from the first coupled step
    params = lc.ModelParams(a=0.0, b=0.0, c=2.0, innovation=EXP)
    run = lc.run_coupled_chains(params, k=5, n_max=5, truncation=5, master_seed=3)
    assert run.merged.all()
    assert np.array_equal(run.x[6:], run.x_prime[6:])


@pytest.mark.parametrize("params", [PARAMS, IID_PARAMS], ids=["trend", "iid"])
def test_coupled_replicate_does_not_depend_on_its_block(params):
    # run_coupled_chains(replicate=r) is row r - lo of any block holding r
    k, n_max, truncation, lo, hi = 6, 8, 4, 3, 11
    merged, sig, xs = _coupled_chain_block(params, k, n_max + truncation, 77, lo, hi)
    assert merged.shape == (hi - lo, n_max + truncation)
    assert sig.shape == xs.shape == (2, hi - lo, k + 1 + n_max + truncation)
    for r in range(lo, hi):
        run = lc.run_coupled_chains(params, k, n_max, truncation, 77, replicate=r)
        i = r - lo
        assert np.array_equal(run.sigma, sig[0, i]) and np.array_equal(run.sigma_prime, sig[1, i])
        assert np.array_equal(run.x, xs[0, i]) and np.array_equal(run.x_prime, xs[1, i])
        assert np.array_equal(run.merged, merged[i])


def test_run_reproducible_and_sign_consistent():
    run1 = lc.run_coupled_chains(PARAMS, k=10, n_max=5, truncation=10, master_seed=42)
    run2 = lc.run_coupled_chains(PARAMS, k=10, n_max=5, truncation=10, master_seed=42)
    assert np.array_equal(run1.x, run2.x)
    assert np.array_equal(run1.merged, run2.merged)
    # coupled draws agree in sign with the intensity gap
    post = slice(11, None)
    dx = run1.x[post] - run1.x_prime[post]
    ds = run1.sigma[post] - run1.sigma_prime[post]
    assert np.all((dx == 0) | (np.sign(dx) == np.sign(ds)))


def test_estimate_beta_contract():
    res = lc.estimate_beta(PARAMS, k=20, n_grid=range(1, 9), truncation=30,
                           replicates=3000, master_seed=11)
    assert np.all((res.beta_hat >= 0) & (res.beta_hat <= 1))
    assert np.all(np.diff(res.beta_hat) <= 1e-12)  # nested difference windows
    assert np.all(res.beta_hat <= np.minimum(1.0, res.theorem_bound) + 3 * res.stderr)
    # binomial standard errors
    manual_se = np.sqrt(res.beta_hat * (1 - res.beta_hat) / res.replicates)
    assert np.allclose(res.stderr, manual_se)
    # geometric decay of the analytic pieces
    assert np.allclose(np.diff(np.log(res.theorem_bound)), math.log(0.2), atol=1e-12)
    assert np.all(res.truncation_bound <= res.theorem_bound)


def test_estimate_beta_zero_when_bound_negligible():
    res = lc.estimate_beta(PARAMS, k=20, n_grid=[12, 15], truncation=20,
                           replicates=2000, master_seed=5)
    assert np.all(res.beta_hat == 0.0)


def test_estimate_beta_thread_invariance():
    r1 = lc.estimate_beta(PARAMS, k=8, n_grid=[1, 2, 4], truncation=12,
                          replicates=1500, master_seed=9, threads=1)
    r2 = lc.estimate_beta(PARAMS, k=8, n_grid=[1, 2, 4], truncation=12,
                          replicates=1500, master_seed=9, threads=4)
    assert np.array_equal(r1.beta_hat, r2.beta_hat)


def test_estimate_beta_iid_exogenous_shared_after_cutoff():
    exo = lc.ExogenousSpec(kind="iid", family="normal", mean=0.3, sd=0.1)
    params = lc.ModelParams(a=0.1, b=0.1, c=0.0, innovation=EXP, exogenous=exo)
    res = lc.estimate_beta(params, k=10, n_grid=[1, 3], truncation=15,
                           replicates=1500, master_seed=21)
    assert np.all(res.beta_hat <= np.minimum(1.0, res.theorem_bound) + 3 * res.stderr)
