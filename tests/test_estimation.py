import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logcount as lc
from logcount.errors import ConfigError
from logcount.process import simulate_replicate_block
import oracles
from oracles import loglog_sum_check, nn_mean

EXP = lc.Exponential(1.0)
PARAMS = lc.ModelParams(a=0.1, b=0.1, c=2.0, innovation=EXP)


# ---------------------------------------------------------------------------
# theta_hat
# ---------------------------------------------------------------------------

def test_theta_hat_recovers_power_trend():
    t = np.arange(1, 501)
    x = np.floor(t**2.5) - 1
    fit = lc.theta_hat(x)
    assert abs(fit.theta_hat - 2.5) < 0.05
    assert fit.n == 500
    assert fit.weights_denominator == pytest.approx(float(np.log(t) @ np.log(t)))


def test_theta_hat_all_zeros():
    assert lc.theta_hat(np.zeros(50)).theta_hat == 0.0


def test_theta_hat_requires_two_points():
    with pytest.raises(ConfigError):
        lc.theta_hat([5])


def test_theta_hat_rejects_bad_series():
    with pytest.raises(ConfigError):
        lc.theta_hat([1, 2, -1])
    with pytest.raises(ConfigError):
        lc.theta_hat([1.5, 2.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=60))
def test_theta_hat_exact_recomputation(xs):
    fit = lc.theta_hat(xs)
    logt = np.log(np.arange(1, len(xs) + 1))
    manual = float(logt @ np.log1p(np.asarray(xs, dtype=float))) / float(logt @ logt)
    assert fit.theta_hat == manual  # deterministic functional, bit-for-bit


# ---------------------------------------------------------------------------
# statistic and weights
# ---------------------------------------------------------------------------

def test_t_statistic_zero_at_reference():
    fit = lc.theta_hat(np.arange(100))
    assert lc.t_statistic(fit, fit.theta_hat) == 0.0


def test_t_statistic_arithmetic():
    fit = lc.TrendFit(theta_hat=2.51, n=500, weights_denominator=1.0,
                      series_transformed=np.zeros(500))
    val = lc.t_statistic(fit, 2.50)
    assert val == pytest.approx(math.sqrt(500) * math.log(500) * 0.01, rel=1e-12)
    assert val == pytest.approx(1.38963, abs=1e-4)


def test_weights_identities():
    for n in (2, 17, 500):
        w = lc.trend_weights(n)
        logt = np.log(np.arange(1, n + 1))
        assert w[0] == 0.0
        assert float(w @ logt) == pytest.approx(math.sqrt(n) * math.log(n), rel=1e-12)
        assert np.argmax(w) == n - 1


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=3000))
def test_weights_normalization_property(n):
    w = lc.trend_weights(n)
    logt = np.log(np.arange(1, n + 1))
    assert float(w @ logt) / (math.sqrt(n) * math.log(n)) == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# nearest-neighbor mean
# ---------------------------------------------------------------------------

def test_nn_mean_constant_series():
    x = np.full(40, 4)
    means = lc.nn_means(np.log1p(x), 5)
    for t in (1, 7, 40):
        assert nn_mean(x, t, 5) == pytest.approx(math.log(5.0), rel=1e-14)
        assert means[t - 1] == pytest.approx(math.log(5.0), rel=1e-14)


def test_nn_mean_boundary_count():
    x = np.arange(20)
    expected = float(np.log1p(x[:6]).mean())
    assert nn_mean(x, 1, 5) == pytest.approx(expected)
    assert lc.nn_means(np.log1p(x), 5)[0] == pytest.approx(expected)


def test_nn_mean_linear_log_series_symmetric():
    # a series linear on the log scale averages to its center over any
    # interior symmetric window
    s = np.arange(1, 16, dtype=float)
    t, window = 8, 4
    assert lc.nn_means(s, window)[t - 1] == pytest.approx(s[t - 1], rel=1e-14)
    # integer counts can only approximate ln(x+1) = s; the window mean then
    # tracks the center up to the rounding perturbation
    x = np.round(np.expm1(s))
    assert nn_mean(x, t, window) == pytest.approx(s[t - 1], abs=1e-3)


def test_nn_means_matches_scalar_op():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 50, size=37)
    transformed = np.log1p(x.astype(float))
    batch = lc.nn_means(transformed, 6)
    for t in range(1, 38):
        assert batch[t - 1] == pytest.approx(nn_mean(x, t, 6), rel=1e-14)


def test_nn_mean_bias_sandwich():
    # |E m_hat(t) - m(t)| <= E l_{(t+N) ^ n} - E l_{(t-N) v 1} on mean curves
    _, xs = simulate_replicate_block(PARAMS, 40, 23, 0, 6000)
    l = np.log1p(xs)
    means, se = l.mean(axis=0), l.std(axis=0, ddof=1) / math.sqrt(len(l))
    m = means[1:]  # t = 1..40
    n = len(m)
    N = 5
    est = lc.nn_means(m, N)  # window average of the true means
    for t in range(1, n + 1):
        hi = m[min(t + N, n) - 1]
        lo = m[max(t - N, 1) - 1]
        bias = abs(est[t - 1] - m[t - 1])
        assert bias <= (hi - lo) + 2 * float(se[1:].max())


# ---------------------------------------------------------------------------
# projection target
# ---------------------------------------------------------------------------

def test_theta_bar_single_loop_equals_that_replicate():
    tb = lc.theta_bar_mc(PARAMS, 60, 1, 4242)
    thetas = lc.ensemble_theta_hats(PARAMS, 60, 1, 4242)
    assert tb.theta_bar == float(thetas[0])
    assert tb.stderr == 0.0


@pytest.mark.parametrize("replicates", [0, -3])
def test_zero_replicates_is_a_config_error(replicates):
    with pytest.raises(ConfigError, match="replicates"):
        lc.ensemble_theta_hats(PARAMS, 60, replicates, 1)
    with pytest.raises(ConfigError, match="mc_loops"):
        lc.theta_bar_mc(PARAMS, 60, replicates, 1)


def test_theta_bar_near_nominal_trend():
    tb = lc.theta_bar_mc(PARAMS, 500, 2000, 31415)
    assert 2.3 <= tb.theta_bar <= 2.7
    assert tb.stderr < 0.001


def test_theta_bar_heavy_intercept_regime():
    # with a = b ~ 0 the counts track t^c so the target sits near c
    params = lc.ModelParams(a=0.0, b=1e-9, c=2.0, innovation=EXP, sigma0=1.0)
    tb = lc.theta_bar_mc(params, 400, 3000, 7)
    logt = np.log(np.arange(1, 401))
    drift = float(logt.sum() / (logt @ logt))  # O(1/ln n) correction scale
    assert abs(tb.theta_bar - 2.0) < 1.5 * drift


@pytest.mark.parametrize("innovation", [EXP, lc.HalfCauchy(0.0, 1.0), lc.ChiSquare(6.0),
                                        lc.HalfCauchy(4.0, 1.0)],
                         ids=["exponential", "half_cauchy", "chi_square", "half_cauchy_location_4"])
def test_theta_bar_chunk_holds_three_replicate_matrices(innovation):
    # one 512-row chunk: the innovations, sigma and X; the trend row is shared
    # by every replicate and the uniforms are freed before sigma and X exist
    params = lc.ModelParams(a=0.1, b=0.1, c=2.0, innovation=innovation)
    n, loops = 500, 512
    lc.theta_bar_mc(params, 20, loops, 1)  # warm caches outside the trace
    tracemalloc.start()
    try:
        lc.theta_bar_mc(params, n, loops, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * loops * (n + 1) * 8


@pytest.mark.parametrize("innovation", [EXP, lc.HalfCauchy(4.0, 1.0)],
                         ids=["exponential", "half_cauchy_location_4"])
def test_theta_bar_span_of_eight_chunks_holds_one_chunk_workspace(innovation):
    # 4096 loops run as one span of eight 512-row blocks, which all reuse one
    # block's workspace: the peak stays below the one-chunk bound
    params = lc.ModelParams(a=0.1, b=0.1, c=2.0, innovation=innovation)
    n, loops, chunk = 500, 4096, 512
    lc.theta_bar_mc(params, 20, loops, 1)  # warm caches outside the trace
    tracemalloc.start()
    try:
        lc.theta_bar_mc(params, n, loops, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * chunk * (n + 1) * 8


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("replicates", [1, 511, 513, 1100, 4096])
def test_ensemble_fits_equal_the_per_chunk_fits(replicates, threads):
    # each 512-row chunk, wherever a span ends, is fitted by one (rows, n)
    # product with the bits of a fresh matrix of column-stepped paths
    n = 200
    got = lc.ensemble_theta_hats(PARAMS, n, replicates, 99, threads)
    want = np.concatenate([oracles.theta_chunk(PARAMS, n, 99, lo, min(lo + 512, replicates))
                           for lo in range(0, replicates, 512)])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("innovation", [EXP, lc.HalfCauchy(0.0, 1.0)],
                         ids=["exponential", "half_cauchy"])
@pytest.mark.parametrize("n", [200, 1000])
def test_trend_variance_scale_is_the_log_square_sum_at_finite_n(innovation, n):
    # Var(theta_hat) is sigma^2 over sum ln^2 t, not over n ln^2 n: the two
    # differ by 1 / (1 - 2/ln n + ...), 1.3-1.4 at these n, while the sample
    # variance of 4096 replicates has a relative SE of sqrt(2/4095)
    params = lc.ModelParams(a=0.1, b=0.1, c=2.0, innovation=innovation)
    thetas = lc.ensemble_theta_hats(params, n, 4096, 2024)
    var = float(thetas.var(ddof=1))
    sigma2 = lc.asymptotic_sigma2(params)
    logt = np.log(np.arange(1, n + 1, dtype=float))
    bound = 4.0 * math.sqrt(2.0 / 4095)
    assert abs(var * float(logt @ logt) / sigma2 - 1.0) < bound
    assert abs(var * n * math.log(n) ** 2 / sigma2 - 1.0) > bound


def test_asymptotic_sigma2_values():
    assert lc.asymptotic_sigma2(lc.ModelParams(a=0.0, b=0.0, c=1.0, innovation=EXP)) == \
        pytest.approx(math.pi**2 / 6, rel=1e-9)
    assert lc.asymptotic_sigma2(PARAMS) == pytest.approx(math.pi**2 / 6 * 0.81 / 0.64, rel=1e-9)
    assert lc.asymptotic_sigma2(PARAMS) == pytest.approx(2.08187, abs=1e-5)
    p = lc.ModelParams(a=0.2, b=0.1, c=1.0, innovation=EXP)
    assert lc.asymptotic_sigma2(p) == pytest.approx(math.pi**2 / 6 * 0.64 / 0.49, rel=1e-9)


# ---------------------------------------------------------------------------
# log-weight sums
# ---------------------------------------------------------------------------

def test_loglog_sum_direct_oracle():
    exact, leading, remainder = loglog_sum_check(10, 0)
    oracle = sum(math.log(t) ** 2 for t in range(1, 11))
    assert exact == pytest.approx(oracle, rel=1e-12)
    assert exact == pytest.approx(27.650244, abs=1e-6)
    assert remainder == exact - leading
    # the trend fit's denominator is the same sum at h = 0
    assert lc.theta_hat(np.zeros(10)).weights_denominator == pytest.approx(exact, rel=1e-12)


def test_loglog_sum_reflection_symmetry():
    for n, h in [(50, 3), (1000, 5)]:
        plus = loglog_sum_check(n, h)[0]
        minus = loglog_sum_check(n, -h)[0]
        assert plus == pytest.approx(minus, rel=1e-12)


def test_loglog_remainder_ratio_bounded():
    for n in (100, 10_000, 1_000_000):
        for h in (0, 1, -1, 5, -5):
            exact, leading, remainder = loglog_sum_check(n, h)
            assert abs(remainder) / (n * math.log(n)) <= 2.5
