import math

import numpy as np
import pytest

import logcount as lc
from logcount.errors import LOG_SIGMA_LIMIT, ConfigError, ExplosionError
from logcount.process import _exo_term, _next_sigma, simulate_replicate_block
from logcount.rng import CHUNK, NS_SIM, SPAN_ELEMENTS, span, stream, uniform_rows
from oracles import support_bound

EXP = lc.Exponential(1.0)
PARAMS = lc.ModelParams(a=0.1, b=0.1, c=2.0, innovation=EXP)
IID_PARAMS = lc.ModelParams(a=0.2, b=0.1, c=0.0, innovation=EXP,
                            exogenous=lc.ExogenousSpec(kind="iid", family="normal",
                                                       mean=0.5, sd=0.2))


# ---------------------------------------------------------------------------
# parameters and validation
# ---------------------------------------------------------------------------

def test_validate_accepts_contractive_params():
    consts = lc.validate(PARAMS)
    assert PARAMS.a + PARAMS.b * consts.gamma == pytest.approx(0.2)
    assert PARAMS.theta == pytest.approx(2.5)


def test_validate_rejects_contraction_violation():
    bad = lc.ModelParams(a=0.9, b=0.2, c=2.0, innovation=EXP)
    with pytest.raises(ConfigError, match="contraction"):
        lc.validate(bad)


def test_validate_rejects_when_gamma_pushes_over_one():
    # gamma(chi2(3)) = 1.0432 makes a + b*gamma = 0.9173 pass but 0.5 + 0.48*g fail
    ok = lc.ModelParams(a=0.5, b=0.4, c=1.0, innovation=lc.ChiSquare(3))
    with pytest.raises(ConfigError, match="contraction"):
        lc.validate(lc.ModelParams(a=0.5, b=0.48, c=1.0, innovation=lc.ChiSquare(3)))
    lc.validate(ok)


def test_params_field_validation():
    with pytest.raises(ConfigError):
        lc.ModelParams(a=-0.1, b=0.1, c=2.0, innovation=EXP)
    with pytest.raises(ConfigError):
        lc.ModelParams(a=0.1, b=0.1, c=2.0, innovation=EXP, sigma0=0.5)


def test_exogenous_spec_mean_abs_dev():
    assert lc.ExogenousSpec(kind="trend").mean_abs_dev == 0.0
    normal = lc.ExogenousSpec(kind="iid", family="normal", mean=1.0, sd=2.0)
    assert normal.mean_abs_dev == pytest.approx(2.0 * math.sqrt(2 / math.pi))
    unif = lc.ExogenousSpec(kind="iid", family="uniform", mean=0.0, half_width=3.0)
    assert unif.mean_abs_dev == pytest.approx(1.5)
    with pytest.raises(ConfigError):
        lc.ExogenousSpec(kind="iid", family="gamma")


# ---------------------------------------------------------------------------
# one step of the recursion
# ---------------------------------------------------------------------------

def step(params, t, sigma_prev, x_prev):
    """(sigma_t, C_{t-1}) of the trend recursion, from the kernels every path steps."""
    c_val = _exo_term(params, t, None)
    return float(_next_sigma(params, t, sigma_prev, x_prev, c_val)), c_val


def test_step_degenerate_recursion_is_pure_trend():
    params = lc.ModelParams(a=0.0, b=0.0, c=2.0, innovation=EXP)
    sigma, c_val = step(params, 10, 123.0, 456)
    assert sigma == pytest.approx(100.0, rel=1e-12)
    assert c_val == pytest.approx(2 * math.log(10))


def test_step_all_terms_zero_at_t1():
    sigma, c_val = step(PARAMS, 1, 1.0, 0)
    assert sigma == 1.0
    assert c_val == 0.0


def test_step_arithmetic_oracle():
    sigma, _ = step(PARAMS, 3, 4.0, 7)
    expected_log = 0.1 * math.log(4) + 0.1 * math.log(8) + 2 * math.log(3)
    assert expected_log == pytest.approx(2.543798, abs=1e-6)
    assert sigma == pytest.approx(math.exp(expected_log), rel=1e-12)
    assert sigma == pytest.approx(12.7273, abs=2e-3)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_zero_length():
    traj = lc.simulate(PARAMS, 0, 7)
    assert traj.n == 0
    assert len(traj.sigma) == 1 and traj.sigma[0] == 1.0
    assert traj.x[0] == math.floor(traj.y[0])


def test_simulate_growth_floor():
    traj = lc.simulate(PARAMS, 500, 123)
    t = np.arange(1, 501, dtype=float)
    assert np.all(traj.sigma[1:] / t**PARAMS.c >= 1.0)


def test_simulate_bit_identical_reruns():
    a = lc.simulate(PARAMS, 300, 99)
    b = lc.simulate(PARAMS, 300, 99)
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    c = lc.simulate(PARAMS, 300, 100)
    assert not np.array_equal(a.x, c.x)


def test_simulate_floor_identity_and_recursion_consistency():
    traj = lc.simulate(PARAMS, 200, 5)
    assert np.array_equal(traj.x, np.floor(traj.sigma * traj.y))
    # sigma_t reconstructs from the stored pieces
    for t in range(1, 201):
        log_sigma = (PARAMS.a * math.log(traj.sigma[t - 1])
                     + PARAMS.b * math.log1p(traj.x[t - 1]) + traj.c_exo[t])
        assert math.exp(log_sigma) == pytest.approx(traj.sigma[t], rel=1e-12)
    assert np.allclose(traj.c_exo[1:], 2.0 * np.log(np.arange(1, 201)))


def test_simulate_initial_count_law():
    # X_0 pools to the discretization of sigma0 across replicates
    params = lc.ModelParams(a=0.1, b=0.1, c=2.0, innovation=EXP, sigma0=3.0)
    x0 = np.array([lc.simulate(params, 0, s).x[0] for s in range(4000)])
    law = lc.DiscretizedLaw(params.innovation, params.sigma0)
    # mean of the law by series summation
    pmf = law.pmf(np.arange(support_bound(law) + 1))
    mean = float(np.arange(len(pmf)) @ pmf)
    assert x0.mean() == pytest.approx(mean, abs=4 * x0.std() / math.sqrt(len(x0)))


def test_simulate_iid_exogenous_runs():
    exo = lc.ExogenousSpec(kind="iid", family="normal", mean=0.5, sd=0.2)
    params = lc.ModelParams(a=0.2, b=0.1, c=0.0, innovation=EXP, exogenous=exo)
    traj = lc.simulate(params, 100, 11)
    assert traj.n == 100
    assert np.all(traj.sigma > 0)
    assert np.std(traj.c_exo[1:]) > 0  # genuinely random exogenous terms


# at n = 2000 the scalar steps (a block of one) and the column steps run long paths
BLOCK_CASES = {"trend": (PARAMS, 40), "iid": (IID_PARAMS, 40), **{
    f"{innovation.family}-2000": (lc.ModelParams(a=0.2, b=0.1, c=0.5, innovation=innovation), 2000)
    for innovation in (EXP, lc.HalfCauchy(4, 1), lc.ChiSquare(6))}}


@pytest.mark.parametrize("params, n", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_replicate_does_not_depend_on_its_block(params, n):
    # replicate r is drawn from its own stream, whichever chunk it runs in; a
    # block of one steps scalars and a wider block steps columns, bit for bit alike
    lo, hi = 7, 19
    sig, xs = simulate_replicate_block(params, n, 2024, lo, hi)
    assert sig.shape == xs.shape == (hi - lo, n + 1)
    for i in range(hi - lo):
        sig_1, xs_1 = simulate_replicate_block(params, n, 2024, lo + i, lo + i + 1)
        assert np.array_equal(sig[i], sig_1[0]) and np.array_equal(xs[i], xs_1[0])


def _first_explosion(params, u_y, u_c):
    """(t, ln sigma_t) of the earliest |ln sigma_t| past the limit, and of the first
    replicate at that t, by a plain per-step loop with a check at every step."""
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


# drifting toward the limit, with exogenous noise so replicates cross at different steps
EXPLOSIVE = lc.ModelParams(a=0.9, b=0.05, c=0.0, innovation=lc.HalfCauchy(0, 1),
                           exogenous=lc.ExogenousSpec(kind="iid", family="normal",
                                                      mean=60.0, sd=60.0))


def test_explosion_guard():
    exo = lc.ExogenousSpec(kind="iid", family="uniform", mean=400.0, half_width=0.0)
    params = lc.ModelParams(a=0.9, b=0.0, c=0.0, innovation=EXP, exogenous=exo)
    with pytest.raises(ExplosionError) as err:
        lc.simulate(params, 50, 1)
    assert (err.value.t, err.value.log_sigma) == (2, 760.0)


@pytest.mark.parametrize("seed", range(4))
def test_simulate_explosion_matches_per_step_oracle(seed):
    n = 200
    u = stream(seed).random((1, 2 * n + 1))
    expected = _first_explosion(EXPLOSIVE, u[:, :n + 1], u[:, n + 1:])
    assert expected is not None
    with pytest.raises(ExplosionError) as err:
        lc.simulate(EXPLOSIVE, n, seed)
    assert (err.value.t, err.value.log_sigma) == expected


# every replicate crosses at t = 2, each with its own ln sigma_2 in [741, 779]
TOGETHER = lc.ModelParams(a=0.9, b=0.0, c=0.0, innovation=EXP,
                          exogenous=lc.ExogenousSpec(kind="iid", family="uniform",
                                                     mean=400.0, half_width=10.0))


@pytest.mark.parametrize("params", [EXPLOSIVE, TOGETHER], ids=["staggered", "together"])
def test_block_explosion_is_the_earliest_step_then_the_first_replicate(params):
    n, lo, hi = 200, 0, 40
    u = uniform_rows(3, lo, hi, 2 * n + 1)
    exploded = [e for e in (_first_explosion(params, u[r:r + 1, :n + 1], u[r:r + 1, n + 1:])
                            for r in range(hi - lo)) if e is not None]
    assert len(set(exploded)) > 1  # the replicates cross at other steps or values
    expected = min(exploded, key=lambda e: e[0])  # the first replicate among ties
    assert _first_explosion(params, u[:, :n + 1], u[:, n + 1:]) == expected
    with pytest.raises(ExplosionError) as err:
        simulate_replicate_block(params, n, 3, lo, hi)
    assert (err.value.t, err.value.log_sigma) == expected


@pytest.mark.parametrize("width", [0, 1, 92, 501])
@pytest.mark.parametrize("lo,hi", [(0, 512), (3584, 4096), (2**32 - 2, 2**32 + 2), (7, 7),
                                   (100, 1300)])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100])
def test_uniform_rows_equal_the_per_replicate_streams(seed, lo, hi, width):
    u = uniform_rows(seed, lo, hi, width)
    assert u.shape == (hi - lo, width)
    for i in range(hi - lo):
        expected = stream(seed, NS_SIM, lo + i).random(width)
        assert np.array_equal(u[i].view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("lo,hi", [(0, 0), (0, 3)])
def test_uniform_rows_reject_a_negative_seed(lo, hi):
    with pytest.raises(ValueError, match="non-negative"):
        uniform_rows(-1, lo, hi, 5)
    with pytest.raises(ValueError, match="non-negative"):
        stream(-1, NS_SIM, lo)


@pytest.mark.parametrize("width", [1, 92, 10**6])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n_items", [1, 511, 1500, 4096, 100_000])
def test_span_is_whole_chunks_and_one_per_worker_within_the_budget(n_items, threads, width):
    rows = span(n_items, threads, width)
    assert rows % CHUNK == 0 and rows >= CHUNK
    assert rows == CHUNK or rows * width <= SPAN_ELEMENTS
    spans = -(-n_items // rows)
    if CHUNK * width * -(-n_items // (CHUNK * threads)) <= SPAN_ELEMENTS:
        assert spans <= threads  # the budget does not bind


def test_span_splits_the_mixing_replicates_in_two():
    # 4096 pairs with k = 20 and n_max + R = 50 hold 92 uniforms per row
    assert span(4096, 1, 92) == span(4096, 2, 92) == 2048


# ---------------------------------------------------------------------------
# analytic bounds
# ---------------------------------------------------------------------------

def test_theorem_bound_closed_form():
    consts = lc.validate(PARAMS)
    e_ln_plus = consts.e_ln_plus
    for n in (0, 1, 5):
        expected = 0.2**n * (1 / 0.9) * (0.2 * (1 + e_ln_plus)) / 0.8
        assert lc.theorem1_bound(PARAMS, n) == pytest.approx(expected, rel=1e-12)


def test_theorem_bound_geometric_decay():
    b5 = lc.theorem1_bound(PARAMS, 5)
    b6 = lc.theorem1_bound(PARAMS, 6)
    assert b6 / b5 == pytest.approx(0.2, rel=1e-12)


def test_theorem_bound_finite_at_zero_gap():
    assert math.isfinite(lc.theorem1_bound(PARAMS, 0))


def test_autocovariance_no_feedback():
    params = lc.ModelParams(a=0.0, b=0.0, c=2.0, innovation=EXP)
    consts = lc.validate(params)
    assert lc.theoretical_autocovariance(params, 0, consts) == pytest.approx(consts.var_ln_y)
    assert lc.theoretical_autocovariance(params, 1, consts) == 0.0
    assert lc.theoretical_autocovariance(params, 7, consts) == 0.0


def test_autocovariance_plugin_values():
    v = math.pi**2 / 6
    assert lc.theoretical_autocovariance(PARAMS, 0) == pytest.approx(
        v * (0.01 / 0.96 + 1), rel=1e-9)
    assert lc.theoretical_autocovariance(PARAMS, 0) == pytest.approx(1.66207, abs=1e-5)
    assert lc.theoretical_autocovariance(PARAMS, 1) == pytest.approx(
        v * (0.01 * 0.2 / 0.96 + 0.1), rel=1e-9)
    assert lc.theoretical_autocovariance(PARAMS, 1) == pytest.approx(0.167921, abs=1e-5)


def test_empirical_autocovariance_approaches_theory():
    # covariance across replicates at a late time against the stationary limit
    sig, xs = __import__("logcount.process", fromlist=["simulate_replicate_block"]) \
        .simulate_replicate_block(PARAMS, 52, 2718, 0, 6000)
    l = np.log1p(xs)
    t = 50
    consts = lc.validate(PARAMS)
    for u in (0, 1, 2):
        emp = float(np.cov(l[:, t], l[:, t - u])[0, 1])
        theory = lc.theoretical_autocovariance(PARAMS, u, consts)
        se = consts.var_ln_y * 3 / math.sqrt(6000)
        assert emp == pytest.approx(theory, abs=4 * se)


def test_monotone_mean_curve_small():
    means, _, se_d = lc.mean_log_curve(PARAMS, 30, 4000, 17)
    assert np.all(np.diff(means) >= -2 * se_d)
