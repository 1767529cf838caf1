import math

import numpy as np
import pytest

import logcount as lc
from logcount.errors import ConfigError, ExplosionError
from logcount.process import simulate_replicate_block

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
# step
# ---------------------------------------------------------------------------

def test_step_degenerate_recursion_is_pure_trend():
    params = lc.ModelParams(a=0.0, b=0.0, c=2.0, innovation=EXP)
    rng = np.random.default_rng(0)
    sigma, x, c_val, y = lc.step(123.0, 456, 10, params, rng)
    assert sigma == pytest.approx(100.0, rel=1e-12)
    assert c_val == pytest.approx(2 * math.log(10))


def test_step_all_terms_zero_at_t1():
    rng = np.random.default_rng(0)
    sigma, x, c_val, y = lc.step(1.0, 0, 1, PARAMS, rng)
    assert sigma == 1.0
    assert c_val == 0.0
    assert x == math.floor(sigma * y)


def test_step_arithmetic_oracle():
    rng = np.random.default_rng(0)
    sigma, _, _, _ = lc.step(4.0, 7, 3, PARAMS, rng)
    expected_log = 0.1 * math.log(4) + 0.1 * math.log(8) + 2 * math.log(3)
    assert expected_log == pytest.approx(2.543798, abs=1e-6)
    assert sigma == pytest.approx(math.exp(expected_log), rel=1e-12)
    assert sigma == pytest.approx(12.7273, abs=2e-3)


def test_step_rejects_bad_state():
    with pytest.raises(ConfigError):
        lc.step(0.0, 3, 2, PARAMS, np.random.default_rng(0))


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
    law = lc.initial_law(params)
    # mean of the law by series summation
    _, pmf, _ = law.table()
    mean = float(np.arange(len(pmf)) @ pmf)
    assert x0.mean() == pytest.approx(mean, abs=4 * x0.std() / math.sqrt(len(x0)))


def test_simulate_iid_exogenous_runs():
    exo = lc.ExogenousSpec(kind="iid", family="normal", mean=0.5, sd=0.2)
    params = lc.ModelParams(a=0.2, b=0.1, c=0.0, innovation=EXP, exogenous=exo)
    traj = lc.simulate(params, 100, 11)
    assert traj.n == 100
    assert np.all(traj.sigma > 0)
    assert np.std(traj.c_exo[1:]) > 0  # genuinely random exogenous terms


@pytest.mark.parametrize("params", [PARAMS, IID_PARAMS], ids=["trend", "iid"])
def test_replicate_does_not_depend_on_its_block(params):
    # replicate r is drawn from its own stream, whichever chunk it runs in
    lo, hi = 7, 19
    sig, xs = simulate_replicate_block(params, 40, 2024, lo, hi)
    assert sig.shape == xs.shape == (hi - lo, 41)
    for i in range(hi - lo):
        sig_1, xs_1 = simulate_replicate_block(params, 40, 2024, lo + i, lo + i + 1)
        assert np.array_equal(sig[i], sig_1[0]) and np.array_equal(xs[i], xs_1[0])


def test_explosion_guard():
    exo = lc.ExogenousSpec(kind="iid", family="uniform", mean=400.0, half_width=0.0)
    params = lc.ModelParams(a=0.9, b=0.0, c=0.0, innovation=EXP, exogenous=exo)
    with pytest.raises(ExplosionError) as err:
        lc.simulate(params, 50, 1)
    assert err.value.t >= 1


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
