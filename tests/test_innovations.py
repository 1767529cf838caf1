import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.optimize import brentq

import logcount as lc
from logcount.errors import ConfigError
from logcount.innovations import HEAD_BLOCK, NEAR_GAP, _gap_mass, _head_sums
from oracles import density_slope, half_cauchy_quantile, head_sum, support_bound

EXP = lc.Exponential(1.0)
HN_UNIT = lc.HalfNormal(math.sqrt(math.pi / 2.0))  # E[Y] = scale * sqrt(2/pi) = 1
CHI3 = lc.ChiSquare(3)
HC0 = lc.HalfCauchy(0.0, 1.0)
HC4 = lc.HalfCauchy(4.0, 1.0)

ALL_SPECS = [EXP, lc.Exponential(2.5), HN_UNIT, lc.HalfNormal(0.7), CHI3,
             lc.ChiSquare(5), HC0, HC4, lc.HalfCauchy(1.0, 2.0)]


# ---------------------------------------------------------------------------
# family basics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_density_integrates_to_one(spec):
    val, _ = integrate.quad(lambda y: float(spec.density(y)), 0, np.inf, limit=400)
    assert abs(val - 1.0) < 1e-8


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_quantile_cdf_roundtrip_grid(spec):
    x = np.asarray(spec.quantile(np.linspace(0.01, 0.99, 37)))
    back = np.asarray(spec.quantile(spec.cdf(x)))
    assert np.max(np.abs(back - x)) < 1e-8 * max(1.0, float(np.max(x)))


@settings(max_examples=60, deadline=None)
@given(u=st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_cdf_of_quantile_is_identity(u):
    for spec in (EXP, HN_UNIT, CHI3, HC0):
        assert abs(float(spec.cdf(spec.quantile(u))) - u) < 1e-9


def test_monotonicity_flags():
    assert EXP.monotone_density
    assert HN_UNIT.monotone_density
    assert not CHI3.monotone_density
    assert lc.ChiSquare(2).monotone_density
    assert HC0.monotone_density
    assert not HC4.monotone_density


def test_scipy_stats_cross_check():
    # independent implementations of the same four families
    x = np.linspace(0.01, 6.0, 50)
    assert np.allclose(EXP.density(x), stats.expon.pdf(x), atol=1e-12)
    assert np.allclose(HN_UNIT.cdf(x), stats.halfnorm.cdf(x, scale=HN_UNIT.scale), atol=1e-12)
    assert np.allclose(CHI3.density(x), stats.chi2.pdf(x, 3), atol=1e-12)
    fc = stats.foldcauchy(c=4.0, scale=1.0)
    assert np.allclose(HC4.density(x), fc.pdf(x), atol=1e-12)
    assert np.allclose(HC4.cdf(x), fc.cdf(x), atol=1e-12)


# ---------------------------------------------------------------------------
# half-Cauchy closed forms against mpmath at 50 digits
# ---------------------------------------------------------------------------

BUMPED_HC = [(0.6, 1.0), (1.0, 1.0), (4.0, 1.0), (10.0, 2.0)]
LEVELS = ([10.0 ** -k for k in range(15, 0, -1)] + [0.3, 0.5, 0.7]
          + [1.0 - 10.0 ** -k for k in range(1, 16)])


def _mp_density(m, s, y):
    return (s / mpmath.pi) * (1 / ((y - m) ** 2 + s * s) + 1 / ((y + m) ** 2 + s * s))


def _mp_slope(m, s, y):
    return mpmath.diff(lambda v: _mp_density(m, s, v), y)


def _mp_bisect(pred, lo, hi, steps=200):
    """Last point where ``pred`` holds, for a predicate true below and false above."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return (lo + hi) / 2


@pytest.mark.parametrize("m,s", BUMPED_HC)
def test_half_cauchy_quantile_matches_mpmath(m, s):
    spec = lc.HalfCauchy(m, s)
    got = np.asarray(spec.quantile(np.array(LEVELS)))
    worst = 0.0
    with mpmath.workdps(50):
        for u, y in zip(LEVELS, got):
            # the cdf is increasing: bisect ln y for cdf(y) = u, u taken exactly
            cdf = lambda ln_y: (mpmath.atan((mpmath.exp(ln_y) - m) / s)
                                + mpmath.atan((mpmath.exp(ln_y) + m) / s)) / mpmath.pi
            exact = mpmath.exp(_mp_bisect(lambda ln_y: cdf(ln_y) < mpmath.mpf(u), -80, 80))
            worst = max(worst, float(abs(mpmath.mpf(float(y)) - exact) / exact))
    assert worst < 1e-14


@pytest.mark.parametrize("m,s", BUMPED_HC + [(-0.3, 1.0)])
def test_half_cauchy_quantile_has_the_two_branch_bits(m, s):
    # the branches fill one array in place; every entry keeps the bits of the
    # select between two whole-array branches, at both ends and around 1/2
    spec = lc.HalfCauchy(m, s)
    half = np.nextafter(0.5, [0.0, 1.0])
    grid = np.concatenate([[0.0, 0.5, 1.0, np.nan], half, LEVELS,
                           np.random.default_rng(8).random(4000)])
    inputs = ([grid, np.stack([grid, grid[::-1]])]
              + [np.float64(u) for u in grid[:8]] + [float(u) for u in grid[:8]])
    for u in inputs:
        got, want = spec.quantile(u), half_cauchy_quantile(spec, u)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), u


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_quantile_endpoints_no_warnings(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = np.asarray(spec.quantile(np.array([0.0, 1.0])))
        q0, q1 = float(spec.quantile(0.0)), float(spec.quantile(1.0))
    assert q[0] == q0 == 0.0 and q[1] == q1 == math.inf


CROSSING_SPECS = [EXP, HN_UNIT, lc.ChiSquare(6), HC0, HC4]
RATIO_GAPS = [1e-9, 1e-6, 1e-3, 0.5, 1.7]


def _mp_log_scaled_density(spec, sigma, y):
    """ln(p(y/sigma)/sigma) in mpmath, written from each family's density formula."""
    t = y / sigma
    if isinstance(spec, lc.Exponential):
        logp = mpmath.log(spec.rate) - spec.rate * t
    elif isinstance(spec, lc.HalfNormal):
        logp = mpmath.log(mpmath.sqrt(2 / mpmath.pi) / spec.scale) - t * t / (2 * spec.scale ** 2)
    elif isinstance(spec, lc.ChiSquare):
        h = mpmath.mpf(spec.df) / 2
        logp = (h - 1) * mpmath.log(t) - t / 2 - h * mpmath.log(2) - mpmath.loggamma(h)
    else:
        logp = mpmath.log(_mp_density(abs(spec.location), spec.scale, t))
    return logp - mpmath.log(sigma)


@pytest.mark.parametrize("spec", CROSSING_SPECS, ids=str)
def test_crossing_is_the_one_root_of_the_scaled_density_difference(spec):
    # the log-density gap is positive near 0 and negative far out; a scan
    # over twelve decades finds one sign change, and mpmath's root there is
    # the closed form to rel 1e-12, down to scale ratios of 1 + 1e-9
    with mpmath.workdps(50):
        for s_lo in (0.4, 7.0, 300.0):
            for gap in RATIO_GAPS:
                s_hi = s_lo * (1.0 + gap)
                lo, hi = mpmath.mpf(s_lo), mpmath.mpf(s_hi)

                def f(y):
                    return _mp_log_scaled_density(spec, lo, y) - _mp_log_scaled_density(spec, hi, y)

                grid = [mpmath.mpf(s_lo) * mpmath.mpf(10) ** (e / 4) for e in range(-24, 25)]
                signs = [f(y) > 0 for y in grid]
                flips = [i for i in range(len(grid) - 1) if signs[i] != signs[i + 1]]
                assert signs[0] and not signs[-1] and len(flips) == 1
                root = mpmath.findroot(f, (grid[flips[0]], grid[flips[0] + 1]), solver="anderson")
                got = float(spec.crossing(s_lo, s_hi))
                assert got == pytest.approx(float(root), rel=1e-12), (s_lo, gap)


@pytest.mark.parametrize("spec", [EXP, lc.ChiSquare(6), HC0, HC4], ids=str)
@pytest.mark.parametrize("batch", [1, 3, 5, 512, 2048])
def test_gap_mass_row_does_not_depend_on_its_batch(spec, batch):
    # a gemv over the nodes gave a row other bits at another place mod 4 in
    # the batch, so the coupling's crossing test depended on its block
    rng = np.random.default_rng(17)
    s_lo = np.exp(rng.uniform(0.0, 10.0, batch))
    s_hi = s_lo * (1.0 + rng.uniform(0.0, NEAR_GAP, batch))
    y = np.floor(rng.uniform(0.0, 5.0, batch) * s_lo)
    one_call = _gap_mass(spec, s_lo, s_hi, y)
    per_row = np.concatenate([_gap_mass(spec, s_lo[i:i + 1], s_hi[i:i + 1], y[i:i + 1])
                              for i in range(batch)])
    assert np.array_equal(one_call.view(np.int64), per_row.view(np.int64))


@pytest.mark.parametrize("m,s", BUMPED_HC)
def test_half_cauchy_mode_is_the_root_of_the_slope(m, s):
    with mpmath.workdps(50):
        # p' > 0 on (0, mode) and < 0 beyond; the bump lies below m
        exact = _mp_bisect(lambda y: _mp_slope(m, s, y) > 0, 0, m)
        assert _mp_slope(m, s, m) < 0
        rel = float(abs(mpmath.mpf(lc.HalfCauchy(m, s).mode) - exact) / exact)
    assert rel < 1e-14


@pytest.mark.parametrize("m,monotone", [(0.577, True), (0.578, False)])
def test_half_cauchy_monotone_iff_location_at_most_scale_over_sqrt3(m, monotone):
    spec = lc.HalfCauchy(m, 1.0)
    assert spec.monotone_density is monotone
    assert (spec.mode == 0.0) is monotone
    with mpmath.workdps(50):
        rises = any(_mp_slope(m, 1.0, m * k / 200) > 0 for k in range(1, 201))
    assert rises is not monotone


def _two_term_half_cauchy(m, s, y):
    """(cdf, sf, density) of HalfCauchy(m, s) as the sums of both terms."""
    y = np.asarray(y, dtype=float)
    yy = np.maximum(y, 0.0)
    cdf = np.where(y > 0, (np.arctan((yy - m) / s) + np.arctan((yy + m) / s)) / math.pi, 0.0)
    yt = np.maximum(y, m + s)
    stable = (np.arctan(s / (yt - m)) + np.arctan(s / (yt + m))) / math.pi
    sf = np.where(y > m + s, stable, 1.0 - cdf)
    val = (s / math.pi) * (1.0 / ((yy - m) ** 2 + s * s) + 1.0 / ((yy + m) ** 2 + s * s))
    return cdf, sf, np.where(y >= 0, val, 0.0)


@pytest.mark.parametrize("location", [0.0, -0.0])
@pytest.mark.parametrize("s", [1.0, 0.3, 7e5])
def test_half_cauchy_at_location_zero_has_the_two_term_bits(location, s):
    # at m = 0 the two terms are equal doubles, so one doubled term must give
    # every bit of their sum, on both sides of the sf switch at m + s
    spec = lc.HalfCauchy(location, s)
    edge = np.nextafter(s, [0.0, np.inf])
    grid = np.concatenate([[0.0, -0.0, -1.0, 5e-324, s, 1e300, np.inf, -np.inf, np.nan], edge,
                           s * np.exp(np.random.default_rng(3).uniform(-40.0, 40.0, 3000))])
    inputs = [grid] + [np.float64(y) for y in grid[:12]] + [float(y) for y in grid[:12]]
    with np.errstate(over="ignore"):  # the squares overflow at 1e300 on both paths
        for y in inputs:
            got = (spec.cdf(y), spec.sf(y), spec.density(y))
            for g, want in zip(got, _two_term_half_cauchy(0.0, s, y)):
                assert np.shape(g) == np.shape(want)
                assert np.asarray(g).tobytes() == np.asarray(want).tobytes(), y


def test_bad_parameters_rejected():
    with pytest.raises(ConfigError):
        lc.Exponential(0.0)
    with pytest.raises(ConfigError):
        lc.HalfNormal(-1.0)
    with pytest.raises(ConfigError):
        lc.ChiSquare(1)  # unbounded density
    with pytest.raises(ConfigError):
        lc.HalfCauchy(0.0, 0.0)


def test_json_roundtrip():
    assert lc.innovation_from_json({"family": "half_cauchy", "location": 4.0, "scale": 1.0}) == HC4
    with pytest.raises(ConfigError):
        lc.innovation_from_json({"family": "poisson"})
    with pytest.raises(ConfigError):
        lc.innovation_from_json({"family": "exponential", "rate": 1.0, "typo": 2})


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_y_inverse_cdf_identity():
    # uniform draw u = 1 - 1/e maps to exactly 1.0 under Exponential(1)
    assert float(EXP.quantile(1.0 - math.exp(-1.0))) == pytest.approx(1.0, abs=1e-15)


def test_sample_y_halfnormal_unit_mean():
    rng = np.random.default_rng(2)
    draws = HN_UNIT.quantile(rng.random(1_000_000))
    assert 0.995 <= draws.mean() <= 1.005


def test_chisquare_median_bisection_oracle():
    # independent oracle: bisect the regularized incomplete gamma CDF
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(CHI3.cdf(mid)) < 0.5:
            lo = mid
        else:
            hi = mid
    median = 0.5 * (lo + hi)
    assert median == pytest.approx(2.3660, abs=5e-4)
    assert float(CHI3.quantile(0.5)) == pytest.approx(median, abs=1e-9)


def test_sampling_is_deterministic_given_state():
    a = CHI3.quantile(np.random.default_rng(99).random(10))
    b = CHI3.quantile(np.random.default_rng(99).random(10))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_exponential():
    c = lc.compute_constants(EXP)
    assert c.gamma == 1.0
    assert c.big_gamma == 1.0
    assert c.p_sup == 1.0
    # quadrature oracle; ln of an Exp(1) draw is a flipped standard Gumbel
    assert c.var_ln_y == pytest.approx(math.pi**2 / 6, abs=1e-8)
    assert c.e_ln_plus == pytest.approx(0.219384, abs=1e-6)


def test_e_ln_plus_matches_exponential_integral():
    # int_1^inf ln(y) e^{-y} dy equals the exponential integral E1(1)
    from scipy.special import exp1

    c = lc.compute_constants(EXP)
    assert c.e_ln_plus == pytest.approx(float(exp1(1.0)), abs=1e-10)


def test_constants_halfnormal():
    c = lc.compute_constants(HN_UNIT)
    assert c.gamma == 1.0 and c.big_gamma == 1.0
    # Var(ln |Z|) is scale free and equals pi^2/8
    assert c.var_ln_y == pytest.approx(math.pi**2 / 8, abs=1e-8)
    assert c.p_sup == pytest.approx(float(HN_UNIT.density(0.0)), abs=1e-15)


def test_constants_chisquare3_analytic():
    c = lc.compute_constants(CHI3)
    p1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
    F1 = float(CHI3.cdf(1.0))
    assert c.gamma == pytest.approx(p1 + 1 - F1, abs=1e-12)
    assert c.gamma > 1.0
    assert c.big_gamma == pytest.approx((1 + (2 * p1 + 1 - 2 * F1)) / 2, abs=1e-12)
    assert c.p_sup == pytest.approx(p1, abs=1e-12)


@pytest.mark.parametrize("spec", [EXP, CHI3, HC4], ids=str)
def test_gamma_matches_brute_force_envelope(spec):
    # brute force: running supremum on a fine grid, trapezoid quadrature
    hi = float(spec.quantile(1 - 1e-10)) if spec.monotone_density else 50.0
    xs = np.linspace(0.0, hi, 2_000_001)
    env = np.maximum.accumulate(np.asarray(spec.density(xs))[::-1])[::-1]
    brute = float(np.trapezoid(env, xs)) + (1.0 - float(spec.cdf(hi)))
    assert lc.compute_constants(spec).gamma == pytest.approx(brute, abs=1e-6)


@pytest.mark.parametrize("spec", [CHI3, HC4], ids=str)
def test_big_gamma_matches_quadrature_oracle(spec):
    # the density rises to one peak and then falls; split the integral there
    peak = brentq(lambda x: float(density_slope(spec, x)), 1e-9, 50.0)
    val = 0.0
    edges = [0.0, peak, max(50.0, 4 * (peak + 1))]
    for a, b in zip(edges[:-1], edges[1:]):
        v, _ = integrate.quad(lambda x: x * abs(float(density_slope(spec, x))), a, b, limit=400)
        val += v
    tail, _ = integrate.quad(lambda x: x * abs(float(density_slope(spec, x))), edges[-1], np.inf, limit=400)
    val += tail
    assert lc.compute_constants(spec).big_gamma == pytest.approx((1 + val) / 2, abs=1e-6)


def test_gamma_one_iff_monotone():
    for spec in ALL_SPECS:
        c = lc.compute_constants(spec)
        assert c.gamma >= 1.0 - 1e-12
        if spec.monotone_density:
            assert c.gamma == 1.0 and c.big_gamma == 1.0
        else:
            assert c.gamma > 1.0


# ---------------------------------------------------------------------------
# discretized laws
# ---------------------------------------------------------------------------

def test_pmf_geometric_closed_form():
    law = lc.DiscretizedLaw(EXP, 1.0)
    assert float(law.pmf(0)) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    k = np.arange(0, 201)
    for sigma in (0.1, 1.0, 10.0, 100.0):
        law = lc.DiscretizedLaw(EXP, sigma)
        p = 1 - math.exp(-1.0 / sigma)
        assert np.max(np.abs(law.pmf(k) - (1 - p) ** k * p)) < 1e-12


def test_pmf_normalization_after_truncation():
    for spec in (EXP, HN_UNIT, CHI3):
        for sigma in (0.5, 3.7, 40.0):
            law = lc.DiscretizedLaw(spec, sigma)
            pmf = law.pmf(np.arange(support_bound(law) + 1))
            assert abs(pmf.sum() - 1.0) < 1e-10


def test_pmf_halfnormal_quadrature_oracle():
    # P(X=3) at scale 2 is the half-normal mass of [1.5, 2]
    oracle, _ = integrate.quad(lambda y: float(lc.HalfNormal(1.0).density(y)), 1.5, 2.0)
    law = lc.DiscretizedLaw(lc.HalfNormal(1.0), 2.0)
    assert float(law.pmf(3)) == pytest.approx(oracle, abs=1e-10)
    assert oracle == pytest.approx(0.088114, abs=1e-6)


def test_pmf_domain_error():
    with pytest.raises(ConfigError):
        lc.DiscretizedLaw(EXP, 0.0)
    with pytest.raises(ConfigError):
        lc.DiscretizedLaw(EXP, -2.0)


def test_quantile_of_discretized_law():
    law = lc.DiscretizedLaw(EXP, 2.0)
    ks = np.arange(0, 60)
    cdf = law.cdf(ks)
    for u in (0.05, 0.3, 0.5, 0.9, 0.999):
        k = int(law.quantile(u))
        assert cdf[k] >= u
        if k > 0:
            assert cdf[k - 1] < u


def test_stochastic_ordering_in_scale():
    ks = np.arange(0, 200)
    for spec in (EXP, HN_UNIT, CHI3):
        for s, sp in [(1.0, 0.5), (3.0, 2.9), (10.0, 2.0)]:
            hi = lc.DiscretizedLaw(spec, s)
            lo = lc.DiscretizedLaw(spec, sp)
            assert np.all(hi.cdf(ks) <= lo.cdf(ks) + 1e-15)


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(min_value=0.05, max_value=50.0))
def test_sample_matches_floor_of_scaled_quantile(sigma):
    # the law's quantile at u is the count floor(sigma Y) the recursion draws from u
    law = lc.DiscretizedLaw(EXP, sigma)
    u = np.random.default_rng(11).random(100)
    assert np.array_equal(law.quantile(u), np.floor(sigma * np.asarray(EXP.quantile(u))))


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_identical_laws_zero():
    law = lc.DiscretizedLaw(EXP, 5.0)
    assert lc.tv_distance(law, lc.DiscretizedLaw(EXP, 5.0)) == 0.0


def test_tv_mismatched_bases_rejected():
    with pytest.raises(ConfigError):
        lc.tv_distance(lc.DiscretizedLaw(EXP, 1.0), lc.DiscretizedLaw(CHI3, 1.0))


def test_tv_log_scale_bound_monotone_density():
    a = lc.DiscretizedLaw(EXP, 1.0)
    b = lc.DiscretizedLaw(EXP, math.e)
    assert lc.tv_distance(a, b) <= 1.0


def test_tv_direct_summation_oracle():
    s1, s2 = 2.0, 2.2
    law1, law2 = lc.DiscretizedLaw(EXP, s1), lc.DiscretizedLaw(EXP, s2)
    p1 = 1 - math.exp(-1 / s1)
    p2 = 1 - math.exp(-1 / s2)
    k = np.arange(0, 4000)
    oracle = 0.5 * np.abs((1 - p1) ** k * p1 - (1 - p2) ** k * p2).sum()
    assert lc.tv_distance(law1, law2) == pytest.approx(oracle, abs=1e-12)


def test_tv_far_scales_skip_quadrature_rule():
    # the Gauss-Legendre rule (and LAPACK) is built only for close scales
    code = ("import logcount as lc, logcount.innovations as inv\n"
            "hc = lc.HalfCauchy(0.0, 1.0)\n"
            "lc.tv_distance(lc.DiscretizedLaw(hc, 1.0), lc.DiscretizedLaw(hc, 2.0))\n"
            "print(inv._gauss_legendre.cache_info().misses)\n")
    src = str(Path(lc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"


def test_tv_tiny_scale_overflows_to_its_limit_without_warning():
    # (k+1)/1e-300 overflows to inf in the tail walk, where cdf is 1: the
    # tv is 1 - cdf_hc(1) = 1/2
    law1, law2 = lc.DiscretizedLaw(HC0, 1e-300), lc.DiscretizedLaw(HC0, 1.0)
    assert lc.tv_distance(law1, law2) == pytest.approx(0.5, abs=1e-15)


def test_tv_symmetric():
    a = lc.DiscretizedLaw(HN_UNIT, 1.3)
    b = lc.DiscretizedLaw(HN_UNIT, 4.1)
    assert lc.tv_distance(a, b) == lc.tv_distance(b, a)


def test_tv_heavy_tail_base():
    # half-Cauchy tables are astronomically long; the blockwise tail path
    # must still match a very long direct summation
    law1 = lc.DiscretizedLaw(HC0, 1.0)
    law2 = lc.DiscretizedLaw(HC0, 1.5)
    k = np.arange(0, 2_000_000)
    direct = 0.5 * float(np.abs(law1.pmf(k) - law2.pmf(k)).sum())
    tail = 0.5 * abs(float(law1.sf(k[-1])) - float(law2.sf(k[-1])))
    val = lc.tv_distance(law1, law2)
    assert val == pytest.approx(direct + tail, abs=1e-6)
    assert val <= abs(math.log(1.5)) + 1e-9  # monotone density bound


def _mp_half_cauchy_tv(spec, s_lo, s_hi):
    """TV of two half-Cauchy scalings in mpmath: ``max_k P(k/s_hi < Y <= k/s_lo)``.

    That difference of upper tails peaks at the crossing index, which lies
    within a few integers of the density crossing ``y*``.
    """
    m, s = abs(spec.location), spec.scale
    with mpmath.workdps(50):
        def cdf(t):
            return (mpmath.atan((t - m) / s) + mpmath.atan((t + m) / s)) / mpmath.pi
        lo, hi = mpmath.mpf(s_lo), mpmath.mpf(s_hi)
        k0 = math.floor(float(spec.crossing(s_lo, s_hi)))
        return max(cdf(k / lo) - cdf(k / hi) for k in range(k0 - 3, k0 + 4))


@pytest.mark.parametrize("spec,s_lo,s_hi", [
    (HC0, 5e6, 6e6),
    (HC0, 1e7, 1.5e7),
    # the crossing, near 5.05e6, lies past the dense head of DENSE_MAX entries
    (HC4, 1e6, 1.5e6),
])
def test_tv_heavy_tail_large_scales_match_mpmath(spec, s_lo, s_hi):
    val = lc.tv_distance(lc.DiscretizedLaw(spec, s_lo), lc.DiscretizedLaw(spec, s_hi))
    assert abs(val - _mp_half_cauchy_tv(spec, s_lo, s_hi)) <= 1e-15


# tv_distance on the grid of the benchmark's tv-check, every pair
# sigma <= sigma' of TV_GRID_SIGMAS in row order, pinned bit for bit
TV_GRID_SIGMAS = [1, 2, 5, 10, 50, 200]
TV_GRID_PINNED = [
    (EXP, [
        0.0, 0.23865121854119112, 0.5349847627990265, 0.6910311523138538, 0.9048007074979014,
        0.968571965029247, 0.0, 0.32568147594559665, 0.5349847627990264, 0.8391608519764873,
        0.9448884852948576, 0.0, 0.24998833984980307, 0.6967780075892324, 0.8870021626120657, 0.0,
        0.5349847627990266, 0.8113815849878452, 0.0, 0.47246621940000516, 0.0,
    ]),
    (HN_UNIT, [
        0.0, 0.3143971339606261, 0.6390695204325316, 0.7941407904195952, 0.9476898076319293,
        0.9858529711617576, 0.0, 0.4127330843176492, 0.6438613694515676, 0.9070406977401188,
        0.9731243577321378, 0.0, 0.32175037655564787, 0.797740207729602, 0.9392571884399583, 0.0,
        0.6471131896174617, 0.8881930503618709, 0.0, 0.5817611930532998, 0.0,
    ]),
    (HC0, [
        0.0, 0.20483276469913342, 0.46259488151744654, 0.6096200771453819, 0.8211143027946963,
        0.9101134475479526, 0.0, 0.281624177132741, 0.4625948815174467, 0.7486681672439952,
        0.8730979302777863, 0.0, 0.21633668899407726, 0.6100144859853526, 0.8003229325406382, 0.0,
        0.46451723029685227, 0.7198978755447631, 0.0, 0.40966552939826695, 0.0,
    ]),
    (HC4, [
        0.0, 0.6158581002198799, 0.8312767467909722, 0.8925284620055562, 0.9555088292919034,
        0.9780627583067225, 0.0, 0.6990901604157354, 0.8312767467909722, 0.9358817680394538,
        0.9688318764537076, 0.0, 0.6171760315541217, 0.8925284620055557, 0.9500241828105782, 0.0,
        0.831424753747126, 0.9276277807264935, 0.0, 0.800886307463999, 0.0,
    ]),
    (lc.ChiSquare(6), [
        0.0, 0.43857311062951904, 0.8175182943669711, 0.9392378451985217, 0.9975511720712098,
        0.9999033088056695, 0.0, 0.5570430150293764, 0.8175182943669711, 0.9893042724172345,
        0.9994941363162881, 0.0, 0.43939336485897146, 0.939429696683943, 0.9960131890868327, 0.0,
        0.8175365567546645, 0.9832756602232917, 0.0, 0.7511758477744548, 0.0,
    ]),
]


@pytest.mark.parametrize("spec,expected", TV_GRID_PINNED, ids=[str(s) for s, _ in TV_GRID_PINNED])
def test_tv_grid_values_pinned(spec, expected):
    got = [lc.tv_distance(lc.DiscretizedLaw(spec, float(a)), lc.DiscretizedLaw(spec, float(b)))
           for i, a in enumerate(TV_GRID_SIGMAS) for b in TV_GRID_SIGMAS[i:]]
    assert [repr(v) for v in got] == [repr(v) for v in expected]


# the pinned grid, an unsorted grid with a repeated scale, and close
# heavy-tailed scales whose capped heads of DENSE_MAX entries the group of
# 3.001e3 shares
@pytest.mark.parametrize("grid", [TV_GRID_SIGMAS, [200, 1, 5, 200, 2.5], [3e3, 3.001e3, 1]],
                         ids=str)
@pytest.mark.parametrize("spec", [EXP, HN_UNIT, lc.ChiSquare(6), HC0, HC4], ids=str)
def test_tv_bound_check_rows_equal_per_pair_tv_distance(spec, grid):
    report = lc.tv_bound_check(spec, grid)
    pairs = [(a, b) for i, a in enumerate(grid) for b in grid[i:]]
    assert [(r.sigma, r.sigma_prime) for r in report.rows] == pairs
    expected = [lc.tv_distance(lc.DiscretizedLaw(spec, a), lc.DiscretizedLaw(spec, b))
                for a, b in pairs]
    assert [repr(r.tv) for r in report.rows] == [repr(v) for v in expected]


# heavy-tailed pairs whose dense head is capped at DENSE_MAX entries, which
# the grid above never reaches, pinned bit for bit
TV_CAPPED_PINNED = [
    (HC0, 1000.0, 1500.0, 0.128188430991797),
    (HC0, 3e4, 1.6e5, 0.4797061234139537),
    (HC4, 1000.0, 1500.0, 0.4453868548989249),
]


@pytest.mark.parametrize("spec,s_lo,s_hi,expected", TV_CAPPED_PINNED)
def test_tv_capped_head_values_pinned(spec, s_lo, s_hi, expected):
    val = lc.tv_distance(lc.DiscretizedLaw(spec, s_lo), lc.DiscretizedLaw(spec, s_hi))
    assert repr(val) == repr(expected)


@pytest.mark.parametrize("spec", [EXP, HC0, HC4], ids=str)
@pytest.mark.parametrize("length", [1, 7, 8, 9, 128, 129, HEAD_BLOCK - 1, HEAD_BLOCK,
                                    HEAD_BLOCK + 1, 2 * HEAD_BLOCK + 1, 3 * HEAD_BLOCK + 5])
def test_blocked_head_sum_equals_one_call_pmf_sum(spec, length):
    # the lengths cross numpy's 8-wide unrolling, its 128-entry pairwise
    # block and the leaf size, and split into leaves of unequal length.
    # Close scales spread the mass over the whole head, so every leaf counts;
    # far scales mix large and small terms, whose sum a split moved by a few
    # entries rounds differently.  Both partners share one walk of the head
    s_hi, s_los = length / 6, [length / 8, 1.0]
    got = _head_sums(spec, s_hi, s_los, length - 1)
    assert got.shape == (len(s_los),)
    for s_lo, val in zip(s_los, got):
        law1, law2 = lc.DiscretizedLaw(spec, s_lo), lc.DiscretizedLaw(spec, s_hi)
        oracle = np.float64(head_sum(law1, law2, length - 1))
        assert np.float64(val).view(np.int64) == oracle.view(np.int64), s_lo


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_tv_capped_head_memory_stays_in_blocks():
    # the head of DENSE_MAX entries holds one leaf of HEAD_BLOCK indices at a
    # time, not a buffer of the whole head (32 MB)
    law1, law2 = lc.DiscretizedLaw(HC0, 1000.0), lc.DiscretizedLaw(HC0, 1500.0)
    assert _traced_peak_mb(lambda: lc.tv_distance(law1, law2)) < 2.0


def test_tv_bound_check_on_benchmark_grid_holds_one_leaf():
    # the tv-check grid of the mixing-check benchmark: HC(0,1) and HC(4,1)
    # at scale 200 have heads of 1.27e6 entries, 9.7 MB as one buffer; the
    # five partners of scale 200 share one leaf of its pmf at a time
    specs = [EXP, HC0, HC4, lc.ChiSquare(6)]
    for spec in specs:
        lc.compute_constants(spec)  # the cached constants, outside the trace
    peaks = [_traced_peak_mb(lambda: lc.tv_bound_check(spec, TV_GRID_SIGMAS)) for spec in specs]
    assert max(peaks) < 2.0


def test_tv_bound_check_report():
    report = lc.tv_bound_check(EXP, [0.5, 1, 2, 4, 8])
    assert report.big_gamma == 1.0
    assert report.min_slack >= -1e-9
    # identical-scale pairs have slack == bound == 0
    diag = [r for r in report.rows if r.sigma == r.sigma_prime]
    assert diag and all(r.slack == 0.0 and r.bound == 0.0 for r in diag)


def test_tv_bound_check_chisquare_pairs():
    report = lc.tv_bound_check(CHI3, [1.0, 1.1, 2.0, 2.2])
    assert report.min_slack >= -1e-9


# ---------------------------------------------------------------------------
# expectation bounds used by the mixing argument
# ---------------------------------------------------------------------------

def _abs_log_gap_mean(spec, sigma):
    """E|ln(floor(sigma Y)+1) - ln(sigma+1)| by series summation."""
    law = lc.DiscretizedLaw(spec, sigma)
    k = np.arange(support_bound(law, 1e-13) + 1, dtype=float)
    pmf = law.pmf(k)
    return float(np.abs(np.log(k + 1) - math.log(sigma + 1)) @ pmf)


@pytest.mark.parametrize("spec", [EXP, CHI3], ids=str)
@pytest.mark.parametrize("sigma", [1.0, 10.0, 1000.0])
def test_log_gap_bounded_by_density_constants(spec, sigma):
    c = lc.compute_constants(spec)
    assert _abs_log_gap_mean(spec, sigma) <= c.p_sup + c.e_ln_plus + 1e-9


def _mean_log_count(spec, sigma):
    """E ln(floor(sigma Y)+1) = sum_k (ln(k+1)-ln(k)) P(sigma Y >= k)."""
    kmax = int(math.ceil(sigma * float(spec.quantile(1 - 1e-14)))) + 2
    k = np.arange(1, kmax, dtype=float)
    sf = 1.0 - np.asarray(spec.cdf(k / sigma))
    return float((np.log(k + 1) - np.log(k)) @ sf)


@pytest.mark.parametrize("spec", [EXP, CHI3], ids=str)
def test_mean_log_count_slope_bounded_by_gamma(spec):
    gamma = lc.compute_constants(spec).gamma
    for sigma in np.geomspace(0.5, 64.0, 8):
        h = 0.05 * sigma
        quotient = (_mean_log_count(spec, sigma + h) - _mean_log_count(spec, sigma)) / h
        assert quotient <= gamma / sigma + 1e-6
