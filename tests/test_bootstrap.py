import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

import logcount as lc
from logcount import bootstrap
from logcount.errors import ConfigError
from oracles import ar1_paths, ar1_recursion, forward_draws, t_star

EXP = lc.Exponential(1.0)
PARAMS = lc.ModelParams(a=0.1, b=0.1, c=2.0, innovation=EXP)


# ---------------------------------------------------------------------------
# multiplier paths
# ---------------------------------------------------------------------------

def test_multiplier_iid_limit():
    # l_n -> 0 gives coefficients (0, 1): white noise with the same stream
    rng = np.random.default_rng(0)
    w = bootstrap._ar1_filter(rng.standard_normal((1, 1000)), 1e-9)[0]
    rng = np.random.default_rng(0)
    eps = rng.standard_normal((1, 1000))[0]
    assert np.allclose(w, eps, atol=1e-12)


def test_multiplier_lag1_correlation():
    rng = np.random.default_rng(3)
    w = bootstrap._ar1_filter(rng.standard_normal((1, 1_000_000)), 20.0)[0]
    r1 = float(np.corrcoef(w[:-1], w[1:])[0, 1])
    assert abs(r1 - math.exp(-1 / 20)) < 0.002


def test_multiplier_unit_marginal_variance():
    rng = np.random.default_rng(4)
    w = bootstrap._ar1_filter(rng.standard_normal((4000, 400)), 15.0)
    per_t_var = w.var(axis=0, ddof=1)
    assert np.all(np.abs(per_t_var - 1.0) < 5 * math.sqrt(2 / 4000))


def test_multiplier_covariance_matrix_spd():
    n, l_n = 200, 12.0
    t = np.arange(n)
    cov = np.exp(-np.abs(np.subtract.outer(t, t)) / l_n)
    assert np.allclose(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() > 0


# ---------------------------------------------------------------------------
# the AR(1) filter: one in-place dgtsv solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("l_n", [1e-3, 0.1, 0.5, 1.0, 3.7, 20.0, 1e3, 1e8, 1e300])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 500, 20_001])
def test_ar1_solve_keeps_lfilter_bits(l_n, n):
    # phi runs from exp(-1000) = 0 to 1 - 1e-300 = 1; the solve rounds each
    # step as lfilter does, on normals, subnormals, exact zeros and the
    # reversed 1-D rows of _adjoint_row.  A -0.0 in the input can come out
    # with the other sign, which no dot product of the draws carries.
    for rows in (1, 3, 16):
        eps = np.random.default_rng(n + rows).standard_normal((rows, n))
        zeros = eps.copy()
        zeros[:, ::3] = 0.0
        signed = zeros.copy()
        signed[:, 1::5] = -0.0
        for v in (eps, eps * 1e-310, zeros, np.zeros((rows, n)), zeros[0, ::-1]):
            assert _same_bits(bootstrap._ar1_solve(v.copy(), l_n), ar1_recursion(v, l_n))
        for v in (signed, signed[0, ::-1]):
            assert _same_bits(bootstrap._ar1_solve(v.copy(), l_n) + 0.0,
                              ar1_recursion(v, l_n) + 0.0)


@pytest.mark.parametrize("n, l_n, N_n", [(2, 1e-3, 1), (17, 3.7, 2), (500, 20.0, 65),
                                         (20_001, 1e300, 30)])
def test_adjoint_row_and_t_star_variance_keep_lfilter_bits(n, l_n, N_n):
    fit = lc.theta_hat(lc.simulate(PARAMS, n, n).counts())
    d = bootstrap._summands(fit, N_n)
    g = ar1_recursion(d[::-1], l_n)[::-1]
    g[1:] *= math.sqrt(-math.expm1(-2.0 / l_n))
    assert _same_bits(bootstrap._adjoint_row(d, l_n), g)
    cfg = lc.BootstrapConfig(l_n=l_n, N_n=N_n, B=10, alpha=0.1)
    assert _same_bits(np.float64(lc.t_star_variance(fit, cfg)),
                      np.float64(2.0 * (d @ ar1_recursion(d, l_n)) - d @ d))


def test_ar1_solve_rejects_what_it_cannot_filter_in_place():
    # f2py hands dgtsv a copy of an array that is not column-major as seen
    # through .T, and would leave the input unfiltered without a word
    v = np.random.default_rng(0).standard_normal((4, 10))
    for bad in (v[:, ::2], v[::2], v.T, np.asfortranarray(v), v[0, ::-1], v.astype(np.float32)):
        before = bad.copy()
        with pytest.raises(ValueError, match="need C-contiguous float64"):
            bootstrap._ar1_solve(bad, 5.0)
        assert _same_bits(np.asarray(bad, dtype=float), np.asarray(before, dtype=float))


# ---------------------------------------------------------------------------
# bootstrap statistic
# ---------------------------------------------------------------------------

def test_config_validation():
    for l_n in (0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            lc.BootstrapConfig(l_n=l_n, N_n=10, B=100, alpha=0.1)
    with pytest.raises(ConfigError):
        lc.BootstrapConfig(l_n=5, N_n=0, B=100, alpha=0.1)
    with pytest.raises(ConfigError):
        lc.BootstrapConfig(l_n=5, N_n=10, B=100, alpha=1.5)
    cfg = lc.BootstrapConfig(l_n=30, N_n=20, B=100, alpha=0.1)
    assert cfg.regime_warnings(500)  # l_n >= N_n flagged


@pytest.mark.parametrize("n, B", [(20_000, 200), (500, 500), (1000, 199)])
def test_t_star_rows_match_one_call_multipliers(n, B):
    # the row blocks of the forward draws give every draw the bits of one (B, n) product
    fit = lc.theta_hat(lc.simulate(PARAMS, n, 11).counts())
    cfg = lc.BootstrapConfig(l_n=10, N_n=30, B=B, alpha=0.1)
    x = fit.series_transformed
    d = lc.trend_weights(n) * (x - lc.nn_means(x, cfg.N_n))
    want = ar1_paths(np.random.default_rng(12).standard_normal((B, n)), cfg.l_n) @ d
    got = t_star(fit, cfg, np.random.default_rng(12), size=B)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n, B", [(500, 500), (20_000, 200)])
def test_coverage_draws_match_forward_multipliers(monkeypatch, n, B):
    # each cell's draws, the normals times the adjoint-filtered summands, are
    # the forward w @ d of the same normals up to rounding, over the rows the
    # loop drew before its verdicts settled; at n = 20000 the 200 rows take
    # several blocks
    seen = {}
    settled = bootstrap._settled

    def capture(fit, draws, *args):
        seen[id(fit)] = (fit, draws.copy())  # the last look holds every row drawn
        return settled(fit, draws, *args)

    monkeypatch.setattr(bootstrap, "_settled", capture)
    cells = ((10.0, 30), (20.0, 65))
    bootstrap._coverage_chunk(PARAMS, n, cells, (0.1,), B, 2.4, 13, 0, 2)
    assert len(seen) == 2
    for i, (fit, got) in enumerate(seen.values()):
        rng = bootstrap._rng.stream(13, bootstrap._rng.NS_BOOT, i)
        eps = rng.standard_normal((len(got), n))
        for ci, (l_n, N_n) in enumerate(cells):
            x = fit.series_transformed
            d = lc.trend_weights(n) * (x - lc.nn_means(x, N_n))
            want = ar1_paths(eps, l_n) @ d
            sd = math.sqrt(lc.t_star_variance(fit, lc.BootstrapConfig(l_n, N_n, B, 0.1)))
            assert np.max(np.abs(got[:, ci] - want)) <= 1e-13 * sd


@pytest.mark.parametrize("n, l_n, N_n", [(500, 10.0, 65), (501, 40.0, 5), (20_000, 0.3, 1)])
def test_adjoint_row_norm_equals_t_star_variance(n, l_n, N_n):
    # g @ g = d' L^-1 S S L^-T d = d' Sigma d, the exact conditional variance
    fit = lc.theta_hat(lc.simulate(PARAMS, n, n).counts())
    cfg = lc.BootstrapConfig(l_n=l_n, N_n=N_n, B=10, alpha=0.1)
    g = bootstrap._adjoint_row(bootstrap._summands(fit, N_n), l_n)
    assert g @ g == pytest.approx(lc.t_star_variance(fit, cfg), rel=1e-12)


# covered counts of the forward kernel (every l_n filtering the normals),
# recorded before the coverage loops switched to the adjoint rows
COVERAGE_PINS = [
    (EXP, 2.0, 120, [(8.0, 20), (3.0, 10)], [0.1, 0.05], 150, 300, 99, 2000, [130, 136, 125, 135]),
    (lc.HalfCauchy(0.0, 1.0), 2.0, 200, [(10.0, 40), (20.0, 40)], [0.1, 0.2], 120, 250, 7, 2000,
     [110, 99, 107, 96]),
    (EXP, 2.0, 500, [(10.0, 65), (2.0, 5)], [0.1], 60, 500, 2024, 1000, [55, 47]),
    (EXP, 0.5, 5000, [(10.0, 30), (20.0, 65)], [0.1, 0.3], 24, 300, 5, 64, [18, 12, 18, 12]),
]


@pytest.mark.parametrize("law, c, n, cells, alphas, loops, B, seed, target_loops, covered",
                         COVERAGE_PINS)
def test_coverage_fractions_keep_forward_kernel_values(law, c, n, cells, alphas, loops, B, seed,
                                                       target_loops, covered):
    params = lc.ModelParams(a=0.1, b=0.1, c=c, innovation=law)
    rows = lc.coverage_experiment(params, n, cells=cells, alphas=alphas, mc_loops=loops, B=B,
                                  master_seed=seed, theta_bar_loops=target_loops)
    assert [r.coverage for r in rows] == [k / loops for k in covered]


class _CountingStream:
    """A bootstrap generator that counts the rows of normals drawn from it."""

    def __init__(self, gen):
        self.gen, self.rows = gen, 0

    def standard_normal(self, *, out):
        self.rows += len(out)
        return self.gen.standard_normal(out=out)

    @property
    def bit_generator(self):
        return self.gen.bit_generator


def _count_rows(monkeypatch):
    """Wrap every (seed, NS_BOOT, i) stream; returns the list of wrappers, in loop order."""
    made = []
    stream = bootstrap._rng.stream

    def counting(master_seed, *path):
        gen = stream(master_seed, *path)
        if path[:1] == (bootstrap._rng.NS_BOOT,):
            gen = _CountingStream(gen)
            made.append(gen)
        return gen

    monkeypatch.setattr(bootstrap._rng, "stream", counting)
    return made


def _verdicts(monkeypatch, params, n, cells, alphas, B, theta_bar, seed, lo, hi):
    """Per-loop fits and covered verdicts (loops, cells, alphas) of _coverage_chunk."""
    out = []
    loop_covered = bootstrap._loop_covered

    def record(fit, *args):
        out.append((fit, loop_covered(fit, *args)))
        return out[-1][1]

    with monkeypatch.context() as m:
        m.setattr(bootstrap, "_loop_covered", record)
        counts = bootstrap._coverage_chunk(params, n, tuple(cells), tuple(alphas), B, theta_bar,
                                           seed, lo, hi)
    verdicts = np.array([v for _, v in out])
    assert np.array_equal(counts, verdicts.sum(axis=0))
    return [fit for fit, _ in out], verdicts


def _forward_intervals(fit, cells, alphas, B, seed, i):
    """Per (cell, alpha), the interval that the forward draws of loop i's stream give."""
    x = fit.series_transformed
    intervals = []
    for l_n, N_n in cells:
        d = lc.trend_weights(fit.n) * (x - lc.nn_means(x, N_n))
        forward = forward_draws(d, l_n, B, bootstrap._rng.stream(seed, bootstrap._rng.NS_BOOT, i))
        intervals.append([bootstrap._interval_from_draws(fit, forward, alpha) for alpha in alphas])
    return intervals


@pytest.mark.parametrize("law, c, n, cells, alphas, loops, B, seed, target_loops, covered",
                         COVERAGE_PINS)
def test_early_verdicts_equal_full_draw_verdicts(monkeypatch, law, c, n, cells, alphas, loops,
                                                 B, seed, target_loops, covered):
    # every loop and (cell, alpha): the verdict, fixed early or after all B
    # rows, is the one the interval of the forward draws of all B rows gives
    params = lc.ModelParams(a=0.1, b=0.1, c=c, innovation=law)
    t_seed = bootstrap._rng.derive_seed(seed, bootstrap._rng.NS_TARGET)
    theta_bar = lc.theta_bar_mc(params, n, target_loops, t_seed).theta_bar
    fits, early = _verdicts(monkeypatch, params, n, cells, alphas, B, theta_bar, seed, 0, loops)
    full = [[[ci.lower <= theta_bar <= ci.upper for ci in row]
             for row in _forward_intervals(fit, cells, alphas, B, seed, i)]
            for i, fit in enumerate(fits)]
    assert early.tolist() == full
    assert early.sum(axis=0).ravel().tolist() == covered


@pytest.mark.parametrize("end", ["lower", "upper"])
def test_verdicts_at_the_ends_of_forward_intervals_are_covered(monkeypatch, end):
    # the first pin's config, loops 0-39: theta_bar on one end of a loop's
    # forward interval, which holds its ends, for each cell and alpha.  No
    # rounding margin can fix such a verdict early, so the loop draws all B
    # rows and then replays blocks forward.  A verdict read from another
    # rounding of the draws, such as the adjoint block products, can miss one
    law, c, n, cells, alphas, _, B, seed, _, _ = COVERAGE_PINS[0]
    params = lc.ModelParams(a=0.1, b=0.1, c=c, innovation=law)
    loops = 40
    fits, _ = _verdicts(monkeypatch, params, n, cells, alphas, B, 2.0, seed, 0, loops)
    intervals = [_forward_intervals(fit, cells, alphas, B, seed, i) for i, fit in enumerate(fits)]
    streams = _count_rows(monkeypatch)
    filtered = _filtered_blocks(monkeypatch)
    missed = []
    for i in range(loops):
        for ci, ai in np.ndindex(len(cells), len(alphas)):
            del streams[:], filtered[:]
            theta_bar = getattr(intervals[i][ci][ai], end)
            _, verdicts = _verdicts(monkeypatch, params, n, cells, alphas, B, theta_bar, seed,
                                    i, i + 1)
            if not verdicts[0, ci, ai]:
                missed.append((i, cells[ci], alphas[ai]))
            assert filtered and [s.rows for s in streams] == [B + sum(filtered)]
    assert missed == []


def test_row_slices_of_a_block_draw_the_bits_of_one_call():
    # _draws fills a block VERDICT_STEP rows at a time
    for rows, n in ((500, 500), (48, 20_000), (7, 3)):
        want = np.random.default_rng(21).standard_normal((rows, n))
        rng = np.random.default_rng(21)
        got = np.empty((rows, n))
        for s0 in range(0, rows, bootstrap.VERDICT_STEP):
            rng.standard_normal(out=got[s0:s0 + bootstrap.VERDICT_STEP])
        assert _same_bits(got, want)


def test_settled_loops_draw_fewer_rows(monkeypatch):
    # the third pin's config: most loops settle before their B rows
    law, c, n, cells, alphas, loops, B, seed, target_loops, covered = COVERAGE_PINS[2]
    params = lc.ModelParams(a=0.1, b=0.1, c=c, innovation=law)
    streams = _count_rows(monkeypatch)
    rows = lc.coverage_experiment(params, n, cells=cells, alphas=alphas, mc_loops=loops, B=B,
                                  master_seed=seed, theta_bar_loops=target_loops)
    assert [r.coverage for r in rows] == [k / loops for k in covered]
    drawn = [s.rows for s in streams]
    assert len(drawn) == loops and max(drawn) <= B
    assert np.mean(drawn) < B


def test_coverage_chunk_holds_one_normals_block():
    # the cells share one block of normals, which a replay filters in place:
    # a second block, or a filtered copy of one, would break the bound
    n, B = 20_000, 200
    rows = len(bootstrap._block_buffer(n, B))
    assert rows < B
    tracemalloc.start()
    try:
        bootstrap._coverage_chunk(PARAMS, n, ((10.0, 30), (20.0, 65)), (0.1,), B, 2.4, 3, 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * rows * n * 8


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _looks(d, l_n, B, rng, rank):
    """Every look of bootstrap._draws for one cell and one rank, as (draws, margin) copies."""
    looks = bootstrap._draws([d], [l_n], [rank], B, rng, bootstrap._block_buffer(len(d), B))
    return [(drawn[:, 0].copy(), float(margin[0])) for drawn, margin in looks]


@pytest.mark.parametrize("n, B", [(20_000, 200), (100_000, 20), (1, 5), (2, 3)])
def test_draws_match_one_lfilter_call(n, B):
    # the in-place filter solves one row block at a time; 20000 x 200 and
    # 100000 x 20 end on a short block.  The reference products take the
    # kernel's row blocks, so a row's bits do not hang on how BLAS splits a
    # 20-row gemv between threads.  The forward draws keep every row's bits,
    # and the program's draws the bits of each order statistic they settle.
    l_ns = (10.0, 20.0)
    w = {l_n: ar1_paths(np.random.default_rng(15).standard_normal((B, n)), l_n) for l_n in l_ns}
    rows = max(16, bootstrap.BLOCK_ELEMENTS // n // 16 * 16)

    def products(paths, d):
        return np.concatenate([paths[r0:r0 + rows] @ d for r0 in range(0, B, rows)])

    for l_n in l_ns:
        eps = np.random.default_rng(15).standard_normal((B, n))
        assert _same_bits(bootstrap._ar1_filter(eps, l_n), w[l_n])
    eps = np.random.default_rng(15).standard_normal((1, n))
    assert _same_bits(bootstrap._ar1_filter(eps, 10.0)[0], w[10.0][0])
    ds = [np.random.default_rng(16 + i).standard_normal(n) for i in range(2)]
    for l_n in l_ns:
        for d in ds:
            want = products(w[l_n], d)
            assert _same_bits(forward_draws(d, l_n, B, np.random.default_rng(15)), want)
            rank = (B + 1) // 2
            got = _looks(d, l_n, B, np.random.default_rng(15), rank)[-1][0]
            assert _same_bits(np.sort(got)[rank - 1:rank], np.sort(want)[rank - 1:rank])
    if n >= 2:  # a trend fit needs two observations
        fit = lc.theta_hat(np.random.default_rng(17).poisson(3.0, n))
        cfg = lc.BootstrapConfig(l_n=20.0, N_n=30, B=B, alpha=0.1)
        d = lc.trend_weights(n) * (fit.series_transformed
                                   - lc.nn_means(fit.series_transformed, cfg.N_n))
        got = t_star(fit, cfg, np.random.default_rng(15), size=B)
        assert _same_bits(got, products(w[20.0], d))


def test_huge_b_is_a_config_error_before_any_stream(monkeypatch):
    # 1e30 draws fit no array index: refused before the target, the paths or
    # a bootstrap stream is made, not drawn block after block without end
    def no_stream(*args, **kwargs):
        raise AssertionError("made a stream for an impossible B")

    for name in ("theta_bar_mc", "simulate_replicate_block", "theta_hat"):
        monkeypatch.setattr(bootstrap, name, no_stream)
    monkeypatch.setattr(bootstrap._rng, "stream", no_stream)
    with pytest.raises(ConfigError, match="too large"):
        lc.coverage_experiment(PARAMS, 60, cells=[(2.0, 5)], alphas=[0.1], mc_loops=3,
                               B=10**30, master_seed=1, theta_bar_loops=16)
    cfg = lc.BootstrapConfig(l_n=2.0, N_n=5, B=10**30, alpha=0.1)
    with pytest.raises(ConfigError, match="too large"):
        lc.confidence_interval(np.arange(60), cfg, 1)


def test_draws_that_fit_an_index_but_no_memory_fail_before_drawing():
    # 2**59 draws fit an array index but no address space: the output is
    # allocated first, so no normal is drawn
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    looks = bootstrap._draws([np.ones(60)], [2.0], [bootstrap._rank(2**59, 0.1)], 2**59, rng,
                             bootstrap._block_buffer(60, 2**59))
    with pytest.raises(MemoryError):
        next(looks)
    assert rng.bit_generator.state == state


def test_coverage_b_no_memory_holds_fails_before_the_target(monkeypatch):
    # one cell at 2**59 draws fits an array index but no address space: the
    # (B, cells) draws are refused before theta_bar_mc draws a single row
    calls = []
    uniform_rows = bootstrap._rng.uniform_rows

    def counting(*args, **kwargs):
        calls.append(args)
        return uniform_rows(*args, **kwargs)

    monkeypatch.setattr(bootstrap._rng, "uniform_rows", counting)
    with pytest.raises(MemoryError):
        lc.coverage_experiment(PARAMS, 500, cells=[(10.0, 65)], alphas=[0.1], mc_loops=3,
                               B=2**59, master_seed=1)
    assert calls == []
    lc.coverage_experiment(PARAMS, 60, cells=[(2.0, 5)], alphas=[0.1], mc_loops=3, B=50,
                           master_seed=1, theta_bar_loops=16)
    assert calls  # the wrapper sees the target's and the loops' rows


def test_t_star_constant_series():
    fit = lc.theta_hat(np.full(150, 7))
    cfg = lc.BootstrapConfig(l_n=10, N_n=15, B=10, alpha=0.1)
    draws = t_star(fit, cfg, np.random.default_rng(1), size=256)
    assert np.all(draws == 0.0)


def test_t_star_conditionally_centered_gaussian():
    traj = lc.simulate(PARAMS, 500, 8)
    fit = lc.theta_hat(traj.counts())
    cfg = lc.BootstrapConfig(l_n=20, N_n=65, B=10_000, alpha=0.1)
    draws = t_star(fit, cfg, np.random.default_rng(5), size=10_000)
    B = len(draws)
    se_mean = draws.std(ddof=1) / math.sqrt(B)
    assert abs(draws.mean()) <= 3 * se_mean
    skew = float(stats.skew(draws))
    kurt = float(stats.kurtosis(draws, fisher=False))
    assert abs(skew) <= 3 * math.sqrt(6.0 / B)
    assert abs(kurt - 3.0) <= 3 * math.sqrt(24.0 / B)


def test_t_star_simulation_matches_exact_variance():
    traj = lc.simulate(PARAMS, 500, 9)
    fit = lc.theta_hat(traj.counts())
    cfg = lc.BootstrapConfig(l_n=20, N_n=65, B=20_000, alpha=0.1)
    draws = t_star(fit, cfg, np.random.default_rng(6), size=20_000)
    exact = lc.t_star_variance(fit, cfg)
    rel_se = math.sqrt(2.0 / (len(draws) - 1))
    assert draws.var(ddof=1) == pytest.approx(exact, rel=5 * rel_se)


def test_t_star_variance_equals_dense_quadratic_form():
    # the O(n) filter form against d' Sigma d with Sigma_st = exp(-|s-t|/l_n)
    for n, l_n, N_n in ((300, 7.5, 20), (301, 40.0, 5), (299, 0.3, 1)):
        fit = lc.theta_hat(lc.simulate(PARAMS, n, n).counts())
        cfg = lc.BootstrapConfig(l_n=l_n, N_n=N_n, B=10, alpha=0.1)
        x = fit.series_transformed
        d = lc.trend_weights(n) * (x - lc.nn_means(x, N_n))
        t = np.arange(n)
        sigma = np.exp(-np.abs(t[:, None] - t[None, :]) / l_n)
        assert lc.t_star_variance(fit, cfg) == pytest.approx(d @ sigma @ d, rel=1e-12)


def test_conditional_variance_tracks_asymptotic_sigma2():
    # average exact bootstrap variance over replicates against the limit
    target = lc.asymptotic_sigma2(PARAMS)
    cfg = lc.BootstrapConfig(l_n=30, N_n=80, B=10, alpha=0.1)
    vals = []
    for seed in range(12):
        traj = lc.simulate(PARAMS, 2000, 1000 + seed)
        fit = lc.theta_hat(traj.counts())
        vals.append(lc.t_star_variance(fit, cfg))
    avg = float(np.mean(vals))
    assert abs(avg - target) / target < 0.30


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def test_interval_contract():
    traj = lc.simulate(PARAMS, 300, 10)
    x = traj.counts()
    cfg = lc.BootstrapConfig(l_n=15, N_n=40, B=800, alpha=0.1)
    with pytest.warns(UserWarning, match="centering bias may dominate"):
        ci = lc.confidence_interval(x, cfg, 77)
    assert ci.lower <= ci.upper
    fit = lc.theta_hat(x)
    assert ci.theta_hat == fit.theta_hat
    hw = ci.u_star / (math.sqrt(fit.n) * math.log(fit.n))
    assert ci.half_width == pytest.approx(hw, rel=1e-12)
    assert ci.lower == pytest.approx(fit.theta_hat - hw, rel=1e-12)


def test_interval_memory_does_not_grow_with_b():
    # the multiplier paths stream in row blocks: O(n) memory, not O(B n)
    x = np.random.default_rng(2).poisson(3.0 + np.log1p(np.arange(20_000)))
    peaks = []
    for B in (400, 1600):
        cfg = lc.BootstrapConfig(l_n=5, N_n=10, B=B, alpha=0.1)
        tracemalloc.start()
        try:
            lc.confidence_interval(x, cfg, master_seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) < 64.0
    assert max(peaks) <= 1.1 * min(peaks)


def test_interval_holds_one_row_block():
    # the normals block, filtered in place by one solve: no second block or
    # filtered copy beside it
    n = 20_000
    x = np.random.default_rng(2).poisson(3.0 + np.log1p(np.arange(n)))
    rows = max(16, bootstrap.BLOCK_ELEMENTS // n // 16 * 16)
    cfg = lc.BootstrapConfig(l_n=5, N_n=10, B=400, alpha=0.1)
    tracemalloc.start()
    try:
        lc.confidence_interval(x, cfg, master_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * rows * n * 8


def test_interval_nesting_in_alpha():
    traj = lc.simulate(PARAMS, 300, 11)
    x = traj.counts()
    with pytest.warns(UserWarning, match="centering bias may dominate"):
        wide = lc.confidence_interval(x, lc.BootstrapConfig(l_n=15, N_n=40, B=800, alpha=0.05), 5)
    with pytest.warns(UserWarning, match="centering bias may dominate"):
        narrow = lc.confidence_interval(x, lc.BootstrapConfig(l_n=15, N_n=40, B=800, alpha=0.10), 5)
    assert wide.lower <= narrow.lower and narrow.upper <= wide.upper


def test_interval_constant_series_zero_width():
    x = np.full(100, 3)
    cfg = lc.BootstrapConfig(l_n=10, N_n=10, B=400, alpha=0.1)
    with pytest.warns(UserWarning, match="l_n=10 >= N_n=10"), \
            pytest.warns(UserWarning, match="centering bias may dominate"):
        ci = lc.confidence_interval(x, cfg, 1)
    assert ci.lower == ci.upper == ci.theta_hat


def test_interval_degenerate_draws():
    from logcount.bootstrap import _interval_from_draws

    fit = lc.theta_hat(np.arange(500))
    ci = _interval_from_draws(fit, np.full(100, 2.0), 0.1)
    assert ci.u_star == 2.0
    assert ci.half_width == pytest.approx(2.0 / (math.sqrt(500) * math.log(500)))


# ---------------------------------------------------------------------------
# the exact order statistic: adjoint draws, a rounding margin, replayed blocks
# ---------------------------------------------------------------------------

def _interval_bits(ci):
    return tuple(float(v).hex() for v in dataclasses.astuple(ci))


def _forward_interval(x, cfg, seed):
    """The interval that the forward draws of confidence_interval's stream give."""
    fit = lc.theta_hat(x)
    rng = bootstrap._rng.stream(seed, bootstrap._rng.NS_BOOT)
    return bootstrap._interval_from_draws(fit, t_star(fit, cfg, rng, cfg.B), cfg.alpha)


def _filtered_blocks(monkeypatch):
    """Wrap _ar1_filter; returns the list of the row counts it filters, in order."""
    rows = []
    ar1_filter = bootstrap._ar1_filter

    def counting(eps, l_n):
        rows.append(len(eps))
        return ar1_filter(eps, l_n)

    monkeypatch.setattr(bootstrap, "_ar1_filter", counting)
    return rows


def _captured_near_rows(monkeypatch):
    """Wrap _near_rows; returns the list of its (draws, rank, margin, rows), in order."""
    seen = []
    near_rows = bootstrap._near_rows

    def capture(draws, rank, margin):
        seen.append((draws.copy(), rank, margin, near_rows(draws, rank, margin)))
        return seen[-1][-1]

    monkeypatch.setattr(bootstrap, "_near_rows", capture)
    return seen


@pytest.mark.parametrize("l_n", [1e-3, 0.5, 10.0, 1e8])
@pytest.mark.parametrize("n", [2, 3, 60, 1000, 20_000])
def test_interval_has_the_bits_of_the_forward_draws(n, l_n):
    # u*, lower, upper and half_width of every (B, alpha), against
    # _interval_from_draws on the forward draws of the same stream; at
    # n = 20000 a block holds 48 rows, so B = 200 ends on a short block
    for seed in (0, 7):
        x = lc.simulate(PARAMS, n, 40 + seed).counts()
        fit = lc.theta_hat(x)
        for B in (1, 2, 15, 16, 17, 200):
            rng = bootstrap._rng.stream(seed, bootstrap._rng.NS_BOOT)
            forward = t_star(fit, lc.BootstrapConfig(l_n=l_n, N_n=5, B=B, alpha=0.1), rng, B)
            for alpha in (0.5, 0.1, 0.01):
                cfg = lc.BootstrapConfig(l_n=l_n, N_n=5, B=B, alpha=alpha)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # low B, regime
                    got = lc.confidence_interval(x, cfg, seed)
                want = bootstrap._interval_from_draws(fit, forward, alpha)
                assert _interval_bits(got) == _interval_bits(want)


def test_constant_series_replays_every_block(monkeypatch):
    # every draw is 0, so the cluster is every row: each block is drawn again
    # and filtered forward, and u* is the forward draws' 0
    n, B = 20_000, 200
    x = np.full(n, 5)
    cfg = lc.BootstrapConfig(l_n=2.0, N_n=5, B=B, alpha=0.1)
    filtered = _filtered_blocks(monkeypatch)
    seen = _captured_near_rows(monkeypatch)
    ci = lc.confidence_interval(x, cfg, 3)
    assert np.all(seen[0][0] == 0.0) and len(seen[0][-1]) == B
    assert filtered == [48, 48, 48, 48, 8]
    assert ci.u_star == 0.0 and ci.lower == ci.upper == ci.theta_hat
    assert _interval_bits(ci) == _interval_bits(_forward_interval(x, cfg, 3))


@pytest.mark.parametrize("margin_sd", [math.inf, 0.05])
def test_multi_row_cluster_keeps_the_forward_bits(monkeypatch, margin_sd):
    # a margin wider than the proven one is still a bound: at inf every row
    # is one cluster, at 0.05 sd a few rows around the rank-th in more than
    # one block; either way u* is the forward draws'
    n, B = 20_000, 200
    x = lc.simulate(PARAMS, n, 4).counts()
    cfg = lc.BootstrapConfig(l_n=2.0, N_n=5, B=B, alpha=0.1)
    sd = math.sqrt(lc.t_star_variance(lc.theta_hat(x), cfg))
    monkeypatch.setattr(bootstrap, "_adjoint_margin",
                        lambda n, big, h1, d1: np.full(len(h1), margin_sd * sd))
    filtered = _filtered_blocks(monkeypatch)
    seen = _captured_near_rows(monkeypatch)
    ci = lc.confidence_interval(x, cfg, 9)
    rows = seen[0][-1]
    blocks = np.unique(rows // 48)
    assert len(filtered) == len(blocks) > 1
    assert len(rows) == B if margin_sd == math.inf else 1 < len(rows) < B
    assert _interval_bits(ci) == _interval_bits(_forward_interval(x, cfg, 9))


def test_long_series_interval_filters_at_most_one_block(monkeypatch):
    # the benchmark's ci config: 13 blocks of 16 rows at n = 1e5, of which only
    # the one that holds the rank-th draw is filtered forward
    n = 100_000
    x = lc.simulate(lc.ModelParams(a=0.1, b=0.1, c=0.5, innovation=EXP), n, 0).counts()
    cfg = lc.BootstrapConfig(l_n=10.0, N_n=30, B=200, alpha=0.1)
    filtered = _filtered_blocks(monkeypatch)
    ci = lc.confidence_interval(x, cfg, 0)
    assert len(filtered) <= 1
    assert _interval_bits(ci) == _interval_bits(_forward_interval(x, cfg, 0))


SUMMAND_SCALES = {
    "unit": lambda n: 1.0,
    "subnormal": lambda n: 1e-310,
    "mixed": lambda n: 10.0 ** np.random.default_rng(n).uniform(-330.0, 0.0, n),
}


@pytest.mark.parametrize("scale", SUMMAND_SCALES.values(), ids=SUMMAND_SCALES.keys())
@pytest.mark.parametrize("n, l_n", [(2, 1e-3), (3, 1e8), (60, 0.5), (1000, 10.0),
                                    (20_000, 1e8), (20_000, 10.0)])
def test_adjoint_draws_lie_within_their_margin_of_the_forward_draws(n, l_n, scale):
    # the margin is a proven bound, so it holds on every row of every look
    # before the replay: summands of unit size, summands whose products
    # underflow, and both in one row
    B = 200
    d = scale(n) * np.random.default_rng(n + 1).standard_normal(n)
    looks = _looks(d, l_n, B, np.random.default_rng(8), 100)
    forward = forward_draws(d, l_n, B, np.random.default_rng(8))
    assert len(looks[-2][0]) == B
    for adjoint, margin in looks[:-1]:
        assert np.all(np.abs(adjoint - forward[:len(adjoint)]) <= margin)


def test_low_b_warns():
    x = lc.simulate(PARAMS, 120, 3).counts()
    cfg = lc.BootstrapConfig(l_n=5, N_n=30, B=150, alpha=0.1)
    with pytest.warns(UserWarning, match="bootstrap draws"), \
            pytest.warns(UserWarning, match="centering bias may dominate"):
        lc.confidence_interval(x, cfg, 2)


def test_ci_width_shrinks_at_root_n_log_rate():
    # fixed conditional quantile: doubling n rescales the half-width by
    # 1/(sqrt(2) ln(2n)/ln(n)) modulo sampling noise
    # (l_n, N_n) = (2, 5) keeps l_n*N_n*ln(n)^2/n below 1 at both sizes, where that premise
    # holds; it is asserted, not assumed (out-of-regime centering: ROADMAP item 4)
    cfg = lc.BootstrapConfig(l_n=2, N_n=5, B=2000, alpha=0.1)
    assert not cfg.regime_warnings(500) and not cfg.regime_warnings(1000)
    hw = {}
    for n in (500, 1000):
        vals = [lc.confidence_interval(lc.simulate(PARAMS, n, 100 + s).counts(), cfg, s).half_width
                for s in range(8)]
        hw[n] = float(np.mean(vals))
    expected = 1.0 / (math.sqrt(2.0) * math.log(1000) / math.log(500))
    assert hw[1000] / hw[500] == pytest.approx(expected, rel=0.15)


# ---------------------------------------------------------------------------
# coverage machinery
# ---------------------------------------------------------------------------

def test_coverage_experiment_small_run():
    rows = lc.coverage_experiment(PARAMS, 120, cells=[(8.0, 20)], alphas=[0.1, 0.05],
                                  mc_loops=150, B=300, master_seed=99,
                                  theta_bar_loops=2000)
    by_alpha = {r.alpha: r.coverage for r in rows}
    assert set(by_alpha) == {0.1, 0.05}
    # nested intervals make per-cell coverage monotone in the level
    assert by_alpha[0.05] >= by_alpha[0.1]
    assert all(0.5 <= r.coverage <= 1.0 for r in rows)


@pytest.mark.parametrize("cells,alphas", [([], [0.1]), ([(8.0, 20)], [])])
def test_coverage_experiment_with_nothing_to_cover_runs_nothing(monkeypatch, cells, alphas):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated for an empty grid")

    monkeypatch.setattr(bootstrap, "theta_bar_mc", no_simulation)
    monkeypatch.setattr(bootstrap, "simulate_replicate_block", no_simulation)
    with pytest.raises(ConfigError, match="at least one"):
        lc.coverage_experiment(PARAMS, 120, cells=cells, alphas=alphas, mc_loops=150, B=300,
                               master_seed=99, theta_bar_loops=2000)


def test_coverage_thread_invariance(monkeypatch):
    chunks = []
    run_chunks = bootstrap._rng.run_chunks

    def counting(worker, n_items, threads=1, chunk=bootstrap._rng.CHUNK):
        parts = run_chunks(worker, n_items, threads, chunk)
        if getattr(worker, "func", None) is bootstrap._coverage_chunk:
            chunks.append(len(parts))
        return parts

    monkeypatch.setattr(bootstrap._rng, "run_chunks", counting)
    kw = dict(cells=[(8.0, 20)], alphas=[0.1], mc_loops=120, B=200,
              master_seed=3, theta_bar_loops=1500)
    r1 = lc.coverage_experiment(PARAMS, 100, threads=1, **kw)
    r2 = lc.coverage_experiment(PARAMS, 100, threads=3, **kw)
    assert [c.coverage for c in r1] == [c.coverage for c in r2]
    assert chunks == [1, 3]  # the loops ran in workers, not inline
