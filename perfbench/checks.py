"""Output parsing, exact digests, the benchmark's own inputs and the checks
that do not rely on the code under test.

Every check returns a list of problems; an empty list means the output
passed.  Digests hash the parsed numbers (floats by their shortest
round-trip repr), so any change of a result shows while a change of text
formatting alone does not.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
from statistics import NormalDist

import numpy as np
from scipy.signal import lfilter

HEADER_META = {"logcount-output", "command", "master_seed", "config_sha256", "config"}
# numpy 2 prints header summary values as np.float64(<repr>)
_NP_FLOAT = re.compile(r"np\.float64\(([^()]*)\)")


def config_sha256(cfg: dict) -> str:
    """The hash the CLI prints: SHA-256 of the canonical config JSON."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def digest(content) -> str:
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _number(v):
    return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v


def read_csv(path: str) -> dict:
    """Header comments, column names and rows of a CLI CSV output."""
    meta, extra, columns, rows = {}, {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                if key in HEADER_META:
                    meta[key] = value
                else:
                    extra[key] = _NP_FLOAT.sub(r"\1", value)
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append([_cell(c) for c in line.split(",")])
    return {"meta": meta, "content": {"columns": columns, "rows": rows, "extra": extra}}


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    result = {k: _number(v) for k, v in payload["result"].items()}
    meta = {"master_seed": str(payload["master_seed"]),
            "config_sha256": payload["config_sha256"]}
    return {"meta": meta, "content": {"result": result}}


def read_output(command: str, root, out: str, cfg: dict) -> dict:
    """Parsed output of one operation; ``fit`` also carries its curve file.

    ``out`` and the paths in ``cfg`` are relative to ``root``."""
    if command in ("fit", "ci", "constants"):
        parsed = read_json(os.path.join(root, out))
        if command == "fit" and "curve_out" in cfg:
            parsed["curve"] = read_csv(os.path.join(root, cfg["curve_out"]))
            parsed["content"]["curve"] = parsed["curve"]["content"]
        return parsed
    return read_csv(os.path.join(root, out))


def library_content(command: str, rows: list) -> dict:
    columns = {"coverage": ["l_n", "N_n", "family", "alpha", "coverage", "mc_loops", "B"],
               "tv-check": ["family", "sigma", "sigma_prime", "tv", "bound", "slack"]}[command]
    return {"columns": columns, "rows": rows, "extra": {}}


# ---------------------------------------------------------------------------
# the benchmark's own input generator
# ---------------------------------------------------------------------------

def long_series_counts(seed: int, n: int, a: float, b: float, c: float) -> np.ndarray:
    """Counts X_1..X_n of the log-linear model with exponential innovations.

    Written independently of ``logcount`` and drawn from its own stream, so a
    change to the package's simulator cannot change the inputs of ``fit`` and
    ``ci``.
    """
    y = np.random.default_rng([seed, 0x5EED]).standard_exponential(n + 1)
    x = np.empty(n + 1)
    log_s = 0.0
    x[0] = math.floor(y[0])
    for t in range(1, n + 1):
        log_s = a * log_s + b * math.log1p(x[t - 1]) + c * math.log(t)
        x[t] = math.floor(math.exp(log_s) * y[t])
    return x[1:]


def write_counts(path: str, x: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x\n")
        fh.write("\n".join(str(int(v)) for v in x))
        fh.write("\n")


# ---------------------------------------------------------------------------
# checks independent of the code under test
# ---------------------------------------------------------------------------

def _rel_err(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


def _close(problems, label, got, want, tol):
    err = _rel_err(got, want)
    if not err <= tol:
        problems.append(f"{label}: relative error {err:.3g} > {tol:g}")


def _table(content) -> np.ndarray:
    return np.asarray(content["rows"], dtype=float)


def _ls_theta(x: np.ndarray):
    logt = np.log(np.arange(1, len(x) + 1, dtype=float))
    denom = float(logt @ logt)
    return float(logt @ np.log1p(x)) / denom, denom


def _exponential_model(model: dict) -> bool:
    innov = model["innovation"]
    return innov.get("family") == "exponential" and set(innov) <= {"family", "rate"} \
        and "exogenous" not in model and float(model.get("sigma0", 1.0)) == 1.0


def check_simulate(cfg, seed, parsed, ctx) -> list[str]:
    """Recursion identities and ``x_t = floor(sigma_t Y_t)`` with the
    documented stream ``default_rng(SeedSequence([seed]))``."""
    problems = []
    model = cfg["model"]
    if not _exponential_model(model):
        return problems
    tab = _table(parsed["content"])
    n = int(cfg["n"])
    if tab.shape != (n + 1, 4):
        return [f"table shape {tab.shape}, expected {(n + 1, 4)}"]
    t, sigma, x, c_exo = tab.T
    a, b, c = float(model["a"]), float(model["b"]), float(model["c"])
    if not np.array_equal(t, np.arange(n + 1)):
        problems.append("time column is not 0..n")
    log_pred = a * np.log(sigma[:-1]) + b * np.log1p(x[:-1]) + c * np.log(t[1:])
    err = np.abs(np.log(sigma[1:]) - log_pred) / np.maximum(np.abs(log_pred), 1.0)
    if sigma[0] != 1.0 or not float(err.max()) <= 1e-12:
        problems.append(f"intensity recursion off by {float(err.max()):.3g}")
    _close(problems, "c_exo", c_exo[1:], c * np.log(t[1:]), 1e-12)
    u = np.random.default_rng(np.random.SeedSequence([seed])).random(n + 1)
    prod = sigma * (-np.log1p(-u) / float(model["innovation"].get("rate", 1.0)))
    bad = (x != np.floor(prod)) & (np.abs(prod - np.round(prod)) > 1e-9 * np.maximum(prod, 1.0))
    if bad.any():
        problems.append(f"{int(bad.sum())} counts differ from floor(sigma*Y)")
    return problems


def check_fit(cfg, seed, parsed, ctx) -> list[str]:
    problems = []
    x = ctx["counts"]
    res = parsed["content"]["result"]
    theta, denom = _ls_theta(x)
    n = len(x)
    if res.get("n") != n:
        problems.append(f"n={res.get('n')}, expected {n}")
    _close(problems, "theta_hat", res["theta_hat"], theta, 1e-12)
    _close(problems, "weights_denominator", res["weights_denominator"], denom, 1e-12)
    if "model" in cfg and _exponential_model(cfg["model"]):
        a, b = float(cfg["model"]["a"]), float(cfg["model"]["b"])
        # Var(ln Y) = pi^2/6 for any exponential law
        want = math.pi ** 2 / 6.0 * (1.0 - a) ** 2 / (1.0 - a - b) ** 2
        _close(problems, "sigma2_asymptotic", res["sigma2_asymptotic"], want, 1e-8)
    if "theta_bar" in cfg:
        want = math.sqrt(n) * math.log(n) * (theta - float(cfg["theta_bar"]))
        if not abs(res["t_statistic"] - want) <= 1e-9 * max(abs(want), 1.0):
            problems.append(f"t_statistic {res['t_statistic']!r}, expected {want!r}")
    if "curve" in parsed:
        tab = _table(parsed["curve"]["content"])
        if tab.shape != (n, 3) or not np.array_equal(tab[:, 1], x):
            problems.append("curve table does not reproduce the input counts")
        else:
            _close(problems, "curve trend", tab[:, 2], tab[:, 0] ** res["theta_hat"], 1e-12)
    return problems


def bootstrap_variance(x: np.ndarray, l_n: float, window: int) -> float:
    """d' Sigma d with Sigma_st = exp(-|s-t|/l_n), in one O(n) pass.

    d_t = sqrt(n) ln(n) ln(t) / sum ln(s)^2 * (ln(1+x_t) - local mean over
    |s-t| <= window); the quadratic form is sum d_t^2 + 2 sum_t d_t g_t with
    g_t = rho (g_{t-1} + d_{t-1}).
    """
    n = len(x)
    lx = np.log1p(x)
    csum = np.concatenate(([0.0], np.cumsum(lx - lx[0])))
    t = np.arange(1, n + 1)
    lo, hi = np.maximum(1, t - window), np.minimum(n, t + window)
    local = lx[0] + (csum[hi] - csum[lo - 1]) / (hi - lo + 1)
    logt = np.log(t.astype(float))
    d = math.sqrt(n) * math.log(n) * logt / float(logt @ logt) * (lx - local)
    rho = math.exp(-1.0 / l_n)
    g = lfilter([0.0, rho], [1.0, -rho], d)
    return float(d @ d + 2.0 * (d @ g))


def check_ci(cfg, seed, parsed, ctx) -> list[str]:
    """u* against the exact Gaussian quantile z_{1-alpha/2} sqrt(d' Sigma d).

    Given the data, each bootstrap draw is N(0, d' Sigma d); u* is an order
    statistic of B draws, whose standard error is sqrt(p(1-p)/B)/phi(z_p)
    times sqrt(d' Sigma d).  Five standard errors are allowed.
    """
    problems = []
    x = ctx["counts"]
    res = parsed["content"]["result"]
    boot = cfg["bootstrap"]
    alpha, B = float(boot["alpha"]), int(boot["B"])
    n = len(x)
    theta, _ = _ls_theta(x)
    _close(problems, "theta_hat", res["theta_hat"], theta, 1e-12)
    sd = math.sqrt(bootstrap_variance(x, float(boot["l_n"]), int(boot["N_n"])))
    p = 1.0 - alpha / 2.0
    z = NormalDist().inv_cdf(p)
    tol = 5.0 * math.sqrt(p * (1.0 - p) / B) / NormalDist().pdf(z) * sd
    if not abs(res["u_star"] - z * sd) <= tol:
        problems.append(f"u_star {res['u_star']!r} vs exact {z * sd!r} (+-{tol:.3g})")
    hw = res["u_star"] / (math.sqrt(n) * math.log(n))
    _close(problems, "half_width", res["half_width"], hw, 1e-12)
    _close(problems, "lower", res["lower"], res["theta_hat"] - hw, 1e-12)
    _close(problems, "upper", res["upper"], res["theta_hat"] + hw, 1e-12)
    if res.get("level") != 1.0 - alpha or res.get("n") != n:
        problems.append("level or n do not match the config")
    return problems


def check_mc_boxplot(cfg, seed, parsed, ctx) -> list[str]:
    """Summary lines against the rows; theta_bar against the rows' mean."""
    problems = []
    content = parsed["content"]
    tab = _table(content)
    ns = cfg["n"] if isinstance(cfg["n"], list) else [cfg["n"]]
    reps = int(cfg["replicates"])
    loops = int(cfg.get("theta_bar_loops", 20_000))
    for n in ns:
        th = tab[tab[:, 0] == n, 2]
        if len(th) != reps or not np.array_equal(tab[tab[:, 0] == n, 1], np.arange(reps)):
            problems.append(f"n={n}: expected replicates 0..{reps - 1}")
            continue
        line = content["extra"].get(f"summary_n{n}", "")
        summary = dict(kv.split("=", 1) for kv in line.split())
        q1, med, q3 = np.percentile(th, [25, 50, 75])
        want = {"q1": q1, "median": med, "q3": q3,
                "whisker_low": th[th >= q1 - 1.5 * (q3 - q1)].min(),
                "whisker_high": th[th <= q3 + 1.5 * (q3 - q1)].max()}
        for key, val in want.items():
            if summary.get(key) is None or float(summary[key]) != float(val):
                problems.append(f"n={n}: {key} {summary.get(key)} != {float(val)!r}")
        se = float(th.std(ddof=1)) * math.sqrt(1.0 / reps + 1.0 / loops)
        tb = float(summary.get("theta_bar", "nan"))
        if not abs(tb - th.mean()) <= 5.0 * se:
            problems.append(f"n={n}: theta_bar {tb!r} far from replicate mean {th.mean()!r}")
    return problems


def check_mixing(cfg, seed, parsed, ctx) -> list[str]:
    problems = []
    content = parsed["content"]
    tab = _table(content)
    reps = int(cfg["replicates"])
    n_max = int(cfg["n_max"])
    if tab.shape != (n_max, 5) or not np.array_equal(tab[:, 0], np.arange(1, n_max + 1)):
        return [f"table shape {tab.shape} or horizons differ from 1..{n_max}"]
    beta, se = tab[:, 1], tab[:, 2]
    hits = beta * reps
    if np.any(beta < 0) or np.any(beta > 1) or np.any(np.abs(hits - np.round(hits)) > 1e-6):
        problems.append("beta_hat is not a fraction of the replicates")
    _close(problems, "stderr", se, np.sqrt(beta * (1.0 - beta) / reps), 1e-12)
    extra = content["extra"]
    for key, want in (("replicates", reps), ("k", int(cfg["k"])), ("R", int(cfg.get("R", 50)))):
        if extra.get(key) != str(want):
            problems.append(f"header {key}={extra.get(key)}, expected {want}")
    return problems


def check_coverage(cfg, seed, parsed, ctx) -> list[str]:
    loops = int(cfg["mc_loops"])
    cov = np.asarray([row[4] for row in parsed["content"]["rows"]], dtype=float)
    expected = len(cfg["innovations"]) * len(cfg["cells"]) * len(cfg["alphas"])
    if len(cov) != expected or np.any(np.abs(cov * loops - np.round(cov * loops)) > 1e-6):
        return ["coverage rows are not fractions of mc_loops"]
    return []


def check_tv(cfg, seed, parsed, ctx) -> list[str]:
    rows = parsed["content"]["rows"]
    bad = [r for r in rows if not (0.0 <= r[3] <= 1.0 and r[3] <= r[4] + 1e-9
                                   and abs(r[5] - (r[4] - r[3])) <= 1e-12)]
    return [f"{len(bad)} rows break tv <= bound or slack = bound - tv"] if bad else []


INDEPENDENT = {
    "simulate": check_simulate,
    "fit": check_fit,
    "ci": check_ci,
    "mc-boxplot": check_mc_boxplot,
    "mixing": check_mixing,
    "coverage": check_coverage,
    "tv-check": check_tv,
}
