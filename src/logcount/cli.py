"""Command-line harness: configuration, ingestion, experiments, plot data.

Each command declares its config keys in ``_COMMANDS`` and returns one
result: a JSON object, or the columns of a CSV.  ``main`` reads and checks
the single JSON config, derives all randomness from one master seed, and
writes the result stamped with the seed and a hash of the canonical config,
so a run can be reproduced byte-for-byte from its own header.
``--threads`` (at least 1) only changes how replicate chunks are scheduled;
results are identical for any value.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__, rng as _rng
from .bootstrap import BootstrapConfig, confidence_interval, coverage_experiment
from .coupling import estimate_beta
from .errors import ConfigError, DataError, NumericError
from .estimation import (THETA_BAR_LOOPS, asymptotic_sigma2, ensemble_theta_hats, t_statistic,
                         theta_bar_mc, theta_hat)
from .innovations import compute_constants, innovation_from_json, tv_bound_check
from .process import ExogenousSpec, ModelParams, simulate

SCHEMA = "logcount/v1"

# Rows formatted and written at a time by _write_csv.
CSV_BLOCK_ROWS = 4096


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: Optional[str]) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    schema = cfg.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ConfigError(f"unsupported config schema {schema!r}; expected {SCHEMA!r}")
    return cfg


def _require_keys(cfg: dict, required: set[str], optional: set[str], where: str):
    keys = set(cfg)
    missing = required - keys
    unknown = keys - required - optional - {"schema", "seed"}
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _cast(convert, value, what: str):
    """``convert(value)`` for a config value; a failed conversion is a ConfigError."""
    try:
        return convert(value)
    except ConfigError:  # a ValueError too; keep the constructor's own message
        raise
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"invalid {what}: {value!r}") from None


def _int(value) -> int:
    """``int(value)``, except that a bool or a number with a fraction is an error."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _array(value) -> list:
    """``value`` if it is a non-empty JSON array; a string would otherwise
    iterate by character, and an empty list would run nothing."""
    if not isinstance(value, list):
        raise TypeError("expected a JSON array")
    if not value:
        raise ValueError("expected a non-empty JSON array")
    return value


def _model_from_config(obj) -> ModelParams:
    if not isinstance(obj, dict):
        raise ConfigError("'model' must be an object")
    _require_keys(obj, {"a", "b", "c", "innovation"}, {"sigma0", "exogenous"}, "model")
    exo = obj.get("exogenous", {"kind": "trend"})
    if not isinstance(exo, dict) or "kind" not in exo:
        raise ConfigError("'exogenous' must be an object with a 'kind' key")
    exo_spec = _cast(lambda e: ExogenousSpec(**{k: v if k in ("kind", "family") else float(v)
                                                for k, v in e.items()}), exo, "'exogenous'")
    return ModelParams(
        a=_cast(float, obj["a"], "model 'a'"),
        b=_cast(float, obj["b"], "model 'b'"),
        c=_cast(float, obj["c"], "model 'c'"),
        innovation=innovation_from_json(obj["innovation"]),
        sigma0=_cast(float, obj.get("sigma0", 1.0), "model 'sigma0'"),
        exogenous=exo_spec,
    )


def _config_digest(cfg: dict) -> tuple[str, str]:
    """Canonical JSON of a config and its SHA-256 hex digest."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return canon, hashlib.sha256(canon.encode()).hexdigest()


def _seed_of(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    seed = cfg.get("seed", 0)
    if type(seed) is not int or seed < 0:  # a bool is not a seed
        raise ConfigError("config 'seed' must be a non-negative integer")
    return seed


def _header_lines(command: str, seed: int, cfg: dict, extra: Optional[dict] = None) -> list[str]:
    canon, digest = _config_digest(cfg)
    lines = [
        f"# logcount-output: {SCHEMA}",
        f"# command: {command}",
        f"# master_seed: {seed}",
        f"# config_sha256: {digest}",
        f"# config: {canon}",
    ]
    for k, v in (extra or {}).items():
        lines.append(f"# {k}: {v}")
    return lines


@contextlib.contextmanager
def _output(path: Optional[str]):
    """A text handle on ``path``, or stdout when no path is given."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc.strerror}") from None
    with fh:
        yield fh


def _fmt_column(col) -> list[str]:
    """Each entry of a homogeneous column as text: strings as they are, integers
    in full, and floats by ``repr`` unless integral and below 2**53 in size."""
    col = np.asarray(col)
    if col.dtype.kind == "U":
        return col.tolist()
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    f = col.astype(float, copy=False)
    whole = np.isfinite(f) & (np.abs(f) < 2**53) & (f == np.trunc(f))
    out = np.empty(len(f), dtype=object)
    out[whole] = list(map(str, f[whole].astype(np.int64).tolist()))
    out[~whole] = list(map(repr, f[~whole].tolist()))
    return out.tolist()


def _write_csv(path: Optional[str], header_lines: list[str], names: list[str], columns):
    """Write a CSV from equal-length columns (arrays or sequences).

    Rows go out in blocks of ``CSV_BLOCK_ROWS``: each block is formatted
    column by column with ``_fmt_column`` and written to the handle, so no
    whole-file string and no full-length string column is built, and the
    bytes never depend on the block size.
    """
    n_rows = len(columns[0]) if columns else 0
    with _output(path) as fh:
        fh.write("\n".join([*header_lines, ",".join(names)]) + "\n")
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [_fmt_column(col[lo:lo + CSV_BLOCK_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _write_json(path: Optional[str], command: str, seed: int, cfg: dict, result: dict):
    payload = {
        "schema": SCHEMA,
        "command": command,
        "master_seed": seed,
        "config_sha256": _config_digest(cfg)[1],
        "config": cfg,
        "result": result,
    }
    with _output(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_counts(path: str) -> np.ndarray:
    """One count per row; optional single header line; comments allowed.

    Rows are the file's lines after universal-newline decoding, split at line
    feeds only: ``splitlines`` would also split at form feeds and other
    separators and shift the row numbers.  An error names the first
    offending row in file order.
    """
    try:
        # undecodable bytes become U+FFFD and fail as non-numeric rows
        fh = open(_cast(os.fspath, path, "'data'"), "r", encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise DataError(f"cannot read data file {path}: {exc.strerror}") from None
    with fh:
        lines = list(map(str.strip, fh.read().split("\n")))
    kept = [bool(line) and line[0] != "#" for line in lines]
    texts = list(itertools.compress(lines, kept))
    header = int(bool(texts) and not _is_number(texts[0]))  # single leading header row
    texts = texts[header:]
    try:
        values = np.fromiter(map(float, texts), dtype=float, count=len(texts))
        bad_at = None
    except ValueError:
        bad_at = next(i for i, text in enumerate(texts) if not _is_number(text))
        values = np.array([float(text) for text in texts[:bad_at]], dtype=float)
    # a bad count before the first row that is not a number is reported first
    bad = (values < 0) | ~np.isfinite(values) | (values != np.floor(values))
    if bad.any() or bad_at is not None:
        i = int(np.argmax(bad)) if bad.any() else bad_at
        lineno = int(np.flatnonzero(kept)[header + i]) + 1
        if i == bad_at:
            raise DataError(f"row {lineno}: not a number: {texts[i]!r}")
        kind = "negative" if values[i] < 0 else "non-integer"
        raise DataError(f"row {lineno}: {kind} count {texts[i]!r}")
    if len(values) < 2:
        raise DataError(f"need at least 2 counts, found {len(values)} in {path}")
    return values


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, seed: int, threads: int):
    params = _model_from_config(cfg["model"])
    n = _cast(_int, cfg["n"], "'n'")
    traj = simulate(params, n, seed)
    fit_info = ""
    if n >= 2:
        fit_info = f", theta_hat={theta_hat(traj.counts()).theta_hat:.6g}"
    print(f"simulate: n={n}, final sigma={traj.sigma[-1]:.6g}, "
          f"max x={int(traj.x.max())}{fit_info}", file=sys.stderr)
    return (["t", "sigma", "x", "c_exo"], [np.arange(n + 1), traj.sigma, traj.x, traj.c_exo],
            None)


def cmd_fit(cfg: dict, seed: int, threads: int):
    x = _read_counts(cfg["data"])
    fit = theta_hat(x)
    result = {"theta_hat": fit.theta_hat, "n": fit.n,
              "weights_denominator": fit.weights_denominator}
    if "model" in cfg:
        params = _model_from_config(cfg["model"])
        result["sigma2_asymptotic"] = asymptotic_sigma2(params)
    if "theta_bar" in cfg:
        result["t_statistic"] = t_statistic(fit, _cast(float, cfg["theta_bar"], "'theta_bar'"))
        if not np.isfinite(result["t_statistic"]):  # JSON has no NaN or infinity
            raise ConfigError(f"'theta_bar' {cfg['theta_bar']!r} gives a t statistic that "
                              "is not finite")
    if "curve_out" in cfg:
        t = np.arange(1, fit.n + 1, dtype=float)
        curve = t ** fit.theta_hat
        _write_csv(_cast(os.fspath, cfg["curve_out"], "'curve_out'"), _header_lines("fit", seed, cfg),
                   ["t", "x", "trend"], [t, x, curve])
        result["curve_out"] = cfg["curve_out"]
    return result


def _bootstrap_from_config(obj) -> BootstrapConfig:
    if not isinstance(obj, dict):
        raise ConfigError("'bootstrap' must be an object")
    _require_keys(obj, {"l_n", "N_n", "B", "alpha"}, set(), "bootstrap config")
    return BootstrapConfig(l_n=_cast(float, obj["l_n"], "bootstrap 'l_n'"),
                           N_n=_cast(_int, obj["N_n"], "bootstrap 'N_n'"),
                           B=_cast(_int, obj["B"], "bootstrap 'B'"),
                           alpha=_cast(float, obj["alpha"], "bootstrap 'alpha'"))


def cmd_ci(cfg: dict, seed: int, threads: int):
    x = _read_counts(cfg["data"])
    bcfg = _bootstrap_from_config(cfg["bootstrap"])
    ci = confidence_interval(x, bcfg, seed)
    return {**dataclasses.asdict(ci), "n": len(x)}


def cmd_mc_boxplot(cfg: dict, seed: int, threads: int):
    params = _model_from_config(cfg["model"])
    n_list = _cast(lambda v: [_int(n) for n in (_array(v) if isinstance(v, list) else [v])],
                   cfg["n"], "'n'")
    if len(set(n_list)) < len(n_list):
        raise ConfigError(f"mc-boxplot needs distinct values of 'n', got {n_list}")
    replicates = _cast(_int, cfg["replicates"], "'replicates'")
    if replicates < 100:
        raise ConfigError(f"mc-boxplot needs at least 100 replicates, got {replicates}")
    tb_loops = _cast(_int, cfg.get("theta_bar_loops", THETA_BAR_LOOPS), "'theta_bar_loops'")
    thetas_by_n = []
    extra = {}
    for ni, n in enumerate(n_list):
        tb = theta_bar_mc(params, n, tb_loops, _rng.derive_seed(seed, _rng.NS_TARGET, ni),
                          threads=threads)
        thetas = ensemble_theta_hats(params, n, replicates, _rng.derive_seed(seed, _rng.NS_SIM, ni),
                                     threads=threads)
        q1, med, q3 = (float(q) for q in np.percentile(thetas, [25, 50, 75]))
        lo_wh = float(thetas[thetas >= q1 - 1.5 * (q3 - q1)].min())
        hi_wh = float(thetas[thetas <= q3 + 1.5 * (q3 - q1)].max())
        extra[f"summary_n{n}"] = (
            f"theta_bar={tb.theta_bar!r} q1={q1!r} median={med!r} q3={q3!r} "
            f"whisker_low={lo_wh!r} whisker_high={hi_wh!r}"
        )
        print(f"mc-boxplot n={n}: theta_bar={tb.theta_bar:.5f} median={med:.5f} "
              f"IQR={q3 - q1:.5f}", file=sys.stderr)
        thetas_by_n.append(thetas)
    return (["n", "replicate", "theta_hat"],
            [np.repeat(np.array(n_list, dtype=np.int64), replicates),
             np.tile(np.arange(replicates), len(n_list)),
             np.concatenate([np.empty(0), *thetas_by_n])],
            extra)


def cmd_mixing(cfg: dict, seed: int, threads: int):
    params = _model_from_config(cfg["model"])
    if "n_grid" in cfg:
        n_grid = _cast(lambda v: [_int(n) for n in _array(v)], cfg["n_grid"], "'n_grid'")
    elif "n_max" in cfg:
        n_grid = list(range(1, _cast(_int, cfg["n_max"], "'n_max'") + 1))
    else:
        raise ConfigError("mixing config needs 'n_grid' or 'n_max'")
    truncation = _cast(_int, cfg.get("R", 50), "'R'")
    res = estimate_beta(params, _cast(_int, cfg["k"], "'k'"), n_grid, truncation,
                        _cast(_int, cfg["replicates"], "'replicates'"), seed, threads=threads)
    slope = res.log_slope()
    print(f"mixing: k={res.k} R={res.truncation} replicates={res.replicates} "
          f"log_slope={slope}", file=sys.stderr)
    extra = {
        "replicates": res.replicates,
        "k": res.k,
        "R": res.truncation,
        "log_slope": "nan" if slope is None else repr(slope),
    }
    return (["n", "beta_hat", "stderr", "theorem_bound", "truncation_bound"],
            [res.horizons, res.beta_hat, res.stderr, res.theorem_bound, res.truncation_bound],
            extra)


def cmd_coverage(cfg: dict, seed: int, threads: int):
    cells = _cast(lambda v: [(float(l), _int(w)) for l, w in map(_array, _array(v))],
                  cfg["cells"], "'cells'")
    alphas = _cast(lambda v: [float(a) for a in _array(v)], cfg["alphas"], "'alphas'")
    model = {k: cfg[k] for k in ("a", "b", "c", "sigma0") if k in cfg}
    rows = []
    for fi, innov_obj in enumerate(_cast(_array, cfg["innovations"], "'innovations'")):
        params = _model_from_config({**model, "innovation": innov_obj})
        res = coverage_experiment(
            params, _cast(_int, cfg["n"], "'n'"), cells, alphas,
            mc_loops=_cast(_int, cfg["mc_loops"], "'mc_loops'"), B=_cast(_int, cfg["B"], "'B'"),
            master_seed=_rng.derive_seed(seed, _rng.NS_SIM, fi),
            theta_bar_loops=_cast(_int, cfg.get("theta_bar_loops", THETA_BAR_LOOPS),
                                  "'theta_bar_loops'"),
            threads=threads,
        )
        rows.extend((c.l_n, c.N_n, params.innovation.family, c.alpha, c.coverage,
                     c.mc_loops, c.B) for c in res)
    return ["l_n", "N_n", "family", "alpha", "coverage", "mc_loops", "B"], list(zip(*rows)), None


def cmd_tv_check(cfg: dict, seed: int, threads: int):
    if "innovations" in cfg:
        innov_objs = _cast(_array, cfg["innovations"], "'innovations'")
    elif "innovation" in cfg:
        innov_objs = [cfg["innovation"]]
    else:
        raise ConfigError("tv-check config needs 'innovation' or 'innovations'")
    sigmas = _cast(lambda v: [float(s) for s in _array(v)], cfg["sigmas"], "'sigmas'")
    rows = []
    for obj in innov_objs:
        spec = innovation_from_json(obj)
        report = tv_bound_check(spec, sigmas)
        rows.extend((spec.family, r.sigma, r.sigma_prime, r.tv, r.bound, r.slack)
                    for r in report.rows)
        print(f"tv-check {spec.family}: pairs={len(report.rows)} "
              f"min_slack={report.min_slack:.3g}", file=sys.stderr)
    return ["family", "sigma", "sigma_prime", "tv", "bound", "slack"], list(zip(*rows)), None


def cmd_constants(cfg: dict, seed: int, threads: int):
    spec = innovation_from_json(cfg["innovation"])
    return {"family": spec.family, "monotone_density": bool(spec.monotone_density),
            **dataclasses.asdict(compute_constants(spec))}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# name -> (command, required config keys, optional config keys)
_COMMANDS = {
    "simulate": (cmd_simulate, {"model", "n"}, set()),
    "fit": (cmd_fit, {"data"}, {"model", "theta_bar", "curve_out"}),
    "ci": (cmd_ci, {"data", "bootstrap"}, set()),
    "mc-boxplot": (cmd_mc_boxplot, {"model", "n", "replicates"}, {"theta_bar_loops"}),
    "mixing": (cmd_mixing, {"model", "k", "replicates"}, {"n_max", "n_grid", "R"}),
    "coverage": (cmd_coverage, {"a", "b", "c", "innovations", "n", "cells", "alphas",
                                "mc_loops", "B"}, {"sigma0", "theta_bar_loops"}),
    "tv-check": (cmd_tv_check, {"sigmas"}, {"innovation", "innovations"}),
    "constants": (cmd_constants, {"innovation"}, set()),
}


def _run(args) -> None:
    """Load and check the config, derive the seed, run the command, write its result."""
    fn, required, optional = _COMMANDS[args.command]
    cfg = _load_config(args.config)
    _require_keys(cfg, required, optional, f"{args.command} config")
    seed = _seed_of(args, cfg)
    out = fn(cfg, seed, args.threads)
    if isinstance(out, dict):
        _write_json(args.out, args.command, seed, cfg, out)
    else:
        names, columns, extra = out
        _write_csv(args.out, _header_lines(args.command, seed, cfg, extra), names, columns)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logcount",
        description="Simulation and inference for explosive log-linear count series.",
    )
    parser.add_argument("--version", action="version", version=f"logcount {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config's 'seed')")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes; affects speed only, never results")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes that fit an array index but not this machine
        print(f"config error: the configured sizes need more memory than is free: {exc}",
              file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
