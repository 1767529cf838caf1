"""Benchmark worker: one interpreter that runs CLI operations on request.

Start-up imports ``logcount.cli`` and computes the innovation constants the
workload needs; the time until the ``ready`` line is the workload's set-up
time.  Requests and replies are JSON lines on stdin/stdout; everything the
CLI itself prints goes to stderr.  The parent enforces time limits by killing
this process group, after asking for a stack dump with SIGUSR1.

Usage (from the repository root): python3 perfbench/worker.py '<options json>'
"""
from __future__ import annotations

import faulthandler
import json
import os
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _PoolLog:
    """Worker processes started by the package's process pools."""

    def __init__(self):
        self.spawned: list[int] = []

    def install(self, rng_module):
        log = self
        base = getattr(rng_module, "ProcessPoolExecutor", None)
        if base is None:
            return

        class CountingPool(base):
            def shutdown(self, *args, **kwargs):
                log.spawned.append(len(getattr(self, "_processes", None) or {}))
                return super().shutdown(*args, **kwargs)

        rng_module.ProcessPoolExecutor = CountingPool


def _library_rows(command: str, cfg: dict, seed: int) -> list:
    """The rows a command computes, from the library calls it makes."""
    from logcount import rng
    from logcount.bootstrap import coverage_experiment
    from logcount.innovations import innovation_from_json, tv_bound_check
    from logcount.process import ModelParams

    rows = []
    if command == "coverage":
        cells = [(float(l), int(w)) for l, w in cfg["cells"]]
        alphas = [float(a) for a in cfg["alphas"]]
        for fi, obj in enumerate(cfg["innovations"]):
            innov = innovation_from_json(obj)
            params = ModelParams(a=float(cfg["a"]), b=float(cfg["b"]), c=float(cfg["c"]),
                                 innovation=innov, sigma0=float(cfg.get("sigma0", 1.0)))
            res = coverage_experiment(
                params, int(cfg["n"]), cells, alphas, mc_loops=int(cfg["mc_loops"]),
                B=int(cfg["B"]), master_seed=rng.derive_seed(seed, rng.NS_SIM, fi),
                theta_bar_loops=int(cfg.get("theta_bar_loops", 20_000)), threads=1)
            rows.extend([c.l_n, c.N_n, innov.family, c.alpha, c.coverage, c.mc_loops, c.B]
                        for c in res)
    elif command == "tv-check":
        for obj in cfg["innovations"]:
            spec = innovation_from_json(obj)
            report = tv_bound_check(spec, [float(s) for s in cfg["sigmas"]])
            rows.extend([spec.family, r.sigma, r.sigma_prime, r.tv, r.bound, r.slack]
                        for r in report.rows)
    else:
        raise ValueError(f"no library reference for {command!r}")
    return [[v if isinstance(v, str) else float(v) for v in row] for row in rows]


def _run_op(cli, argv, tracer, pools) -> dict:
    pools.spawned.clear()
    code, raised = None, None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        raised = traceback.format_exc()
    elapsed = time.perf_counter() - start
    return {"code": code, "raised": raised, "elapsed_s": elapsed,
            "workers": max(pools.spawned, default=1),
            "trace": tracer.drain() if tracer else None}


def main() -> int:
    opts = json.loads(sys.argv[1])
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # anything printed by the CLI goes to the log, not the protocol
    sys.stdout = sys.stderr
    faulthandler.register(signal.SIGUSR1, file=sys.__stderr__, all_threads=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import logcount.cli as cli
    from logcount import rng
    from logcount.innovations import compute_constants, innovation_from_json

    for obj in opts.get("innovations", []):
        compute_constants(innovation_from_json(obj))
    pools = _PoolLog()
    pools.install(rng)
    tracer = None
    if opts.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    proto.write(json.dumps({"ready": True, "trace_missing": tracer.missing if tracer else []}) + "\n")

    for line in sys.stdin:
        req = json.loads(line)
        if req["cmd"] == "op":
            reply = _run_op(cli, req["argv"], tracer, pools)
        elif req["cmd"] == "library":
            try:
                reply = {"rows": _library_rows(req["command"], req["config"], req["seed"])}
            except Exception:
                reply = {"error": traceback.format_exc()}
        else:
            reply = {"error": f"unknown request {req['cmd']!r}"}
        proto.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
