#!/usr/bin/env python3
"""logcount benchmark: CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper-coverage --seed 0 --seconds 20 --trace 0

Each iteration starts a fresh worker interpreter (its start-up is one
``setup_s`` sample), runs the workload's operations through
``logcount.cli.main`` one after another, checks every output and stops the
worker.  Iterations repeat until ``--seconds`` have passed.  With
``--trace 1`` the iterations alternate between traced and untraced workers,
all at ``--threads 1``, and the per-layer metrics are printed instead.  The
last line of stdout is the JSON result; a record of the run is written under
``.perfbench/records/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

OK_CODES = {0, 2, 3, 4}
MIN_SETUP_SAMPLES = 8
# no iteration starts once it would likely end after this many seconds, so a
# run ends well within three minutes even when operations hit their limits
RUN_BUDGET_S = 150.0
STARTUP_LIMIT_S = 120.0
KNOWN_DEFECTS = [
    ("raised", "could not convert string to float",
     "cli._fmt formats the string 'family' column as a float, so the command "
     "exits 1 after all its computation"),
    ("timeout", "_first_true",
     "coupling._first_true takes floor((lo+hi)/2) in float; once lo+hi > 2**53 "
     "the midpoint rounds to hi and the bisection never ends (half_cauchy, sigma >~ 700)"),
]


class WorkerDied(RuntimeError):
    pass


class Worker:
    """One ``worker.py`` process in its own process group."""

    live: set = set()

    def __init__(self, innovations: list, trace: bool, log_path: Path):
        self.log_path = log_path
        self.maxrss_mb = 0.0
        start = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"),
                 json.dumps({"innovations": innovations, "trace": trace})],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                cwd=ROOT, start_new_session=True)
        Worker.live.add(self)
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        ready = self._next(STARTUP_LIMIT_S)
        if ready is None:
            self.kill()
            raise WorkerDied(f"worker did not start; see {log_path}")
        self.setup_s = time.perf_counter() - start
        self.trace_missing = json.loads(ready).get("trace_missing", [])

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _next(self, timeout):
        try:
            return self.lines.get(timeout=timeout)
        except queue.Empty:
            return None

    def request(self, msg: dict, limit: float):
        """Reply to ``msg``, or (None, reason) once the limit passes."""
        try:
            self.proc.stdin.write((json.dumps(msg) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.kill()
            return None, "worker exited"
        try:
            line = self.lines.get(timeout=limit)
        except queue.Empty:
            os.kill(self.proc.pid, signal.SIGUSR1)  # faulthandler stack dump
            time.sleep(0.5)
            self.kill()
            return None, "timeout"
        if line is None:
            self.kill()
            return None, "worker exited"
        return json.loads(line), None

    @property
    def alive(self) -> bool:
        return self.proc.returncode is None

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._reap()

    def close(self):
        self.proc.stdin.close()
        self._reap()

    def _reap(self):
        if self.proc.returncode is None:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            # ru_maxrss of a reaped child covers the children it reaped
            self.maxrss_mb = usage.ru_maxrss / 1024.0
            self.proc.stdout.close()
            if not self.proc.stdin.closed:
                try:
                    self.proc.stdin.close()
                except BrokenPipeError:
                    pass
        Worker.live.discard(self)


# ---------------------------------------------------------------------------
# workload preparation and references
# ---------------------------------------------------------------------------

def _resolve(obj, work: str):
    if isinstance(obj, str):
        return obj.replace("{work}", work)
    if isinstance(obj, list):
        return [_resolve(v, work) for v in obj]
    if isinstance(obj, dict):
        return {k: _resolve(v, work) for k, v in obj.items()}
    return obj


def prepare(name: str, spec: dict, seed: int):
    """Write the configs and generated inputs; returns (ops, context)."""
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    rel = work.relative_to(ROOT).as_posix()
    ctx = {}
    if "counts" in spec:
        ctx["counts"] = checks.long_series_counts(seed, **spec["counts"])
        checks.write_counts(str(work / "counts.csv"), ctx["counts"])
    ops = []
    for op in spec["ops"]:
        cfg = _resolve(op["config"], rel)
        cfg_path = f"{rel}/{op['name']}.json"
        with open(ROOT / cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1)
        ops.append(dict(op, config=cfg, config_path=cfg_path, out=f"{rel}/{op['name']}.out"))
    return ops, ctx


def op_argv(op: dict, seed: int, threads: int, out: str) -> list:
    return [op["command"], "--config", op["config_path"], "--seed", str(seed),
            "--out", out, "--threads", str(threads)]


def load_references() -> dict:
    path = BENCH / "reference.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(op: dict, seed: int) -> str:
    return str(seed) if op.get("seeded", True) else "any"


def reference_digest(worker: Worker, op: dict, seed: int):
    """Digest of the expected output of ``op``, or None if it cannot be made.

    ``reference: library`` operations take the rows from the library calls
    the command makes; the others run the CLI at ``--threads 1``.
    """
    if op.get("reference") == "library":
        reply, _ = worker.request({"cmd": "library", "command": op["command"],
                                   "config": op["config"], "seed": seed}, op["limit_s"])
        if reply is None or "rows" not in reply:
            return None
        return checks.digest(checks.library_content(op["command"], reply["rows"]))
    reply, _ = worker.request({"cmd": "op", "argv": op_argv(op, seed, 1, op["out"])},
                              op["limit_s"])
    if reply is None or reply["raised"] or reply["code"] != 0:
        return None
    return checks.digest(checks.read_output(op["command"], ROOT, op["out"], op["config"])["content"])


class References:
    """Expected output digests of one run: committed, else computed once."""

    def __init__(self, workload: str, spec: dict, seed: int, log_path: Path):
        self.committed = load_references().get(workload, {})
        self.spec, self.seed, self.log_path = spec, seed, log_path
        self.computed: dict[str, tuple] = {}
        self.worker = None

    def lookup(self, op: dict, got: str):
        """(expected digest or None, source) for an output with digest ``got``."""
        by_seed = self.committed.get(op["name"], {})
        key = reference_key(op, self.seed)
        if by_seed.get(key):
            return by_seed[key], "committed"
        if op["name"] not in self.computed:
            self.computed[op["name"]] = self._compute(op, got)
        return self.computed[op["name"]]

    def _compute(self, op: dict, got: str):
        if op.get("reference") != "library" and op.get("threads", 1) == 1:
            return got, "first output of this run"
        if self.worker is None or not self.worker.alive:
            self.worker = Worker(self.spec["innovations"], False, self.log_path)
        source = "library" if op.get("reference") == "library" else "single-thread"
        want = reference_digest(self.worker, op, self.seed)
        return want, source if want else f"{source} reference failed"

    def close(self):
        if self.worker is not None and self.worker.alive:
            self.worker.close()


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def _attribute(kind: str, text: str):
    for k, needle, what in KNOWN_DEFECTS:
        if k == kind and needle in text:
            return what
    return None


def _log_since(path: Path, offset: int, lines: int = 40) -> str:
    with open(path, "rb") as fh:
        fh.seek(offset)
        text = fh.read().decode("utf-8", "replace")
    return "\n".join(text.splitlines()[-lines:])


def run_op(worker: Worker, op: dict, seed: int, threads: int) -> dict:
    for stale in (op["out"], op["config"].get("curve_out")):
        if stale:
            (ROOT / stale).unlink(missing_ok=True)
    offset = worker.log_path.stat().st_size
    reply, why = worker.request({"cmd": "op", "argv": op_argv(op, seed, threads, op["out"])},
                                op["limit_s"])
    rec = {"op": op["name"], "command": op["command"], "threads": threads,
           "config_sha256": checks.config_sha256(op["config"])}
    if reply is None:
        detail = _log_since(worker.log_path, offset)
        rec.update(status="failed", reason=why, charged_s=op["limit_s"], workers=None,
                   detail=detail, defect=_attribute(why, detail))
        return rec
    code = reply["code"]
    failed = reply["raised"] is not None or code not in OK_CODES
    reason = None
    if reply["raised"]:
        reason = reply["raised"].strip().splitlines()[-1]
    elif failed:
        reason = f"exit code {code}"
    rec.update(status="failed" if failed else "ok", exit=code, reason=reason,
               charged_s=reply["elapsed_s"], workers=reply["workers"],
               trace=reply["trace"])
    if reply["raised"]:
        rec["detail"] = reply["raised"]
        rec["defect"] = _attribute("raised", reply["raised"])
    return rec


def check_output(rec: dict, op: dict, seed: int, ctx: dict, refs: References):
    """Fill rec['wrong'] and rec['problems'] for a succeeded operation."""
    problems = []
    try:
        parsed = checks.read_output(op["command"], ROOT, op["out"], op["config"])
    except (OSError, ValueError, KeyError) as exc:
        rec.update(wrong=True, problems=[f"no readable output: {exc!r}"])
        return
    meta = parsed["meta"]
    rec["config_sha256_printed"] = meta.get("config_sha256")
    if meta.get("config_sha256") != rec["config_sha256"]:
        problems.append("config_sha256 in the output differs from the config written")
    if meta.get("master_seed") != str(seed):
        problems.append(f"master_seed {meta.get('master_seed')} != {seed}")
    got = checks.digest(parsed["content"])
    want, source = refs.lookup(op, got)
    rec["reference"] = source
    if want is None:
        problems.append(f"no reference: {source}")
    elif got != want:
        problems.append(f"output differs from the {source} reference")
    independent = checks.INDEPENDENT.get(op["command"])
    if independent:
        try:
            problems += independent(op["config"], seed, parsed, ctx)
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            problems.append(f"independent check could not read the output: {exc!r}")
    rec.update(wrong=bool(problems), problems=problems)


def run_iteration(i, spec, ops, seed, traced, threads_cap, ctx, refs, log_path, setups):
    recs, workers = [], []
    worker = None
    for op in ops:
        if worker is None:
            worker = Worker(spec["innovations"], traced, log_path)
            workers.append(worker)
            if not traced:
                setups.append(worker.setup_s)
        threads = min(op.get("threads", 1), threads_cap)
        rec = run_op(worker, op, seed, threads)
        rec.update(iteration=i, traced=traced)
        if not worker.alive:
            worker = None
        if rec["status"] == "ok":
            check_output(rec, op, seed, ctx, refs)
        recs.append(rec)
    if worker is not None:
        worker.close()
    peak = max(w.maxrss_mb for w in workers)
    return {"iteration": i, "traced": traced, "ops": recs, "peak_rss_mb": peak,
            "run_s": sum(r["charged_s"] for r in recs),
            "trace_missing": workers[0].trace_missing}


# ---------------------------------------------------------------------------
# metrics and report
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(iters, setups, ops) -> dict:
    out = {
        "setup_s": (_median(setups), "s", f"median of {len(setups)} worker start-ups"),
        "run_s": (_median([it["run_s"] for it in iters]), "s",
                  f"median of {len(iters)} iterations"),
        "peak_rss_mb": (_median([it["peak_rss_mb"] for it in iters]), "MB",
                        f"median of {len(iters)} iterations"),
    }
    for command in dict.fromkeys(op["command"] for op in ops):
        if command == "constants":  # ~15 ms, too short to be steady; counted in run_s
            continue
        per_iter = [sum(r["charged_s"] for r in it["ops"] if r["command"] == command)
                    for it in iters]
        out[command.replace("-", "_") + "_s"] = (_median(per_iter), "s",
                                                 f"median of {len(iters)} iterations")
    return out


def per_layer(names, traced, untraced) -> dict:
    """Per-layer metrics: the median over traced iterations of each iteration's sum."""
    per_iter = []
    for it in traced:
        layers, coupled, spans = {}, {}, 0
        for rec in it["ops"]:
            tr = rec.get("trace")
            if not tr:
                continue
            spans += tr["spans"]
            for name, agg in tr["layers"].items():
                acc = layers.setdefault(name, dict.fromkeys(agg, 0))
                for k, v in agg.items():
                    acc[k] = max(acc[k], v) if k == "rss_delta_mb" else acc[k] + v
            for fam, (evals, draws) in tr["coupled"].items():
                c = coupled.setdefault(fam, [0, 0])
                c[0] += evals
                c[1] += draws
        per_iter.append((layers, coupled, spans))
    overhead = _median([it["run_s"] for it in traced]) - _median([it["run_s"] for it in untraced])
    out = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            out[name] = (overhead, unit)
            continue
        vals = []
        for layers, coupled, spans in per_iter:
            layer, stat = name.rsplit(".", 1)
            if name == "trace.spans":
                vals.append(spans)
            elif stat == "calls_per_coupled_step":
                evals, draws = coupled.get(layer.split(".")[1], (0, 0))
                vals.append(evals / draws if draws else 0.0)
            else:
                vals.append(layers.get(layer, {}).get(stat, 0))
        out[name] = (_median(vals), unit)
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def main(argv=None) -> int:
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        suite = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite["workloads"]))
    parser.add_argument("--seed", type=int, default=suite["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "logcount" / "cli.py").is_file():
        print(f"error: no logcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)

    import numpy
    import scipy

    name, seed, traced_run = args.workload, args.seed, bool(args.trace)
    spec = suite["workloads"][name]
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    log_path = WORK / name / "worker.log"
    ops, ctx = prepare(name, spec, seed)
    log_path.write_bytes(b"")
    cap = max(1, nproc())
    threads_cap = 1 if traced_run else cap
    refs = References(name, spec, seed, log_path)
    iters, setups = [], []
    start = time.perf_counter()
    try:
        while True:
            traced = traced_run and (len(iters) % 2 == 0)
            t0 = time.perf_counter()
            iters.append(run_iteration(len(iters), spec, ops, seed, traced, threads_cap, ctx,
                                       refs, log_path, setups))
            took = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            # a traced run needs one traced and one untraced iteration
            if (not traced_run or len(iters) >= 2) and (
                    elapsed >= args.seconds or elapsed + took > RUN_BUDGET_S):
                break
        while not traced_run and len(setups) < MIN_SETUP_SAMPLES:
            w = Worker(spec["innovations"], False, log_path)
            setups.append(w.setup_s)
            w.close()
    finally:
        refs.close()
        for w in list(Worker.live):
            w.kill()

    recs = [r for it in iters for r in it["ops"]]
    attempted = len(recs)
    failed = sum(r["status"] == "failed" for r in recs)
    succeeded = attempted - failed
    wrong = sum(bool(r.get("wrong")) for r in recs)
    untraced = [it for it in iters if not it["traced"]]
    traced = [it for it in iters if it["traced"]]

    print(f"workload {name}  seed {seed}  trace {args.trace}  iterations {len(iters)}  "
          f"nproc {cap}")
    first = {r["op"]: r["status"] for r in recs if r["iteration"] == 0}
    for rec in recs:  # the first iteration, then only what differs from it
        if rec["iteration"] and not rec.get("wrong") and rec["status"] == first[rec["op"]]:
            continue
        line = (f"  op {rec['op']:<20} {rec['status']:<6} {rec['charged_s']:8.3f} s  "
                f"workers {rec['workers']}  ref {rec.get('reference', '-')}")
        if rec["status"] == "failed":
            line += f"\n     reason: {rec['reason']}\n     defect: {rec.get('defect') or 'unattributed'}"
        for p in rec.get("problems", []):
            line += f"\n     WRONG: {p}"
        print(line)
    if traced_run:
        values = per_layer([(m["name"], m["unit"]) for m in declared["per_layer"]],
                           traced, untraced)
        for key, (val, unit) in values.items():
            print(f"  layer {key:<52} {val:.6g} {unit}")
        missing = iters[0]["trace_missing"]
        if missing:
            print(f"  not traced (missing in the package): {', '.join(missing)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        values = end_to_end(untraced, setups, ops)
        values["failed_frac"] = (failed / attempted, "fraction", f"{failed}/{attempted} operations")
        values["wrong_frac"] = (wrong / succeeded if succeeded else 0.0, "fraction",
                                f"{wrong}/{succeeded} succeeded operations")
        for key, (val, unit, how) in values.items():
            print(f"  metric {key:<14} {val:12.6g} {unit:<8} ({how})")
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                   for m in declared["end_to_end"]}

    record = {
        "workload": name, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": cap, "git_commit": git_commit(),
        "platform": platform.platform(), "setup_samples_s": setups,
        "iterations": [{k: v for k, v in it.items() if k != "ops"} for it in iters],
        "operations": [{k: v for k, v in r.items() if k != "trace"} for r in recs],
        "metrics": {k: v[0] for k, v in values.items()},
    }
    record_path = WORK / "records" / f"{name}-seed{seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"  record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
