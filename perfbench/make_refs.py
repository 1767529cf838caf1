#!/usr/bin/env python3
"""Write perfbench/reference.json: expected output digests per seed.

Run from the repository root, e.g.

    python3 perfbench/make_refs.py --seeds 0-19

Each operation runs once through the CLI at ``--threads 1``; ``coverage``
and ``tv-check`` take their rows from the library calls the command makes
(``coverage_experiment``, ``tv_bound_check``) with the same derived seeds.
Operations without randomness are stored once, under ``"any"``.  An
operation that fails or hits its time limit is stored as null (no
reference).  Existing entries for other seeds are kept.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0-19 or 0,3,7")
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args()
    with open(run.BENCH / "workloads.json", encoding="utf-8") as fh:
        suite = json.load(fh)
    refs = run.load_references()
    names = args.workload or list(suite["workloads"])
    try:
        for name in names:
            spec = suite["workloads"][name]
            log_path = run.WORK / name / "worker.log"
            for seed in _seed_list(args.seeds):
                ops, _ = run.prepare(name, spec, seed)
                worker = None
                for op in ops:
                    key = run.reference_key(op, seed)
                    if key == "any" and key in refs.get(name, {}).get(op["name"], {}):
                        continue
                    if worker is None or not worker.alive:
                        worker = run.Worker(spec["innovations"], False, log_path)
                    value = run.reference_digest(worker, op, seed)
                    refs.setdefault(name, {}).setdefault(op["name"], {})[key] = value
                    print(f"{name} seed {seed} {op['name']}: {value}", flush=True)
                if worker is not None and worker.alive:
                    worker.close()
    finally:
        for w in list(run.Worker.live):
            w.kill()
        with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
