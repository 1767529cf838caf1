"""In-memory spans around the public functions of each ``logcount`` module.

The wrappers live here, in the benchmark, not in the package: ``install``
replaces every module attribute that holds one of the target functions (so
names imported with ``from .x import f`` are covered too) and the ``quantile``,
``cdf`` and ``sf`` methods of the innovation classes.  A span is
``[name, parent, start, end, items, meta]``; self time is derived from the
spans once an operation ends.
"""
from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

import numpy as np


def _n(a):
    return a["n"]


def _replicate_steps(a):
    return (a["hi"] - a["lo"]) * a["n"]


def _ensemble_steps(a):
    return a["replicates"] * a["n"]


def _pair_steps(a):
    return a["replicates"] * (a["k"] + max(a["n_grid"]) + a["truncation"])


def _coupled_draws(a):
    return {"family": a["params"].innovation.family,
            "draws": a["replicates"] * (max(a["n_grid"]) + a["truncation"])}


# (module, function, items from bound arguments, extra span data)
TARGETS = [
    ("logcount.cli", "main", None, None),
    ("logcount.rng", "stream", None, None),
    ("logcount.innovations", "compute_constants", None, None),
    ("logcount.innovations", "tv_distance", None, None),
    ("logcount.process", "simulate", _n, None),
    ("logcount.process", "simulate_replicate_block", _replicate_steps, None),
    ("logcount.process", "validate", None, None),
    ("logcount.estimation", "theta_hat", lambda a: len(a["x"]), None),
    ("logcount.estimation", "nn_means", lambda a: len(a["transformed"]), None),
    ("logcount.estimation", "ensemble_theta_hats", _ensemble_steps, None),
    ("logcount.estimation", "theta_bar_mc", None, None),
    ("logcount.bootstrap", "coverage_experiment", None, None),
    ("logcount.bootstrap", "confidence_interval", None, "rss"),
    ("logcount.coupling", "estimate_beta", _pair_steps, _coupled_draws),
]
FAMILY_CLASSES = ("Exponential", "HalfNormal", "HalfCauchy", "ChiSquare")
FAMILY_METHODS = ("quantile", "cdf", "sf")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder for one worker process; single-threaded use only."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, items=None, extra=None, method=False):
        sig = inspect.signature(fn) if (items or callable(extra)) else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count, meta = 0, None
            if method:
                count = int(np.size(args[1])) if len(args) > 1 else 0
            elif sig is not None:
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                    count = int(items(bound)) if items else 0
                    meta = extra(bound) if callable(extra) else None
                except (TypeError, KeyError, AttributeError, ValueError):
                    pass
            if extra == "rss":
                meta = {"rss0": _maxrss_mb()}
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, count, meta]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if extra == "rss":
                    meta["rss_delta_mb"] = _maxrss_mb() - meta["rss0"]

        return traced

    def install(self):
        """Patch the targets in every loaded ``logcount`` module."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "logcount" or k.startswith("logcount."))]
        for modname, fname, items, extra in TARGETS:
            orig = getattr(sys.modules.get(modname), fname, None)
            if orig is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapped = self._wrap(f"{modname.split('.')[-1]}.{fname}", orig, items, extra)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
        innov = sys.modules["logcount.innovations"]
        for cls_name in FAMILY_CLASSES:
            cls = getattr(innov, cls_name, None)
            if cls is None:
                self.missing.append(f"logcount.innovations.{cls_name}")
                continue
            for meth in FAMILY_METHODS:
                setattr(cls, meth, self._wrap(f"innovations.{cls.family}.{meth}",
                                              getattr(cls, meth), method=True))

    def drain(self) -> dict:
        """Aggregate and forget the spans recorded since the last drain."""
        spans, self.spans[:] = list(self.spans), []
        child = [0.0] * len(spans)
        beta_family = [None] * len(spans)
        layers: dict[str, dict] = {}
        coupled: dict[str, list] = {}
        for i, (name, parent, t0, t1, items, meta) in enumerate(spans):
            dur = t1 - t0
            fam = None
            if parent >= 0:
                child[parent] += dur
                fam = beta_family[parent]
            if name == "coupling.estimate_beta" and meta:
                fam = meta["family"]
                coupled.setdefault(fam, [0, 0])[1] += meta["draws"]
            beta_family[i] = fam
            if fam is not None and name == f"innovations.{fam}.sf":
                coupled.setdefault(fam, [0, 0])[0] += items
        for i, (name, parent, t0, t1, items, meta) in enumerate(spans):
            agg = layers.setdefault(name, {"calls": 0, "items": 0, "total_s": 0.0,
                                           "self_s": 0.0, "rss_delta_mb": 0.0})
            agg["calls"] += 1
            agg["items"] += items
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child[i]
            if meta and "rss_delta_mb" in meta:
                agg["rss_delta_mb"] = max(agg["rss_delta_mb"], meta["rss_delta_mb"])
        return {"layers": layers, "coupled": coupled, "spans": len(spans)}
