"""Deterministic derivation of random streams and chunked parallel execution.

Every random quantity in this package is drawn from a numpy Generator seeded
by ``SeedSequence([master_seed, *path])``.  A unit of work (one replicate, one
Monte Carlo loop, one bootstrap block) owns its path, so it can be recomputed
in isolation and results never depend on scheduling, chunk boundaries, or the
number of worker processes.  ``uniform_rows`` is the one place that maps a
simulated replicate r to its stream ``(master_seed, NS_SIM, r)``.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

# Fixed chunk width for replicate batches.  Purely a performance knob: each
# replicate has its own stream, and partial reductions are combined in chunk
# order, so results are identical for any worker count.
CHUNK = 512

# Stream namespaces (first path component after the master seed).
NS_SIM = 0
NS_BOOT = 1
NS_TARGET = 2


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the (master_seed, *path) substream."""
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *[int(p) for p in path]]))


def uniform_rows(master_seed: int, lo: int, hi: int, width: int) -> np.ndarray:
    """Matrix of shape (hi-lo, width): row i holds the first ``width`` uniforms
    of replicate lo+i's stream ``(master_seed, NS_SIM, lo+i)``."""
    u = np.empty((hi - lo, width))
    for i in range(hi - lo):
        u[i] = stream(master_seed, NS_SIM, lo + i).random(width)
    return u


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse (master_seed, *path) into a fresh 64-bit master seed."""
    ss = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


def chunk_bounds(n_items: int, chunk: int = CHUNK) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def run_chunks(worker: Callable[[int, int], object], n_items: int, threads: int = 1) -> list:
    """Run ``worker(lo, hi)`` over fixed-size index chunks, in index order.

    ``worker`` must be picklable (module-level function or functools.partial
    of one) when ``threads > 1``.  The returned list is ordered by chunk, so
    any reduction performed by the caller is independent of the worker count.
    """
    bounds = chunk_bounds(n_items)
    if threads is None or threads <= 1 or len(bounds) <= 1:
        return [worker(lo, hi) for lo, hi in bounds]
    los: Sequence[int] = [b[0] for b in bounds]
    his: Sequence[int] = [b[1] for b in bounds]
    with ProcessPoolExecutor(max_workers=min(threads, len(bounds))) as ex:
        return list(ex.map(worker, los, his))
