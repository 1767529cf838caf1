"""Deterministic derivation of random streams and chunked parallel execution.

Every random quantity in this package is drawn from a numpy Generator seeded
by ``SeedSequence([master_seed, *path])``.  A unit of work (one replicate, one
Monte Carlo loop, one bootstrap block) owns its path, so it can be recomputed
in isolation and results never depend on scheduling, chunk boundaries, or the
number of worker processes.  ``stream`` is the definition of every stream.

``uniform_rows`` is the one place that maps a simulated replicate r to its
stream ``(master_seed, NS_SIM, r)``.  It yields the same bits as ``stream``
but derives a whole block of rows at once: the SeedSequence hash uses only
data-independent constants, so it runs as uint32 array operations over the
rows, and each row's PCG64 state is then set on one reused generator.  The
equality with ``stream`` is pinned by the tests.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

# Fixed chunk width for replicate batches: the unit of every float
# reduction.  Each replicate has its own stream and the partial results are
# combined in chunk order, so results are identical for any worker count;
# but a chunk's bits do depend on its width where it reduces floats (BLAS
# gemv row partitions, float sums), so the width is fixed.  ``span`` may
# merge chunks into one unit of scheduling: a caller that reduces floats
# still steps and reduces its span one CHUNK-row block at a time, on one
# workspace that every block of the span reuses.
CHUNK = 512
# Element budget of the (rows, width) uniform block of one span (2 MiB of
# doubles).  The coupling experiment also holds its pairs' whole path: at
# k = 20 and horizon 50 it peaks at about six blocks, four for the iid kind.
SPAN_ELEMENTS = 2**18

# Stream namespaces (first path component after the master seed).
NS_SIM = 0
NS_BOOT = 1
NS_TARGET = 2


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the (master_seed, *path) substream."""
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *[int(p) for p in path]]))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64 seeding.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list[int]:
    """32-bit words of a non-negative int, low word first; 0 is one word."""
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _hash_consts(init: int, mult: int):
    """(xor, mult) constants of successive hash calls, data-independent."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, consts):
    """One SeedSequence hashmix; ``value`` is an int or a uint32 array."""
    x, m = next(consts)
    value = (value ^ x) * m & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ (r >> _XSHIFT)


def _pcg64_states(entropy: list) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of ``default_rng(SeedSequence(words))`` for each row.

    ``entropy`` lists the 32-bit entropy words in order, each an int shared
    by all rows or a uint32 array with one word per row.
    """
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, consts) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(entropy[src], consts))
    # generate_state(4, uint64): 8 uint32 words cycling over the pool, paired
    # little-endian
    consts = _hash_consts(_INIT_B, _MULT_B)
    w32 = [np.asarray(_hashmix(pool[i % _POOL_SIZE], consts), dtype=np.uint64) for i in range(8)]
    w64 = [(w32[2 * j] | (w32[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)]
    # pcg64_set_seed: inc = initseq << 1 | 1, then two LCG steps from state 0
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*w64):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def uniform_rows(master_seed: int, lo: int, hi: int, width: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of shape (hi-lo, width): row i holds the first ``width`` uniforms
    of replicate lo+i's stream ``(master_seed, NS_SIM, lo+i)``.  ``out``, a
    C-ordered float64 array of that shape, receives them if given.

    Bit for bit ``stream(master_seed, NS_SIM, lo+i).random(width)``, without a
    SeedSequence or PCG64 per row: the rows are split into groups of at most
    ``CHUNK`` rows that do not cross a multiple of 2**32, so within a group
    only the low word of r varies; each group's PCG64 states come from one
    vectorized ``_pcg64_states`` pass, whose Python-int states then stay
    small beside ``u``, and one generator is reseeded and drawn from row by
    row.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    u = np.empty((hi - lo, width)) if out is None else out
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    head = [*_words(int(master_seed)), NS_SIM]
    i = 0
    while lo + i < hi:
        r, top = lo + i, (lo + i) >> 32
        stop = min(hi, (top + 1) << 32, r + CHUNK)
        low = (r & _MASK32) + np.arange(stop - r, dtype=np.uint32)
        entropy = [*head, low, *(_words(top) if top else [])]
        for state, inc in _pcg64_states(entropy):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            gen.random(out=u[i])
            i += 1
    return u


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse (master_seed, *path) into a fresh 64-bit master seed."""
    ss = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


def chunk_bounds(n_items: int, chunk: int = CHUNK) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def span(n_items: int, threads: int, width: int) -> int:
    """Rows per span for a caller whose chunk results are exact integers, or
    that steps and reduces each ``CHUNK``-row block of its span on its own.

    At least one span per worker, and enough spans that a (rows, width)
    matrix stays within ``SPAN_ELEMENTS``; the items are shared out evenly
    in whole chunks, so a span is about ``ceil(n_items / spans)`` rows, a
    multiple of ``CHUNK`` and never below it.  Stepping many replicates per
    numpy call saves per-call overhead, and only a reduction that sums
    integers (counts) gives the same result for any grouping of the rows.
    """
    chunks = -(-n_items // CHUNK)
    per_span = max(SPAN_ELEMENTS // (CHUNK * width), 1)
    spans = max(threads or 1, -(-chunks // per_span), 1)
    return CHUNK * max(-(-chunks // spans), 1)


def run_chunks(worker: Callable[[int, int], object], n_items: int, threads: int = 1,
               chunk: int = CHUNK) -> list:
    """Run ``worker(lo, hi)`` over fixed-size index chunks, in index order.

    ``worker`` must be picklable (module-level function or functools.partial
    of one) when ``threads > 1``.  The returned list is ordered by chunk, so
    any reduction performed by the caller is independent of the worker count.

    ``chunk`` defaults to ``CHUNK``.  A row's float result can depend on how
    many rows share its call, so a worker that reduces floats over a wider
    chunk reduces it ``CHUNK`` rows at a time (``ensemble_theta_hats`` over a
    ``span``).  A caller whose worker returns integer counts may pass other
    chunks, because an integer sum does not depend on how the rows are
    grouped: ``estimate_beta`` a wider ``span``, ``coverage_experiment`` a
    narrower one so that every worker gets loops.
    """
    bounds = chunk_bounds(n_items, chunk)
    if threads is None or threads <= 1 or len(bounds) <= 1:
        return [worker(lo, hi) for lo, hi in bounds]
    los: Sequence[int] = [b[0] for b in bounds]
    his: Sequence[int] = [b[1] for b in bounds]
    with ProcessPoolExecutor(max_workers=min(threads, len(bounds))) as ex:
        return list(ex.map(worker, los, his))
