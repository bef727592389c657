"""Blocks of rows of elementwise array work, dealt to the caller's thread and a process-wide pool.

The kernel tables of an operator set, ``specfun``'s values on a kernel
argument and the potentials at blocks of points are filled by numpy and
scipy.special ufuncs, which release the interpreter lock inside their
loops, so threads that fill disjoint blocks of rows of one output run in
parallel.  Every entry is computed by the same ufunc calls on the same
operands whatever the blocks, so the results are bit-identical.

With n CPUs in the process's affinity (so ``taskset`` limits it), the
caller and a pool of n - 1 threads work the blocks.  The pool is created
on first use, replaced by a larger one when a later call sees more CPUs,
and dropped in a forked child.  The caller works every block
alone, in row order, in three cases: one CPU, fewer than ``MIN_ENTRIES``
entries, and a call from inside a block (on a pool thread, or on the
caller while it works blocks), so that a nested call never waits behind
its own caller.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MIN_ENTRIES = 1 << 14  # below this the caller works alone: thread hand-off would dominate
BAND_ENTRIES = 1 << 15  # entries per block, about; a block's complex temporaries then fit in L2

_lock = threading.Lock()
_executor = None
_local = threading.local()


def workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool(n: int):
    """A pool of at least n - 1 threads.

    A smaller pool is replaced, not shut down: a caller that still holds it may submit to it.
    """
    global _executor
    with _lock:
        if _executor is None or _executor._max_workers < n - 1:
            _executor = ThreadPoolExecutor(max_workers=n - 1, thread_name_prefix="tscat2d-block")
        return _executor


def _reset_after_fork():
    """A forked child has none of the parent's threads: start with no pool."""
    global _lock, _executor, _local
    _lock, _executor, _local = threading.Lock(), None, threading.local()


os.register_at_fork(after_in_child=_reset_after_fork)


def map_blocks(fn, nrows: int, row_entries: int, row_work=None) -> None:
    """Call fn(lo, hi) once on each block of consecutive rows [lo, hi); the blocks cover range(nrows).

    The rows hold row_entries entries each, or ``row_work`` gives each
    row's work.  For n working threads (1 if the caller works alone) the
    rows are cut into min(nrows, max(n, ceil(entries / BAND_ENTRIES)))
    blocks of equal shares of the work, and each thread takes the next
    untaken block until none is left.  An exception in a block, such as a
    ``KeyboardInterrupt`` on the caller, stops the dealing; once every taken
    block has ended, the exception of the first block in row order that
    raised one is raised, so that no thread writes into an output after
    the call ends.  So is an interrupt on the caller between blocks.
    """
    if not nrows:
        return
    cum = None if row_work is None else np.cumsum(row_work)
    entries = nrows * row_entries if cum is None else int(cum[-1])
    n = 1 if entries < MIN_ENTRIES or getattr(_local, "dealing", False) else workers()
    count = min(nrows, max(n, -(-entries // BAND_ENTRIES)))
    if cum is None:
        bounds = [nrows * i // count for i in range(count + 1)]
    else:
        cuts = np.searchsorted(cum, cum[-1] * np.arange(1, count) / count, side="right")
        bounds = np.unique(np.concatenate(([0], cuts, [nrows]))).tolist()
    blocks = list(zip(bounds[:-1], bounds[1:]))
    lock = threading.Lock()
    taken, errors = 0, {}

    def deal():
        nonlocal taken
        outer = getattr(_local, "dealing", False)
        _local.dealing = True
        try:
            while True:
                with lock:
                    i, taken = taken, taken + 1
                if i >= len(blocks):
                    return
                try:
                    fn(*blocks[i])
                except BaseException as e:  # raised below; every block before i is taken, so may raise first
                    with lock:
                        errors[i], taken = e, len(blocks)
        finally:
            _local.dealing = outer

    futures = [_pool(n).submit(deal) for _ in range(n - 1)]
    try:
        deal()
    finally:
        with lock:
            taken = len(blocks)  # after an interrupt between blocks, the pool takes no more
        for f in futures:
            f.exception()
    if errors:
        raise errors[min(errors)]
