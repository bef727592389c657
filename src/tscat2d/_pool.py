"""Row bands of elementwise array work on one process-wide thread pool.

The kernel tables are filled by numpy and scipy.special ufuncs, which
release the interpreter lock inside their loops, so threads that fill
disjoint row bands of one output run in parallel.  Every entry is computed
by the same ufunc calls on the same operands as in one whole-array call,
so the results are bit-identical whatever the number of bands.

The pool has one thread per CPU the process may run on (its affinity, so
``taskset`` limits it).  It is created on first use and dropped in a
forked child.  The work runs on the caller's thread alone, as one band, in
three cases: one CPU, fewer than ``MIN_ENTRIES`` entries, and a call from a
pool thread, so that a band which submits bands again cannot wait on itself.
``map_blocks`` cuts each band into blocks of about ``BAND_ENTRIES`` entries,
so that the temporaries of a fill stay that small even when one band covers
the whole array.
"""

from __future__ import annotations

import os
import threading

import numpy as np

MIN_ENTRIES = 1 << 14  # below this an array is filled in one call: thread hand-off would dominate
BAND_ENTRIES = 1 << 15  # entries per band, about; a band's complex temporaries then fit in L2

_lock = threading.Lock()
_executor = None
_local = threading.local()


def workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mark_worker():
    _local.worker = True


def _pool(n: int):
    global _executor
    with _lock:
        if _executor is None:
            from concurrent.futures import ThreadPoolExecutor

            _executor = ThreadPoolExecutor(
                max_workers=n, thread_name_prefix="tscat2d-band", initializer=_mark_worker
            )
        return _executor


def _reset_after_fork():
    """A forked child has none of the parent's threads: start with no pool."""
    global _lock, _executor, _local
    _lock, _executor, _local = threading.Lock(), None, threading.local()


os.register_at_fork(after_in_child=_reset_after_fork)


def map_bands(fn, nrows: int, entries: int, row_work=None) -> None:
    """Call fn(lo, hi) on consecutive row bands [lo, hi) that cover range(nrows).

    ``entries`` is the size of the work.  Below ``MIN_ENTRIES``, on one CPU
    or from a pool thread, fn(0, nrows) runs on the caller's thread.
    Otherwise the rows are cut into at least one band per CPU and about one
    per ``BAND_ENTRIES``, each holding an equal share of ``row_work`` (the
    work of each row; equal rows if None), and the pool runs them while the
    caller waits.  Small bands keep each band's temporaries in cache and
    let a thread that finishes early take the next band.  Raises the error
    of the first band in row order that raised one, after every band ended.
    """
    n = workers()
    if n == 1 or entries < MIN_ENTRIES or getattr(_local, "worker", False):
        fn(0, nrows)
        return
    count = min(nrows, max(n, round(entries / BAND_ENTRIES)))
    cum = np.cumsum(np.ones(nrows) if row_work is None else row_work)
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, count) / count, side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [nrows]))).tolist()
    pool = _pool(n)
    futures = [pool.submit(fn, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    for f in futures:  # wait for every band before reporting, so none still writes
        f.exception()
    for f in futures:
        f.result()


def map_blocks(fn, nrows: int, row_entries: int, row_work=None) -> None:
    """map_bands over nrows rows of at most row_entries entries, each band calling fn on blocks of its rows.

    A block holds at most about ``BAND_ENTRIES`` entries (at least one row),
    so the temporaries of fn stay that small whatever the number of bands.
    ``row_work`` balances the bands as in map_bands.
    """
    block = max(1, BAND_ENTRIES // row_entries)

    def band(lo, hi):
        for first in range(lo, hi, block):
            fn(first, min(first + block, hi))

    entries = nrows * row_entries if row_work is None else int(np.sum(row_work))
    map_bands(band, nrows, entries, row_work)
