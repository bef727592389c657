"""Row blocks dealt to the caller and the shared thread pool: cut, dealing, order of errors, nesting, fork.

A block is a band of consecutive rows; ``map_blocks`` is the pool's one mapping function.
"""

import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from tscat2d import _pool

BIG = 4 * _pool.MIN_ENTRIES
WAIT = 30  # seconds a barrier waits before the test fails instead of hanging


@pytest.fixture
def set_workers(monkeypatch):
    # a fresh pool for each test; it grows to the patched count, which may exceed this machine's CPUs
    monkeypatch.setattr(_pool, "_executor", None)

    def set_to(n):
        monkeypatch.setattr(_pool, "workers", lambda: n)

    return set_to


@pytest.fixture
def three_workers(set_workers):
    set_workers(3)


def recorded_blocks(nrows, row_entries, row_work=None):
    """The (lo, hi, thread name) of each block, in the order the blocks started."""
    calls = []
    lock = threading.Lock()

    def fn(lo, hi):
        with lock:
            calls.append((lo, hi, threading.current_thread().name))

    _pool.map_blocks(fn, nrows, row_entries, row_work)
    return calls


def covers(blocks, nrows):
    blocks = sorted(blocks)
    return (
        blocks[0][0] == 0
        and blocks[-1][1] == nrows
        and all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        and all(lo < hi for lo, hi in blocks)
    )


@pytest.mark.parametrize("nrows", [2, 7, 300])
def test_bands_cover_every_row_once(three_workers, nrows):
    row_entries = -(-BIG // nrows)
    calls = recorded_blocks(nrows, row_entries)
    blocks = [(lo, hi) for lo, hi, _ in calls]
    assert covers(blocks, nrows)
    count = min(nrows, max(3, math.ceil(nrows * row_entries / _pool.BAND_ENTRIES)))
    assert len(blocks) == count  # at least one block per worker, rows permitting
    assert all((hi - lo - 1) * row_entries < _pool.BAND_ENTRIES for lo, hi in blocks)
    caller = threading.current_thread().name
    assert all(name == caller or name.startswith("tscat2d-block") for *_, name in calls)


def test_bands_hold_equal_shares_of_the_row_work(three_workers):
    m = 600
    work = np.arange(m, 0, -1)  # upper-triangle entries per row
    blocks = sorted((lo, hi) for lo, hi, _ in recorded_blocks(m, m, work))
    assert covers(blocks, m)
    assert len(blocks) == math.ceil(work.sum() / _pool.BAND_ENTRIES)
    shares = [work[lo:hi].sum() for lo, hi in blocks]
    assert max(shares) - min(shares) <= work.max()
    assert blocks[0][1] - blocks[0][0] < blocks[-1][1] - blocks[-1][0]  # long rows first


def assert_working_at_once(workers):
    # each of the first `workers` blocks holds its thread at a barrier until every thread has one,
    # so the caller and workers - 1 pool threads are all working at once
    barrier = threading.Barrier(workers, timeout=WAIT)
    names = []

    def fn(lo, hi):
        names.append(threading.current_thread().name)
        if lo < workers:
            barrier.wait()

    _pool.map_blocks(fn, 4 * workers, BIG)
    assert threading.current_thread().name in names
    pool_threads = {name for name in names if name.startswith("tscat2d-block")}
    assert len(pool_threads) == workers - 1
    assert len(_pool._executor._threads) == _pool._executor._max_workers == workers - 1


@pytest.mark.parametrize("workers", [2, 3])
def test_caller_takes_blocks_beside_one_pool_thread_fewer_than_cpus(set_workers, workers):
    set_workers(workers)
    assert_working_at_once(workers)


def test_pool_grows_when_a_later_call_sees_more_cpus(set_workers):
    set_workers(2)
    recorded_blocks(300, BIG // 300)
    first = _pool._executor
    assert first._max_workers == 1
    set_workers(3)
    assert_working_at_once(3)
    assert _pool._executor is not first
    assert first.submit(lambda: 1).result(timeout=WAIT) == 1  # replaced, not shut down


@pytest.mark.parametrize(
    "workers, entries", [(1, BIG), (3, _pool.MIN_ENTRIES - 1)], ids=["one-cpu", "small"]
)
def test_serial_cases_run_one_band_on_the_caller(set_workers, workers, entries):
    # the caller works every block itself, in row order, and the blocks are cut for one thread
    set_workers(workers)
    calls = recorded_blocks(100, entries // 100)
    blocks = [(lo, hi) for lo, hi, _ in calls]
    assert covers(blocks, 100) and blocks == sorted(blocks)
    assert len(blocks) == math.ceil(100 * (entries // 100) / _pool.BAND_ENTRIES)
    assert {name for *_, name in calls} == {threading.current_thread().name}
    assert _pool._executor is None


@pytest.mark.parametrize("row_entries", [1000, 2 * _pool.BAND_ENTRIES])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blocks_cover_every_row_once_in_small_blocks(set_workers, workers, row_entries):
    # on one worker the rows are cut into blocks too, which bounds a fill's temporaries
    set_workers(workers)
    blocks = [(lo, hi) for lo, hi, _ in recorded_blocks(300, row_entries)]
    assert covers(blocks, 300)
    assert all(hi - lo == 1 or (hi - lo) * row_entries <= _pool.BAND_ENTRIES for lo, hi in blocks)


@pytest.mark.parametrize("row_work", [None, []], ids=["equal-rows", "row-work"])
def test_no_rows_make_no_blocks(three_workers, row_work):
    assert recorded_blocks(0, 1000, row_work) == []


def test_nested_call_from_a_band_runs_serially(three_workers):
    # every thread holds its first block at a barrier, so nested calls run on the calling thread
    # and on both pool threads; each runs in row order on the thread of its outer block. A nested
    # call that waited for the pool would wait on itself: the outer call runs on a thread of its
    # own, so that the test fails instead of hanging
    barrier = threading.Barrier(3, timeout=WAIT)
    inner = []

    def outer(lo, hi):
        if lo < 3:
            barrier.wait()
        inner.append((threading.current_thread().name, recorded_blocks(50, BIG // 50)))

    caller = threading.Thread(target=_pool.map_blocks, args=(outer, 12, BIG), daemon=True)
    caller.start()
    caller.join(timeout=WAIT)
    assert not caller.is_alive()
    assert len(inner) == 12
    assert len({name for name, _ in inner}) == 3
    for name, calls in inner:
        blocks = [(lo, hi) for lo, hi, _ in calls]
        assert covers(blocks, 50) and blocks == sorted(blocks) and len(blocks) == 2
        assert {thread for *_, thread in calls} == {name}


def test_first_error_in_row_order_reaches_the_caller(three_workers):
    # block 1 fails at once, block 0 later: the error of block 0 is raised, once every block
    # that started has ended, and no block is taken after the first error
    started, ended = set(), set()

    def fn(lo, hi):
        started.add(lo)
        if lo != 1:
            time.sleep(0.05)
        ended.add(lo)
        if lo in (0, 1):
            raise ArithmeticError(f"block at row {lo}")

    with pytest.raises(ArithmeticError, match="block at row") as info:
        _pool.map_blocks(fn, 12, BIG)
    assert str(info.value) == "block at row 0"
    assert ended == started
    assert len(started) < 12


def test_serial_error_stops_at_the_first_failing_block(monkeypatch):
    monkeypatch.setattr(_pool, "workers", lambda: 1)
    ran = []

    def fn(lo, hi):
        ran.append(lo)
        if len(ran) == 2:
            raise ArithmeticError(f"block at row {lo}")

    with pytest.raises(ArithmeticError) as info:
        _pool.map_blocks(fn, 100, 4 * _pool.BAND_ENTRIES)
    assert len(ran) == 2 and str(info.value) == f"block at row {ran[1]}"


@pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "pool-thread"])
def test_interrupt_on_the_caller_waits_for_the_pool(three_workers, on_caller):
    # one thread is interrupted in its block while the other two are in theirs; the interrupt
    # reaches the caller only after those blocks have ended, and no block starts after it. On a
    # pool thread it stands for any exception that is not an Exception, which is not lost either
    barrier = threading.Barrier(3, timeout=WAIT)
    caller = threading.current_thread()
    lock = threading.Lock()
    started, ended, interrupted = set(), set(), []

    def fn(lo, hi):
        started.add(lo)
        if lo < 3:
            barrier.wait()
            with lock:
                first = (threading.current_thread() is caller) == on_caller and not interrupted
                if first:
                    interrupted.append(lo)
            if first:
                raise KeyboardInterrupt
        time.sleep(0.05)
        ended.add(lo)

    with pytest.raises(KeyboardInterrupt):
        _pool.map_blocks(fn, 12, BIG)
    assert len(started) == 3 and len(ended) == 2 and len(interrupted) == 1


def test_concurrent_calls_deal_every_block_once(set_workers):
    # more workers than this machine has CPUs, four user threads at once and a short switch
    # interval: a lost update of the dealing counter would skip a block or deal one twice
    set_workers(6)
    results = []

    def calls():
        for _ in range(20):
            counts = np.zeros(300, dtype=int)

            def fn(lo, hi):
                counts[lo:hi] += 1

            _pool.map_blocks(fn, 300, 1000)
            results.append(counts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=calls) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=WAIT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 80 and all((c == 1).all() for c in results)


def test_fork_leaves_the_child_a_fresh_pool(three_workers):
    recorded_blocks(300, BIG // 300)  # make sure the parent has a pool
    assert _pool._executor is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        ok = False
        try:
            fresh = _pool._executor is None
            blocks = [(lo, hi) for lo, hi, _ in recorded_blocks(300, BIG // 300)]
            ok = fresh and covers(blocks, 300) and len(blocks) > 1 and _pool._executor is not None
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish its blocks")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
