"""Row bands on the shared thread pool: cover, order of errors, nesting, fork."""

import os
import threading
import time
import warnings

import numpy as np
import pytest

from tscat2d import _pool

BIG = 4 * _pool.MIN_ENTRIES


@pytest.fixture
def three_workers(monkeypatch):
    # more workers than this machine may have CPUs, so the bands run on any machine
    monkeypatch.setattr(_pool, "workers", lambda: 3)


def recorded_bands(nrows, entries, row_work=None):
    bands, threads = [], set()
    lock = threading.Lock()

    def fn(lo, hi):
        with lock:
            bands.append((lo, hi))
            threads.add(threading.current_thread().name)

    _pool.map_bands(fn, nrows, entries, row_work)
    return sorted(bands), threads


@pytest.mark.parametrize("nrows", [2, 7, 300])
def test_bands_cover_every_row_once(three_workers, nrows):
    bands, threads = recorded_bands(nrows, BIG)
    assert bands[0][0] == 0 and bands[-1][1] == nrows
    assert all(hi == lo for (_, hi), (lo, _) in zip(bands, bands[1:]))
    assert all(lo < hi for lo, hi in bands)
    assert len(bands) == min(nrows, max(3, round(BIG / _pool.BAND_ENTRIES)))
    assert all(name.startswith("tscat2d-band") for name in threads)


def test_bands_hold_equal_shares_of_the_row_work(three_workers):
    m = 600
    work = np.arange(m, 0, -1)  # upper-triangle entries per row
    bands, _ = recorded_bands(m, m * (m + 1) // 2, work)
    shares = [work[lo:hi].sum() for lo, hi in bands]
    assert max(shares) - min(shares) <= work.max()
    assert bands[0][1] - bands[0][0] < bands[-1][1] - bands[-1][0]  # long rows first


@pytest.mark.parametrize(
    "workers, entries", [(1, BIG), (3, _pool.MIN_ENTRIES - 1)], ids=["one-cpu", "small"]
)
def test_serial_cases_run_one_band_on_the_caller(monkeypatch, workers, entries):
    monkeypatch.setattr(_pool, "workers", lambda: workers)
    bands, threads = recorded_bands(100, entries)
    assert bands == [(0, 100)]
    assert threads == {threading.current_thread().name}


@pytest.mark.parametrize("row_entries", [1000, 2 * _pool.BAND_ENTRIES])
@pytest.mark.parametrize("workers", [1, 3])
def test_blocks_cover_every_row_once_in_small_blocks(monkeypatch, workers, row_entries):
    # on one worker the single band is cut into blocks too, which bounds a fill's temporaries
    monkeypatch.setattr(_pool, "workers", lambda: workers)
    blocks = []
    lock = threading.Lock()

    def fn(lo, hi):
        with lock:
            blocks.append((lo, hi))

    _pool.map_blocks(fn, 300, row_entries)
    blocks.sort()
    assert blocks[0][0] == 0 and blocks[-1][1] == 300
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    assert all(hi - lo == 1 or (hi - lo) * row_entries <= _pool.BAND_ENTRIES for lo, hi in blocks)
    assert all(lo < hi for lo, hi in blocks)


def test_nested_call_from_a_band_runs_serially(three_workers):
    inner = []

    def outer(lo, hi):
        recorded = recorded_bands(50, BIG)
        inner.append(recorded)

    _pool.map_bands(outer, 40, BIG)
    assert inner and all(bands == [(0, 50)] for bands, _ in inner)


def test_first_error_in_row_order_reaches_the_caller(three_workers):
    done = []

    def fn(lo, hi):
        time.sleep(0.01 * (hi < 100))  # the failing later bands finish first
        done.append(lo)
        if lo > 0:
            raise ArithmeticError(f"band at row {lo}")

    with pytest.raises(ArithmeticError, match="band at row") as info:
        _pool.map_bands(fn, 300, BIG)
    later = sorted(done)[1]
    assert str(info.value) == f"band at row {later}"
    assert len(done) == len(recorded_bands(300, BIG)[0])  # every band ran to its end


def test_fork_leaves_the_child_a_fresh_pool(three_workers):
    recorded_bands(300, BIG)  # make sure the parent has a pool
    assert _pool._executor is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        ok = False
        try:
            fresh = _pool._executor is None
            bands, threads = recorded_bands(300, BIG)
            ok = fresh and len(bands) > 1 and bands[-1][1] == 300 and _pool._executor is not None
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
            pytest.fail("forked child did not finish its bands")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
