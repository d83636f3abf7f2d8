"""Failure suite for the fork-pool primitive (:mod:`repro.parallel`).

Every failure case checks three things:

* the results equal the serial map, in item order;
* ``pool.fallbacks`` and the ``<name>.pool.fallbacks`` counter are 1
  after a pool failure, 0 for the cases that run serially by design;
* a later map on the same pool runs in the parent.

Kill cases run under a SIGALRM guard, so a map that hangs on a dead
worker fails the test instead of stalling the suite.
"""

import multiprocessing
import os
import signal
from contextlib import contextmanager

import pytest

import repro.parallel as primitive
from repro.obs import Instrumentation, get_instrumentation, use_instrumentation
from repro.parallel import ForkPool, in_worker

NAME = "primitive"
SHARED = 10
ITEMS = list(range(8))
EXPECTED = [SHARED * 100 + item for item in ITEMS]

#: Seconds a pooled map may take before the guard calls it a hang.
GUARD_S = 20

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


class PoolHang(BaseException):
    """A guarded block outlived its deadline.

    A ``BaseException``, so no ``except Exception`` fallback inside the
    code under test can swallow it and turn a hang into a slow pass.
    """


@contextmanager
def hang_guard(seconds=GUARD_S):
    """Raise :class:`PoolHang` if the block outlives ``seconds``."""

    def _expire(signum, frame):
        raise PoolHang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Worker functions (module level: the executor pickles them by name)
# ----------------------------------------------------------------------
def _value(shared, item):
    return shared * 100 + item


def _pid(shared, item):
    return os.getpid()


def _exit_in_worker(shared, item):
    if in_worker() and item == 3:
        os._exit(1)
    return _value(shared, item)


def _sigkill_in_worker(shared, item):
    if in_worker() and item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return _value(shared, item)


def _raise_in_worker(shared, item):
    if in_worker():
        raise RuntimeError("worker failed")
    return _value(shared, item)


def _counting(shared, item):
    get_instrumentation().metrics.counter("primitive.items").inc()
    return _value(shared, item)


def _nested(shared, item):
    inner = ForkPool(2, shared, name=NAME)
    values = inner.map(_value, ITEMS)
    children = len(multiprocessing.active_children())
    in_parent = inner.map(_pid, ITEMS) == [os.getpid()] * len(ITEMS)
    return values, children, inner.fallbacks, in_parent


def _broken_executor(*args, **kwargs):
    raise OSError("cannot start worker processes")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _run(pool, fn):
    backend = Instrumentation()
    with use_instrumentation(backend), hang_guard():
        results = pool.map(fn, ITEMS)
    return results, backend


def _assert_outcome(pool, backend, results, fallbacks):
    assert results == EXPECTED
    assert pool.fallbacks == fallbacks
    counter = backend.metrics.counter(f"{NAME}.pool.fallbacks")
    assert counter.value == fallbacks
    with hang_guard():
        later = pool.map(_pid, ITEMS)
    assert later == [os.getpid()] * len(ITEMS)
    assert pool.fallbacks == fallbacks
    assert not pool.pooled


# ----------------------------------------------------------------------
# Healthy pools
# ----------------------------------------------------------------------
class TestHealthyPool:
    def test_results_come_back_in_item_order_from_workers(self):
        with ForkPool(2, SHARED, name=NAME) as pool:
            with hang_guard():
                assert pool.map(_value, ITEMS) == EXPECTED
                pids = pool.map(_pid, ITEMS)
            assert pool.pooled
        assert os.getpid() not in pids
        assert pool.fallbacks == 0

    def test_chunks_follow_the_pool_map_rule(self):
        with ForkPool(2, SHARED, name=NAME) as pool, hang_guard():
            pool.map(_value, range(10))  # ceil(10 / 8) = 2 per chunk
        assert pool.chunks == 5

    def test_worker_counters_merge_into_the_parent(self):
        with ForkPool(2, SHARED, name=NAME) as pool:
            results, backend = _run(pool, _counting)
        assert results == EXPECTED
        assert backend.metrics.counter("primitive.items").value == len(ITEMS)

    @pytest.mark.parametrize("jobs,items", [(1, ITEMS), (2, ITEMS[:1])])
    def test_one_job_or_one_item_runs_in_the_parent(self, jobs, items):
        with ForkPool(jobs, SHARED, name=NAME) as pool:
            assert pool.map(_pid, items) == [os.getpid()] * len(items)
        assert pool.fallbacks == 0


# ----------------------------------------------------------------------
# Failures: every one re-runs the map serially and retires the pool
# ----------------------------------------------------------------------
class TestFallbacks:
    @pytest.mark.parametrize(
        "fn", [_exit_in_worker, _sigkill_in_worker], ids=["exit", "sigkill"]
    )
    def test_worker_killed_mid_map(self, fn):
        with ForkPool(2, SHARED, name=NAME) as pool:
            results, backend = _run(pool, fn)
            _assert_outcome(pool, backend, results, fallbacks=1)

    def test_exception_raised_in_a_worker(self):
        with ForkPool(2, SHARED, name=NAME) as pool:
            results, backend = _run(pool, _raise_in_worker)
            _assert_outcome(pool, backend, results, fallbacks=1)

    def test_executor_creation_failing(self, monkeypatch):
        monkeypatch.setattr(primitive, "ProcessPoolExecutor", _broken_executor)
        with ForkPool(2, SHARED, name=NAME) as pool:
            results, backend = _run(pool, _value)
            _assert_outcome(pool, backend, results, fallbacks=1)


# ----------------------------------------------------------------------
# Serial by design: no fallback is counted
# ----------------------------------------------------------------------
class TestSerialCases:
    def test_no_fork_start_method(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with ForkPool(2, SHARED, name=NAME) as pool:
            results, backend = _run(pool, _value)
            _assert_outcome(pool, backend, results, fallbacks=0)

    def test_nested_map_inside_a_worker_runs_serially(self):
        with ForkPool(2, SHARED, name=NAME) as pool:
            outputs, backend = _run(pool, _nested)
        assert pool.fallbacks == 0
        assert backend.metrics.counter(f"{NAME}.pool.fallbacks").value == 0
        for values, children, inner_fallbacks, in_parent in outputs:
            assert values == EXPECTED
            assert children == 0
            assert inner_fallbacks == 0
            assert in_parent
