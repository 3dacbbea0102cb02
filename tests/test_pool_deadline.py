"""Deadline-aware dispatch: hang detection, SIGKILL, in-place repair.

The failure mode crashes can't cover: a worker that is *alive but
silent* (wedged in a syscall, spinning, or with its reply lost in
transit).  The pool's per-exchange deadline turns all of those into
:class:`WorkerTimeoutError` — a :class:`WorkerCrashError` subclass, so
the existing ``repair()`` + retry machinery handles hangs unchanged.
Faults are injected via :mod:`repro.faults` (no hand-rolled signals),
so every scenario here is deterministic.
"""

from __future__ import annotations

import time

import pytest

from repro import faults
from repro.runtime import (
    TaskError,
    WorkerCrashError,
    WorkerPool,
    WorkerTimeoutError,
    task,
)

pytestmark = pytest.mark.faults


# registered at import time, before any pool forks
@task("_test_deadline_echo")
def _echo(state, payload):
    return payload


@task("_test_deadline_boom")
def _boom(state, payload):
    raise ValueError(f"boom on {payload}")


@pytest.fixture
def pool():
    p = WorkerPool(2, deadline=2.0)
    yield p
    p.close()


def test_deadline_validation():
    with pytest.raises(ValueError, match="deadline must be positive"):
        WorkerPool(1, deadline=0.0)
    with pytest.raises(ValueError, match="deadline must be positive"):
        WorkerPool(1, deadline=-1.5)


def test_normal_dispatch_under_deadline(pool):
    results, _, _ = pool.map_ranks("_test_deadline_echo", [1, 2, 3])
    assert results == [1, 2, 3]


def test_hang_detected_killed_and_repaired(pool):
    faults.arm("worker.hang:hit=1")
    t0 = time.monotonic()
    with pytest.raises(WorkerTimeoutError, match="deadline .* exceeded"):
        pool.map_ranks("_test_deadline_echo", [1, 2])
    elapsed = time.monotonic() - t0
    assert 1.5 <= elapsed < 10.0  # detected at the deadline, not never
    # the pool refuses dispatch until repaired, like any crash
    with pytest.raises(WorkerCrashError):
        pool.map_ranks("ping", [0, 1])
    replaced = pool.repair()
    assert replaced  # the wedged worker was SIGKILLed and respawned
    # the fault was bounded (count=1): the retry succeeds bit-identically
    results, _, _ = pool.map_ranks("_test_deadline_echo", [10, 20, 30])
    assert results == [10, 20, 30]


def test_timeout_is_a_crash_subclass():
    # recovery code written for crashes must catch timeouts for free
    assert issubclass(WorkerTimeoutError, WorkerCrashError)


def test_dropped_reply_only_deadline_can_catch(pool):
    # the nastiest hang: the worker did the work but the answer is lost
    # — no EOF, no exit code, nothing to poll except the clock
    faults.arm("pipe.drop_reply:hit=1")
    with pytest.raises(WorkerTimeoutError):
        pool.map_ranks("_test_deadline_echo", [1, 2])
    pool.repair()
    results, _, _ = pool.map_ranks("_test_deadline_echo", [5, 6])
    assert results == [5, 6]


def test_injected_crash_rides_the_crash_path(pool):
    # worker.crash is a real death (os._exit): detected as pipe EOF well
    # before the deadline, surfacing as plain WorkerCrashError
    faults.arm("worker.crash:hit=1")
    t0 = time.monotonic()
    with pytest.raises(WorkerCrashError) as excinfo:
        pool.map_ranks("_test_deadline_echo", [1, 2])
    assert not isinstance(excinfo.value, WorkerTimeoutError)
    assert time.monotonic() - t0 < 1.5  # EOF, not deadline expiry
    pool.repair()
    results, _, _ = pool.map_ranks("_test_deadline_echo", [7])
    assert results == [7]


def test_deterministic_hit_selection():
    # hit=3 targets the third message *send*: the first exchange (one
    # send per worker = hits 1-2) is untouched, the second exchange's
    # first send hangs — the same way, every run
    for _ in range(2):
        faults.reset()
        faults.arm("worker.hang:hit=3")
        with WorkerPool(2, deadline=1.0) as pool:
            results, _, _ = pool.map_ranks("_test_deadline_echo", [1, 2])
            assert results == [1, 2]
            with pytest.raises(WorkerTimeoutError):
                pool.map_ranks("_test_deadline_echo", [3, 4])
            assert faults.events() == [("worker.hang", 3)]


# ----------------------------------------------------------------------
# TaskError aggregation (every failed worker, not just the first)
# ----------------------------------------------------------------------
def test_task_error_aggregates_all_failed_workers(pool):
    # both workers raise: the error must carry both tracebacks, so a
    # multi-rank failure can be diagnosed from a single exception
    with pytest.raises(TaskError) as excinfo:
        pool.map_ranks("_test_deadline_boom", ["a", "b"])
    msg = str(excinfo.value)
    assert "2 worker task(s) failed" in msg
    assert "task failed on worker 0" in msg
    assert "task failed on worker 1" in msg
    assert "boom on a" in msg and "boom on b" in msg
    # the pool survives task errors without repair
    results, _, _ = pool.map_ranks("_test_deadline_echo", [9])
    assert results == [9]


def test_task_error_single_failure_stays_concise(pool):
    @task("_test_deadline_boom_one")
    def _boom_one(state, payload):  # pragma: no cover - runs in worker
        if payload == "bad":
            raise ValueError("just this one")
        return payload

    # registered post-fork: use a fresh pool so workers inherit it
    with WorkerPool(2, deadline=5.0) as fresh:
        with pytest.raises(TaskError) as excinfo:
            fresh.map_ranks("_test_deadline_boom_one", ["ok", "bad"])
        msg = str(excinfo.value)
        assert "task(s) failed" not in msg  # no aggregation banner
        assert "just this one" in msg
