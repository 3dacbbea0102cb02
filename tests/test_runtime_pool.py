"""WorkerPool mechanics: dispatch, objects, shared memory, crash, teardown.

These tests assume the default ``fork`` start method (tasks registered at
test-collection time are inherited by workers).
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.runtime import TaskError, WorkerCrashError, WorkerPool, task
from repro.runtime.tasks import TASKS


# registered at import time, before any pool forks
@task("_test_double")
def _double(state, payload):
    return payload * 2


@task("_test_boom")
def _boom(state, payload):
    if payload == "boom":
        raise ValueError("poisoned payload")
    return payload


@task("_test_read_object")
def _read_object(state, payload):
    return state.objects[payload]


@task("_test_sleep")
def _sleep(state, payload):
    time.sleep(payload)
    return payload


@pytest.fixture
def pool():
    p = WorkerPool(2)
    yield p
    p.close()


def test_tasks_registered():
    for name in ("ping", "copy_spans", "spmspv_block", "merge_packed", "lexsort3"):
        assert name in TASKS


def test_map_ranks_preserves_rank_order(pool):
    payloads = list(range(11))
    results, worker_secs, wall = pool.map_ranks("_test_double", payloads)
    assert results == [2 * p for p in payloads]
    assert 0.0 <= worker_secs <= wall


def test_map_ranks_empty_is_a_sync(pool):
    results, worker_secs, wall = pool.map_ranks("ping", [])
    assert results == []
    assert wall > 0.0


def test_assign_contiguous_chunks(pool):
    owner = pool.assign(4)
    assert owner == [0, 0, 1, 1]
    assert pool.assign(1) == [0]
    # more workers than ranks: some workers idle, mapping still valid
    assert all(0 <= w < pool.nworkers for w in pool.assign(3))


def test_task_error_carries_traceback_and_pool_survives(pool):
    with pytest.raises(TaskError, match="poisoned payload"):
        pool.map_ranks("_test_boom", ["fine", "boom"])
    # the worker caught the exception: the pool keeps serving
    results, _, _ = pool.map_ranks("ping", [1, 2, 3])
    assert results == [1, 2, 3]


def test_scatter_object_per_worker(pool):
    pool.scatter_object("blocks", ["left-half", "right-half"])
    assert "blocks" in pool.registered_keys
    results, _, _ = pool.map_ranks("_test_read_object", ["blocks", "blocks"])
    assert results == ["left-half", "right-half"]


def test_drop_object_frees_workers(pool):
    pool.scatter_object("blocks", ["a", "b"])
    pool.drop_object("blocks")
    assert "blocks" not in pool.registered_keys
    with pytest.raises(TaskError, match="KeyError"):
        pool.map_ranks("_test_read_object", ["blocks", "blocks"])
    pool.drop_object("never-registered")  # idempotent


def test_copy_spans_moves_bytes(pool):
    rng = np.random.default_rng(0)
    data = rng.standard_normal(1000)
    pool.in_arena.ensure(data.nbytes)
    pool.out_arena.ensure(data.nbytes)
    np.frombuffer(pool.in_arena.buf, dtype=np.float64, count=data.size)[:] = data
    # two disjoint spans, swapped halves
    half = data.nbytes // 2
    worker_secs, wall = pool.run_copy([(0, half, half), (half, 0, half)])
    assert 0.0 <= worker_secs <= wall
    out = np.frombuffer(pool.out_arena.buf, dtype=np.float64, count=data.size)
    assert np.array_equal(out[500:], data[:500])
    assert np.array_equal(out[:500], data[500:])


def test_arena_grows_by_replacement(pool):
    name_small = pool.in_arena.ensure(16)
    assert pool.in_arena.ensure(8) == name_small  # no shrink, no churn
    name_big = pool.in_arena.ensure(pool.in_arena.nbytes + 1)
    assert name_big != name_small
    # workers can still copy out of the replacement segment
    pool.out_arena.ensure(8)
    pool.in_arena.buf[:8] = b"abcdefgh"
    pool.run_copy([(0, 0, 8)])
    assert bytes(pool.out_arena.buf[:8]) == b"abcdefgh"


def test_worker_crash_detected_and_pool_refuses_further_work(pool):
    os.kill(pool.pids[0], signal.SIGKILL)
    deadline = time.time() + 5.0
    with pytest.raises(WorkerCrashError):
        while time.time() < deadline:  # the kill can race the first send
            pool.map_ranks("ping", [1, 2])
            time.sleep(0.05)
    with pytest.raises(WorkerCrashError):
        pool.map_ranks("ping", [1, 2])
    pool.close()  # teardown after a crash must not raise


def test_close_is_idempotent_and_kills_workers():
    pool = WorkerPool(2)
    pids = pool.pids
    pool.map_ranks("ping", [0])
    pool.close()
    pool.close()
    for pid in pids:
        deadline = time.time() + 5.0
        while time.time() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"worker {pid} still alive after close()")
    with pytest.raises(RuntimeError, match="closed"):
        pool.map_ranks("ping", [0])


def test_pool_requires_at_least_one_worker():
    with pytest.raises(ValueError):
        WorkerPool(0)


# ----------------------------------------------------------------------
# repair(): in-place worker replacement after a crash
# ----------------------------------------------------------------------
def test_repair_replaces_dead_worker_in_place(pool):
    victim = pool.pids[0]
    os.kill(victim, signal.SIGKILL)
    deadline = time.time() + 5.0
    with pytest.raises(WorkerCrashError):
        while time.time() < deadline:
            pool.map_ranks("ping", [1, 2])
            time.sleep(0.05)
    replaced = pool.repair()
    assert 0 in replaced
    assert pool.pids[0] != victim
    # same pool object, dispatch works again, rank order preserved
    results, _, _ = pool.map_ranks("_test_double", [1, 2, 3])
    assert results == [2, 4, 6]


def test_repair_on_healthy_pool_is_a_noop(pool):
    pool.scatter_object("blocks", ["a", "b"])
    assert pool.repair() == []
    assert "blocks" in pool.registered_keys  # nothing replaced, nothing lost


def test_repair_clears_registered_keys_for_rescatter(pool):
    pool.scatter_object("blocks", ["a", "b"])
    os.kill(pool.pids[1], signal.SIGKILL)
    deadline = time.time() + 5.0
    with pytest.raises(WorkerCrashError):
        while time.time() < deadline:
            pool.map_ranks("ping", [1, 2])
            time.sleep(0.05)
    assert 1 in pool.repair()
    # the replacement worker lost its objects; the contract is "re-scatter"
    assert "blocks" not in pool.registered_keys
    pool.scatter_object("blocks", ["a2", "b2"])
    results, _, _ = pool.map_ranks("_test_read_object", ["blocks", "blocks"])
    assert results == ["a2", "b2"]


def test_repair_settles_survivor_replies_mid_exchange(pool):
    # kill worker 0 while worker 1's reply is still owed: repair must
    # drain the stale reply or the next exchange reads garbage
    os.kill(pool.pids[0], signal.SIGKILL)
    deadline = time.time() + 5.0
    with pytest.raises(WorkerCrashError):
        while time.time() < deadline:
            pool.map_ranks("_test_double", [10, 20])
            time.sleep(0.05)
    pool.repair()
    for _ in range(3):  # the protocol stays in sync across exchanges
        results, _, _ = pool.map_ranks("_test_double", [1, 2])
        assert results == [2, 4]


def test_health_is_per_worker_and_repair_spares_busy_workers(pool):
    import threading

    victim, survivor = pool.pids
    os.kill(victim, signal.SIGKILL)
    deadline = time.time() + 5.0
    with pytest.raises(WorkerCrashError):
        while time.time() < deadline:  # the kill can race the first send
            pool.call(0, "_test_double", 1)
            time.sleep(0.05)
    # only worker 0 is down: worker 1 keeps answering
    assert pool.call(1, "_test_double", 21) == 42
    with pytest.raises(WorkerCrashError):
        pool.call(0, "_test_double", 1)
    with pytest.raises(WorkerCrashError):
        pool.map_ranks("_test_double", [1, 2])
    # repair() while worker 1 is inside another thread's slow call
    replies = []
    slow = threading.Thread(
        target=lambda: replies.append(pool.call(1, "_test_sleep", 1.0))
    )
    slow.start()
    deadline = time.time() + 5.0
    while 1 not in pool._busy and time.time() < deadline:  # on the wire
        time.sleep(0.01)
    assert pool.repair() == [0]
    assert slow.is_alive()  # repair() did not wait for, or drain, worker 1
    with pytest.raises(RuntimeError, match="busy"):
        pool.call(1, "_test_double", 1)  # one exchange per worker at a time
    slow.join(timeout=10)
    assert not slow.is_alive() and replies == [1.0]  # the reply arrived intact
    assert pool.pids[0] != victim and pool.pids[1] == survivor
    assert pool.call(0, "_test_double", 2) == 4
    assert pool.call(1, "_test_double", 3) == 6
    results, _, _ = pool.map_ranks("_test_double", [1, 2, 3])
    assert results == [2, 4, 6]


def test_repair_refuses_closed_pool():
    pool = WorkerPool(2)
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.repair()


# ----------------------------------------------------------------------
# Teardown idempotency under double-close / interpreter-exit raciness
# ----------------------------------------------------------------------
def test_close_is_thread_safe_under_concurrent_double_close():
    import threading

    pool = WorkerPool(2)
    pool.map_ranks("ping", [0, 1])
    pids = pool.pids
    errors = []

    def closer():
        try:
            pool.close()
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=closer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    for pid in pids:
        deadline = time.time() + 5.0
        while time.time() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"worker {pid} still alive after concurrent close()")


def test_close_after_crash_then_repair_refused(pool):
    os.kill(pool.pids[0], signal.SIGKILL)
    deadline = time.time() + 5.0
    with pytest.raises(WorkerCrashError):
        while time.time() < deadline:
            pool.map_ranks("ping", [1, 2])
            time.sleep(0.05)
    pool.close()
    pool.close()  # double close after a crash: still silent
    with pytest.raises(RuntimeError, match="closed"):
        pool.repair()


def test_leaked_pool_exits_cleanly_at_interpreter_exit():
    """A leaked (never closed) pool — even with a dead worker — must not
    traceback at interpreter exit; the atexit hook and __del__ race."""
    import subprocess
    import sys

    script = """
import os, signal, sys, time
sys.path.insert(0, %r)
from repro.runtime import WorkerPool

pool = WorkerPool(2)
pool.map_ranks("ping", [0, 1])
os.kill(pool.pids[0], signal.SIGKILL)
time.sleep(0.2)
# no close(): atexit + __del__ must both cope, in either order
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", script % os.path.abspath(src)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
