"""The fault-injection registry itself: specs, windows, determinism.

The framework is only useful if the *same* armed spec reproduces the
*same* failure sequence on every run — these tests pin that contract
plus the zero-overhead-when-disarmed property the hot paths rely on.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import faults

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# Spec parsing and validation
# ----------------------------------------------------------------------
def test_parse_spec_defaults():
    spec = faults.parse_spec("worker.hang")
    assert spec == faults.FaultSpec("worker.hang", hit=1, count=1, seed=0)


def test_parse_spec_full():
    spec = faults.parse_spec("cache.corrupt_entry:hit=3:count=2:seed=17")
    assert spec.point == "cache.corrupt_entry"
    assert (spec.hit, spec.count, spec.seed) == (3, 2, 17)


def test_parse_spec_tolerates_whitespace():
    spec = faults.parse_spec("  io.truncate : hit=2 ")
    assert spec.point == "io.truncate" and spec.hit == 2


def test_unknown_point_rejected():
    with pytest.raises(ValueError, match="unknown fault point"):
        faults.parse_spec("worker.explode")
    with pytest.raises(ValueError, match="unknown fault point"):
        faults.FaultSpec("not.a.point")


def test_bad_fields_rejected():
    with pytest.raises(ValueError, match="bad fault-spec field"):
        faults.parse_spec("worker.hang:when=3")
    with pytest.raises(ValueError, match="hit must be >= 1"):
        faults.parse_spec("worker.hang:hit=0")
    with pytest.raises(ValueError, match="count must be >= 0"):
        faults.FaultSpec("worker.hang", count=-1)


# ----------------------------------------------------------------------
# Fire windows
# ----------------------------------------------------------------------
def test_fires_in_window_only():
    spec = faults.FaultSpec("worker.hang", hit=3, count=2)
    expect = [False, False, True, True, False, False]
    assert [spec.fires_at(h) for h in range(1, 7)] == expect


def test_count_zero_is_unbounded():
    spec = faults.FaultSpec("worker.hang", hit=2, count=0)
    assert not spec.fires_at(1)
    assert all(spec.fires_at(h) for h in (2, 3, 100, 10**6))


def test_fire_counts_hits_and_logs_events():
    faults.reset()
    faults.arm("io.truncate:hit=2:count=2")
    fired = [faults.fire("io.truncate") is not None for _ in range(5)]
    assert fired == [False, True, True, False, False]
    assert faults.events() == [("io.truncate", 2), ("io.truncate", 3)]


def test_same_spec_same_sequence():
    # the determinism contract: re-arming the identical spec replays the
    # identical firing sequence
    def run():
        faults.reset()
        faults.arm("cache.corrupt_entry:hit=2:seed=9")
        out = []
        for _ in range(4):
            spec = faults.fire("cache.corrupt_entry")
            out.append(None if spec is None else spec.seed)
        return out, faults.events()

    assert run() == run() == ([None, 9, None, None], [("cache.corrupt_entry", 2)])


def test_points_count_independently():
    faults.reset()
    faults.arm("worker.hang:hit=2")
    faults.arm("io.truncate:hit=1")
    assert faults.fire("io.truncate") is not None  # its own counter
    assert faults.fire("worker.hang") is None  # hit 1 of 2
    assert faults.fire("worker.hang") is not None  # hit 2


def test_concurrent_fires_count_every_hit():
    # the pool sends from one thread per busy worker: no hit may be lost,
    # or a hit=N spec fires on the wrong send or never
    threads, per_thread = 8, 50_000
    total = threads * per_thread
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(3):
            faults.reset()
            faults.arm(f"io.truncate:hit={total}")
            start = threading.Barrier(threads)
            fired = []

            def hammer():
                start.wait()
                n = 0
                for _ in range(per_thread):
                    n += faults.fire("io.truncate") is not None
                fired.append(n)

            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in workers)
            assert faults._HITS["io.truncate"] == total
            assert sum(fired) == 1
            assert faults.events() == [("io.truncate", total)]
    finally:
        sys.setswitchinterval(old)
        faults.reset()


# ----------------------------------------------------------------------
# Disarmed behavior: the production hot path
# ----------------------------------------------------------------------
def test_disarmed_fire_is_inert_and_stateless():
    faults.reset()
    for _ in range(10):
        assert faults.fire("worker.hang") is None
    # no bookkeeping happened: arming afterwards starts from hit 1
    faults.arm("worker.hang:hit=1")
    assert faults.fire("worker.hang") is not None


def test_unarmed_point_not_counted_while_other_armed():
    faults.reset()
    faults.arm("io.truncate")
    for _ in range(5):
        assert faults.fire("worker.crash") is None
    faults.arm("worker.crash:hit=1")
    assert faults.fire("worker.crash") is not None  # first *counted* hit


def test_disarm_and_reset():
    faults.reset()
    faults.arm("worker.hang:count=0")
    assert faults.active()
    faults.disarm("worker.hang")
    assert not faults.active()
    assert faults.fire("worker.hang") is None
    faults.arm("worker.hang")
    faults.reset()
    assert not faults.active() and faults.events() == []


# ----------------------------------------------------------------------
# Environment arming (the subprocess / chaos-CI path)
# ----------------------------------------------------------------------
def test_arm_from_env_parses_comma_list():
    faults.reset()
    specs = faults.arm_from_env(
        {"REPRO_FAULTS": "worker.hang:hit=3, cache.corrupt_entry:seed=7"}
    )
    assert [s.point for s in specs] == ["worker.hang", "cache.corrupt_entry"]
    assert specs[1].seed == 7
    assert faults.active()


def test_arm_from_env_empty_is_noop():
    faults.reset()
    assert faults.arm_from_env({}) == []
    assert faults.arm_from_env({"REPRO_FAULTS": "  "}) == []
    assert not faults.active()


def test_arm_from_env_bad_spec_fails_loudly():
    faults.reset()
    with pytest.raises(ValueError, match="unknown fault point"):
        faults.arm_from_env({"REPRO_FAULTS": "tyop.hang"})
