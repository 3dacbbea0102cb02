"""Simulated collective engine tests: data movement + cost accounting."""

import numpy as np
import pytest

from repro.machine import CollectiveEngine, CostLedger, MachineParams, words_of


@pytest.fixture
def engine():
    machine = MachineParams(alpha=1e-6, beta=1e-9, beta_node=4e-9)
    return CollectiveEngine(machine, CostLedger())


def test_words_of():
    assert words_of(np.zeros(3, dtype=np.float64)) == 3
    assert words_of(np.zeros(3, dtype=np.int32)) == 2  # 12 bytes -> 2 words
    assert words_of(np.empty(0)) == 0


def test_allgather_groups_concatenates(engine):
    groups = [
        [np.array([1.0]), np.array([2.0, 3.0])],
        [np.array([4.0]), np.empty(0)],
    ]
    out = engine.allgather_groups(groups, "r")
    assert np.array_equal(out[0], [1.0, 2.0, 3.0])
    assert np.array_equal(out[1], [4.0])


def test_allgather_cost_zero_for_single_rank(engine):
    sec, msgs, words = engine.allgather_cost(1, 100)
    assert sec == 0.0 and msgs == 0 and words == 0


def test_allgather_charges_max_over_groups(engine):
    big = [np.ones(1000) for _ in range(4)]
    small = [np.ones(1) for _ in range(4)]
    engine.allgather_groups([big, small], "r")
    sec_both = engine.ledger.region("r").comm_seconds
    engine2 = CollectiveEngine(engine.machine, CostLedger())
    engine2.allgather_groups([big], "r")
    sec_big = engine2.ledger.region("r").comm_seconds
    assert sec_both == pytest.approx(sec_big)


def test_alltoall_transpose(engine):
    send = [
        [np.array([f + 10.0 * t]) for t in range(3)] for f in range(3)
    ]
    recv = engine.alltoall(send, "r")
    for j in range(3):
        for i in range(3):
            assert np.array_equal(recv[j][i], send[i][j])


def test_alltoall_conservation(engine):
    rng = np.random.default_rng(0)
    q = 4
    send = [[rng.random(int(rng.integers(0, 5))) for _ in range(q)] for _ in range(q)]
    recv = engine.alltoall(send, "r")
    sent = sum(b.size for row in send for b in row)
    received = sum(b.size for row in recv for b in row)
    assert sent == received


def test_alltoall_ragged_rejected(engine):
    with pytest.raises(ValueError):
        engine.alltoall([[np.empty(0)]] * 2, "r")  # 2 ranks but rows of len 1


def test_alltoall_latency_linear_in_ranks(engine):
    s2, _, _ = engine.alltoall_cost(2, 0)
    s8, _, _ = engine.alltoall_cost(8, 0)
    assert s8 == pytest.approx(7 * s2)


def test_allreduce_scalar(engine):
    total = engine.allreduce_scalar([1.0, 2.0, 3.0], np.sum, "r")
    assert total == 6.0
    assert engine.ledger.region("r").comm_seconds > 0


def test_allreduce_lexmin(engine):
    best = engine.allreduce_lexmin([(2.0, 7.0), (1.0, 9.0), (1.0, 3.0)], "r")
    assert best == (1.0, 3.0)


def test_exscan_counts(engine):
    scan = engine.exscan_counts([3, 1, 4], "r")
    assert np.array_equal(scan, [0, 3, 4])


def test_gather_to_root_uses_node_bandwidth():
    slow_node = MachineParams(alpha=0.0, beta=1e-9, beta_node=1e-6)
    e = CollectiveEngine(slow_node, CostLedger())
    sec, _, _ = e.gather_to_root_cost(4, 1000)
    assert sec == pytest.approx(1e-6 * 1000)


def test_bcast_cost_logarithmic(engine):
    s4, _, _ = engine.bcast_cost(4, 10)
    s16, _, _ = engine.bcast_cost(16, 10)
    # log2(16)/log2(4) = 2 in the latency term
    assert s16 > s4


def test_costs_all_recorded_in_ledger(engine):
    engine.allgather_groups([[np.ones(4)] * 2], "a")
    engine.alltoall([[np.ones(2)] * 2] * 2, "b")
    engine.allreduce_scalar([1.0, 2.0], np.max, "c")
    names = engine.ledger.region_names()
    assert names == ["a", "b", "c"]
