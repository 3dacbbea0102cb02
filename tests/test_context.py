"""DistContext BSP charging semantics."""

import pytest

from repro.distributed import DistContext
from repro.machine import CostLedger, MachineParams, ProcessGrid, edison


def test_defaults():
    ctx = DistContext(ProcessGrid(2, 2))
    assert ctx.nprocs == 4
    assert ctx.machine.threads_per_process == 6  # edison default
    assert ctx.cores == 24


def test_charge_compute_takes_max():
    machine = MachineParams(gamma=1.0, threads_per_process=1)
    ctx = DistContext(ProcessGrid(2, 2), machine)
    ctx.charge_compute("r", [1, 5, 2, 3])
    assert ctx.ledger.region("r").compute_seconds == pytest.approx(5.0)
    assert ctx.ledger.region("r").operations == 11


def test_charge_compute_empty_is_noop():
    ctx = DistContext(ProcessGrid(1, 1))
    ctx.charge_compute("r", [])
    assert ctx.ledger.total_seconds == 0.0


def test_charge_sort_takes_max():
    machine = MachineParams(gamma_sort=1.0, threads_per_process=1)
    ctx = DistContext(ProcessGrid(2, 2), machine)
    ctx.charge_sort("r", [0, 1024, 2])
    # slowest rank: 1024 * log2(1024) = 10240 comparisons
    assert ctx.ledger.region("r").compute_seconds == pytest.approx(10240.0)


def test_threads_divide_compute_time():
    m1 = MachineParams(threads_per_process=1)
    m6 = MachineParams(threads_per_process=6)
    c1 = DistContext(ProcessGrid(1, 1), m1)
    c6 = DistContext(ProcessGrid(1, 1), m6)
    c1.charge_compute("r", [1_000_000])
    c6.charge_compute("r", [1_000_000])
    assert c6.ledger.total_seconds < c1.ledger.total_seconds


def test_explicit_ledger_used():
    ledger = CostLedger()
    ctx = DistContext(ProcessGrid(1, 1), edison(), ledger)
    ctx.charge_compute("r", [10])
    assert ledger.total_seconds > 0
