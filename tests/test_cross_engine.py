"""Cross-engine equivalence: processes engine vs simulated oracle vs serial.

The engine contract (DESIGN.md, "Execution engines"): for every
collective and every distributed algorithm, the processes engine must
return bit-identical results *and* charge a bit-identical modeled
ledger.  The worker count comes from ``REPRO_TEST_PROCS`` (CI smoke
forces 2) and is deliberately decoupled from the rank count so
oversubscription is exercised.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.bfs import bfs_levels, bfs_parents
from repro.core.rcm_serial import rcm_serial
from repro.distributed import (
    DistContext,
    DistSparseMatrix,
    DistSparseVector,
    dist_bfs,
    dist_spmspv,
)
from repro.distributed.rcm import rcm_distributed
from repro.machine import CostLedger, MachineParams, ProcessGrid
from repro.matrices.stencil import stencil_2d
from repro.matrices.suite import PAPER_SUITE
from repro.runtime import WorkerCrashError, WorkerPool
from repro.semiring.semiring import SELECT2ND_MIN
from repro.sparse.permute import random_symmetric_permutation
from repro.sparse.spvector import SparseVector

NPROCS = int(os.environ.get("REPRO_TEST_PROCS", "2"))


@pytest.fixture(scope="module")
def pool():
    p = WorkerPool(NPROCS)
    yield p
    p.close()


def _ctx_pair(grid: ProcessGrid, pool) -> tuple[DistContext, DistContext]:
    machine = MachineParams(threads_per_process=1)
    return (
        DistContext(grid, machine),
        DistContext(grid, machine, engine="processes", pool=pool),
    )


def _assert_ledgers_identical(a: CostLedger, b: CostLedger) -> None:
    assert a.region_names() == b.region_names()
    for name in a.region_names():
        ra, rb = a.region(name), b.region(name)
        assert ra.compute_seconds == rb.compute_seconds, name
        assert ra.comm_seconds == rb.comm_seconds, name
        assert (ra.operations, ra.messages, ra.words) == (
            rb.operations,
            rb.messages,
            rb.words,
        ), name


def _matrix(seed: int = 3):
    A, _ = random_symmetric_permutation(stencil_2d(18, 18), seed=seed)
    return A


# ----------------------------------------------------------------------
# Collectives contract
# ----------------------------------------------------------------------
def test_collectives_bit_identical(pool):
    rng = np.random.default_rng(7)
    sim, proc = _ctx_pair(ProcessGrid(2, 2), pool)

    groups = [
        [rng.standard_normal((rng.integers(0, 9), 2)) for _ in range(4)],
        [],
        [rng.standard_normal((5, 2))],
    ]
    ga_s = sim.engine.allgather_groups(groups, "r")
    ga_p = proc.engine.allgather_groups(groups, "r")
    assert len(ga_s) == len(ga_p)
    for a, b in zip(ga_s, ga_p):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)

    send = [
        [rng.standard_normal((rng.integers(0, 5), 3)) for _ in range(3)]
        for _ in range(3)
    ]
    at_s = sim.engine.alltoall(send, "r")
    at_p = proc.engine.alltoall(send, "r")
    for j in range(3):
        for i in range(3):
            assert np.array_equal(at_s[j][i], at_p[j][i])

    vals = [3.0, 1.0, 2.0, 1.0]
    assert sim.engine.allreduce_scalar(vals, np.sum, "r") == proc.engine.allreduce_scalar(
        vals, np.sum, "r"
    )
    pairs = [(2.0, 9.0), (1.0, 5.0), (1.0, 3.0)]
    assert sim.engine.allreduce_lexmin(pairs, "r") == proc.engine.allreduce_lexmin(pairs, "r")
    assert np.array_equal(
        sim.engine.exscan_counts([3, 1, 4, 1], "r"),
        proc.engine.exscan_counts([3, 1, 4, 1], "r"),
    )
    _assert_ledgers_identical(sim.ledger, proc.ledger)


def test_allgather_heterogeneous_group_falls_back(pool):
    # mixed dtypes force the driver fallback path; results must still match
    sim, proc = _ctx_pair(ProcessGrid(1, 2), pool)
    groups = [[np.arange(3, dtype=np.int64), np.arange(2, dtype=np.float64)]]
    a = sim.engine.allgather_groups(groups, "r")[0]
    b = proc.engine.allgather_groups(groups, "r")[0]
    assert a.dtype == b.dtype and np.array_equal(a, b)
    _assert_ledgers_identical(sim.ledger, proc.ledger)


# ----------------------------------------------------------------------
# Distributed kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("grid", [ProcessGrid(2, 2), ProcessGrid(1, 2)])
def test_spmspv_bit_identical(pool, grid):
    A = _matrix()
    sim, proc = _ctx_pair(grid, pool)
    x = SparseVector(A.nrows, np.array([0, 5, 17], dtype=np.int64), np.array([0.0, 5.0, 17.0]))
    ys = dist_spmspv(
        DistSparseMatrix.from_csr(sim, A),
        DistSparseVector.from_sparse(sim, x),
        SELECT2ND_MIN,
        "spmspv",
    ).to_sparse()
    yp = dist_spmspv(
        DistSparseMatrix.from_csr(proc, A),
        DistSparseVector.from_sparse(proc, x),
        SELECT2ND_MIN,
        "spmspv",
    ).to_sparse()
    assert np.array_equal(ys.indices, yp.indices)
    assert np.array_equal(ys.values, yp.values)
    _assert_ledgers_identical(sim.ledger, proc.ledger)


def test_bfs_bit_identical_and_matches_serial(pool):
    A = _matrix(seed=5)
    sim, proc = _ctx_pair(ProcessGrid(2, 2), pool)
    rs = dist_bfs(DistSparseMatrix.from_csr(sim, A), 0, compute_parents=True)
    rp = dist_bfs(DistSparseMatrix.from_csr(proc, A), 0, compute_parents=True)
    assert np.array_equal(rs.levels, rp.levels)
    assert np.array_equal(rs.parents, rp.parents)
    levels, _ = bfs_levels(A, 0)
    parents = bfs_parents(A, 0)
    assert np.array_equal(rp.levels, levels)
    assert np.array_equal(rp.parents, parents)
    _assert_ledgers_identical(sim.ledger, proc.ledger)


@pytest.mark.parametrize("name", ["nd24k", "li7nmax6"])
def test_rcm_bit_identical_on_paper_suite(pool, name):
    A = PAPER_SUITE[name].build(0.35)
    serial = rcm_serial(A)
    grid = ProcessGrid.fitting(4)
    sim_res = rcm_distributed(A, ctx=DistContext(grid))
    proc_res = rcm_distributed(
        A, ctx=DistContext(grid, engine="processes", pool=pool)
    )
    assert np.array_equal(proc_res.ordering.perm, sim_res.ordering.perm)
    assert np.array_equal(proc_res.ordering.perm, serial.perm)
    _assert_ledgers_identical(sim_res.ledger, proc_res.ledger)


@pytest.mark.parametrize("sort_impl", ["bucket", "sample", "none"])
def test_rcm_sort_impls_bit_identical(pool, sort_impl):
    A = _matrix(seed=9)
    grid = ProcessGrid(1, NPROCS)
    sim_res = rcm_distributed(A, ctx=DistContext(grid), sort_impl=sort_impl)
    proc_res = rcm_distributed(
        A,
        ctx=DistContext(grid, engine="processes", pool=pool),
        sort_impl=sort_impl,
    )
    assert np.array_equal(proc_res.ordering.perm, sim_res.ordering.perm)
    _assert_ledgers_identical(sim_res.ledger, proc_res.ledger)


def test_random_permute_and_backends_survive_engine_swap(pool):
    A = _matrix(seed=13)
    grid = ProcessGrid(2, 2)
    sim_res = rcm_distributed(A, ctx=DistContext(grid), random_permute=0)
    proc_res = rcm_distributed(
        A,
        ctx=DistContext(grid, engine="processes", pool=pool),
        random_permute=0,
    )
    assert np.array_equal(proc_res.ordering.perm, sim_res.ordering.perm)


# ----------------------------------------------------------------------
# Measured ledger semantics
# ----------------------------------------------------------------------
def test_measured_ledger_only_on_processes_engine(pool):
    A = _matrix(seed=1)
    grid = ProcessGrid(1, 2)
    with DistContext(grid) as sim:
        rcm_distributed(A, ctx=sim)
        assert sim.measured.total_seconds == 0.0
    proc = DistContext(grid, engine="processes", pool=pool)
    rcm_distributed(A, ctx=proc)
    assert proc.measured.total_seconds > 0.0
    # host staging is accounted under :host subregions of real phases
    assert any(n.endswith(":host") for n in proc.measured.region_names())
    comp, comm = proc.measured.comm_split()
    assert comp > 0.0 and comm > 0.0


def test_calibration_report_runs(pool):
    from repro.runtime import format_calibration

    A = _matrix(seed=2)
    proc = DistContext(ProcessGrid(1, 2), engine="processes", pool=pool)
    res = rcm_distributed(A, ctx=proc)
    text = format_calibration(res.ledger, proc.measured)
    assert "measured/modeled" in text and "total" in text


# ----------------------------------------------------------------------
# Context lifecycle and failure handling
# ----------------------------------------------------------------------
def test_context_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        DistContext(ProcessGrid(1, 1), engine="mpi")
    with pytest.raises(ValueError, match="processes engine"):
        DistContext(ProcessGrid(1, 1), procs=2)


def test_rcm_rejects_engine_conflicting_with_ctx(pool):
    A = _matrix(seed=8)
    with pytest.raises(ValueError, match="conflicts"):
        rcm_distributed(A, ctx=DistContext(ProcessGrid(1, 2)), engine="processes")
    with pytest.raises(ValueError, match="conflicts"):
        rcm_distributed(A, ctx=DistContext(ProcessGrid(1, 2)), procs=2)
    # consistent redundancy is allowed
    ctx = DistContext(ProcessGrid(1, 2), engine="processes", pool=pool)
    res = rcm_distributed(A, ctx=ctx, engine="processes")
    assert res.ordering.perm.size == A.nrows


def test_shared_pool_releases_matrix_blocks_after_rcm(pool):
    A = _matrix(seed=7)
    ctx = DistContext(ProcessGrid(1, 2), engine="processes", pool=pool)
    before = set(pool.registered_keys)
    rcm_distributed(A, ctx=ctx)
    assert set(pool.registered_keys) == before  # nothing left resident


def test_context_owns_pool_and_closes_it():
    ctx = DistContext(ProcessGrid(1, 2), engine="processes", procs=2)
    assert ctx.pool is not None
    pids = ctx.pool.pids
    rcm_distributed(_matrix(seed=4), ctx=ctx)
    ctx.close()
    deadline = time.time() + 5.0
    for pid in pids:
        while time.time() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("context-owned pool leaked workers")


def test_worker_crash_mid_run_raises_and_tears_down():
    ctx = DistContext(ProcessGrid(1, 2), engine="processes", procs=2)
    os.kill(ctx.pool.pids[0], signal.SIGKILL)
    A = _matrix(seed=6)
    deadline = time.time() + 5.0
    with pytest.raises(WorkerCrashError):
        while time.time() < deadline:  # the kill can race the first dispatch
            rcm_distributed(A, ctx=ctx)
            time.sleep(0.05)
    ctx.close()  # teardown after a crash must not raise


@pytest.mark.faults
def test_repaired_pool_reruns_a_pre_distributed_matrix():
    # repair() empties the replaced worker's object store, so the next
    # run must re-scatter the rank-resident blocks onto it
    from repro import faults

    A = PAPER_SUITE["nd24k"].build(1.0)
    expect = rcm_distributed(A, nprocs=4).ordering.perm
    pool = WorkerPool(2)
    try:
        ctx = DistContext(ProcessGrid.square(4), engine="processes", pool=pool)
        dA = DistSparseMatrix.from_csr(ctx, A)
        assert np.array_equal(rcm_distributed(dA).ordering.perm, expect)
        faults.arm("worker.crash:hit=1")
        with pytest.raises(WorkerCrashError):
            rcm_distributed(dA)
        faults.reset()
        assert pool.repair()  # the crashed worker was replaced
        assert np.array_equal(rcm_distributed(dA).ordering.perm, expect)
    finally:
        pool.close()
