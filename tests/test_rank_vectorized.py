"""Rank-vectorized driver equivalence vs the per-rank oracle.

The PR-3 tentpole contract: the flat-SoA, rank-vectorized simulated
driver must be *bit-identical* — orderings, modeled ledgers, per-rank
nonzero layouts — to the per-rank reference driver it replaced, which
stays in-tree behind ``DistContext(rank_vectorized=False)``.  This
suite sweeps grid shapes (1x1 … 8x8, square and non-square) and the
paper-suite matrices, property-style, asserting exact agreement.

Also pins two satellite fixes:

* the SpMSpV wire format keeps indices in an int64 lane (round-tripping
  through float64 silently corrupts indices above 2**53);
* Phase C's per-destination split points come from ONE vectorized
  ``searchsorted`` against all piece boundaries, pinned against the old
  nested per-destination loop.
"""

import numpy as np
import pytest

from repro.core.rcm_serial import rcm_serial
from repro.distributed import (
    DistContext,
    DistDenseVector,
    DistSparseMatrix,
    DistSparseVector,
    d_first_index_where,
    d_nnz,
    d_read_dense,
    d_reduce_argmin,
    d_select,
    d_set_dense,
    d_sortperm,
    dist_spmspv,
    rcm_distributed,
)
from repro.distributed.spmspv import PAIR_DTYPE, _pack, _unpack
from repro.machine import CostLedger, MachineParams, ProcessGrid
from repro.matrices.suite import PAPER_SUITE
from repro.semiring import PLUS_TIMES, SELECT2ND_MIN
from repro.sparse import SparseVector

#: The satellite's grid sweep: 1x1 through 8x8, square and non-square.
GRID_SHAPES = [
    (1, 1),
    (1, 4),
    (4, 1),
    (2, 2),
    (2, 3),
    (3, 2),
    (3, 3),
    (2, 8),
    (5, 3),
    (4, 4),
    (8, 8),
]


def assert_ledgers_identical(a: CostLedger, b: CostLedger) -> None:
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


def ctx_pair(pr: int, pc: int) -> tuple[DistContext, DistContext]:
    machine = MachineParams(threads_per_process=1)
    grid = ProcessGrid(pr, pc)
    return (
        DistContext(grid, machine),
        DistContext(grid, machine, rank_vectorized=False),
    )


def assert_vectors_identical(a: DistSparseVector, b: DistSparseVector) -> None:
    """Bit-identical content AND per-rank nnz layout."""
    assert np.array_equal(a.starts, b.starts)
    assert np.array_equal(a.idx, b.idx)
    assert np.array_equal(a.vals, b.vals)


def frontier(n: int, nnz: int, seed: int, span: int = 7) -> SparseVector:
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=min(nnz, n), replace=False)).astype(np.int64)
    return SparseVector(n, idx, rng.integers(0, span, idx.size).astype(np.float64))


# ----------------------------------------------------------------------
# Primitives across every grid shape
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pr,pc", GRID_SHAPES)
def test_primitives_equivalent_across_grids(pr, pc):
    n = 61
    x = frontier(n, 23, seed=pr * 31 + pc)
    dense = np.random.default_rng(5).integers(-1, 3, n).astype(np.float64)
    vec_ctx, ora_ctx = ctx_pair(pr, pc)

    xs = {c: DistSparseVector.from_sparse(c, x) for c in (vec_ctx, ora_ctx)}
    ys = {c: DistDenseVector.from_global(c, dense) for c in (vec_ctx, ora_ctx)}

    sel_v = d_select(xs[vec_ctx], ys[vec_ctx], lambda v: v == -1.0, "t")
    sel_o = d_select(xs[ora_ctx], ys[ora_ctx], lambda v: v == -1.0, "t")
    assert_vectors_identical(sel_v, sel_o)

    rd_v = d_read_dense(xs[vec_ctx], ys[vec_ctx], "t")
    rd_o = d_read_dense(xs[ora_ctx], ys[ora_ctx], "t")
    assert_vectors_identical(rd_v, rd_o)

    d_set_dense(ys[vec_ctx], xs[vec_ctx], "t")
    d_set_dense(ys[ora_ctx], xs[ora_ctx], "t")
    assert np.array_equal(ys[vec_ctx].to_global(), ys[ora_ctx].to_global())

    assert d_nnz(xs[vec_ctx], "t") == d_nnz(xs[ora_ctx], "t")
    assert d_reduce_argmin(xs[vec_ctx], ys[vec_ctx], "t") == d_reduce_argmin(
        xs[ora_ctx], ys[ora_ctx], "t"
    )
    assert d_first_index_where(
        ys[vec_ctx], lambda s: s == 0.0, "t"
    ) == d_first_index_where(ys[ora_ctx], lambda s: s == 0.0, "t")

    assert_ledgers_identical(vec_ctx.ledger, ora_ctx.ledger)


@pytest.mark.parametrize("pr,pc", GRID_SHAPES)
def test_sortperm_equivalent_across_grids(pr, pc):
    n, base, span = 57, 4, 9
    x = frontier(n, 19, seed=pr * 17 + pc, span=span)
    x = SparseVector(n, x.indices, x.values + base)
    degrees = np.random.default_rng(9).integers(1, 6, n).astype(np.float64)
    vec_ctx, ora_ctx = ctx_pair(pr, pc)
    out_v = d_sortperm(
        DistSparseVector.from_sparse(vec_ctx, x),
        DistDenseVector.from_global(vec_ctx, degrees),
        base,
        span,
        "sort",
    )
    out_o = d_sortperm(
        DistSparseVector.from_sparse(ora_ctx, x),
        DistDenseVector.from_global(ora_ctx, degrees),
        base,
        span,
        "sort",
    )
    assert_vectors_identical(out_v, out_o)
    assert_ledgers_identical(vec_ctx.ledger, ora_ctx.ledger)


@pytest.mark.parametrize("pr,pc", GRID_SHAPES)
@pytest.mark.parametrize("sr", [SELECT2ND_MIN, PLUS_TIMES])
def test_spmspv_equivalent_across_grids(pr, pc, sr, grid8x8):
    x = frontier(grid8x8.nrows, 13, seed=pr * 13 + pc)
    vec_ctx, ora_ctx = ctx_pair(pr, pc)
    y_v = dist_spmspv(
        DistSparseMatrix.from_csr(vec_ctx, grid8x8),
        DistSparseVector.from_sparse(vec_ctx, x),
        sr,
        "spmspv",
    )
    y_o = dist_spmspv(
        DistSparseMatrix.from_csr(ora_ctx, grid8x8),
        DistSparseVector.from_sparse(ora_ctx, x),
        sr,
        "spmspv",
    )
    assert_vectors_identical(y_v, y_o)
    assert_ledgers_identical(vec_ctx.ledger, ora_ctx.ledger)


@pytest.mark.parametrize("pr,pc", GRID_SHAPES)
def test_spmspv_empty_frontier_equivalent(pr, pc, grid8x8):
    vec_ctx, ora_ctx = ctx_pair(pr, pc)
    y_v = dist_spmspv(
        DistSparseMatrix.from_csr(vec_ctx, grid8x8),
        DistSparseVector.empty(vec_ctx, grid8x8.nrows),
        SELECT2ND_MIN,
        "spmspv",
    )
    y_o = dist_spmspv(
        DistSparseMatrix.from_csr(ora_ctx, grid8x8),
        DistSparseVector.empty(ora_ctx, grid8x8.nrows),
        SELECT2ND_MIN,
        "spmspv",
    )
    assert_vectors_identical(y_v, y_o)
    assert_ledgers_identical(vec_ctx.ledger, ora_ctx.ledger)


# ----------------------------------------------------------------------
# Full RCM on the paper suite
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["nd24k", "ldoor", "serena", "li7nmax6"])
@pytest.mark.parametrize("pr,pc", [(1, 1), (2, 2), (2, 3), (4, 4)])
def test_rcm_orderings_and_ledgers_identical(name, pr, pc):
    A = PAPER_SUITE[name].build(0.35)
    serial = rcm_serial(A)
    vec_ctx, ora_ctx = ctx_pair(pr, pc)
    res_v = rcm_distributed(A, ctx=vec_ctx)
    res_o = rcm_distributed(A, ctx=ora_ctx)
    assert np.array_equal(res_v.ordering.perm, res_o.ordering.perm)
    assert np.array_equal(res_v.ordering.perm, serial.perm)
    assert res_v.spmspv_calls == res_o.spmspv_calls
    assert_ledgers_identical(res_v.ledger, res_o.ledger)


@pytest.mark.parametrize("sort_impl", ["bucket", "sample", "none"])
def test_rcm_sort_impls_identical(sort_impl, grid8x8):
    vec_ctx, ora_ctx = ctx_pair(2, 3)
    res_v = rcm_distributed(grid8x8, ctx=vec_ctx, sort_impl=sort_impl)
    res_o = rcm_distributed(grid8x8, ctx=ora_ctx, sort_impl=sort_impl)
    assert np.array_equal(res_v.ordering.perm, res_o.ordering.perm)
    assert_ledgers_identical(res_v.ledger, res_o.ledger)


# ----------------------------------------------------------------------
# Satellite: SpMSpV wire format keeps int64 indices intact
# ----------------------------------------------------------------------
def test_pack_roundtrips_indices_beyond_float53():
    # 2**53 + 1 is the first integer float64 cannot represent; the old
    # (index, value) float64-pair wire format silently mapped it to 2**53
    edge = np.array(
        [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**62], dtype=np.int64
    )
    vals = np.arange(edge.size, dtype=np.float64)
    idx, out_vals = _unpack(_pack(edge, vals))
    assert idx.dtype == np.int64
    assert np.array_equal(idx, edge)
    assert np.array_equal(out_vals, vals)
    # the regression the structured dtype fixes:
    assert np.int64(np.float64(2**53 + 1)) != 2**53 + 1


def test_pack_wire_size_unchanged():
    # the ledger charges words from wire bytes; the structured dtype must
    # keep the 16-bytes-per-entry footprint of the old (k, 2) float64 rows
    assert PAIR_DTYPE.itemsize == 16
    packed = _pack(np.arange(5, dtype=np.int64), np.ones(5))
    assert packed.nbytes == 5 * 16


def test_unpack_empty():
    idx, vals = _unpack(_pack(np.empty(0, dtype=np.int64), np.empty(0)))
    assert idx.size == 0 and vals.size == 0
    assert idx.dtype == np.int64 and vals.dtype == np.float64


# ----------------------------------------------------------------------
# Satellite: Phase C split points — one searchsorted vs the old loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pc", [1, 2, 3, 5, 8])
def test_phase_c_vectorized_split_points_match_old_loop(pc):
    # a partial output's global rows, split against the destination piece
    # boundaries of one processor row: the single vectorized searchsorted
    # must pin the exact (a, b) pairs the nested per-destination loop took
    rng = np.random.default_rng(pc)
    n = 97
    grid = ProcessGrid(2, pc)
    offs = grid.vector_offsets(n)
    for i in range(grid.pr):
        row_lo = offs[i * pc]
        row_hi = offs[(i + 1) * pc]
        pool = np.arange(row_lo, row_hi, dtype=np.int64)
        grows = np.sort(rng.choice(pool, size=min(17, pool.size), replace=False))
        # old nested loop (verbatim from the pre-PR3 Phase C)
        old = []
        for t in range(pc):
            dest_rank = i * pc + t
            a = np.searchsorted(grows, offs[dest_rank], side="left")
            b = np.searchsorted(grows, offs[dest_rank + 1], side="left")
            old.append((a, b))
        # new: one call against all piece boundaries at once
        cuts = np.searchsorted(grows, offs[i * pc : (i + 1) * pc + 1], side="left")
        new = [(cuts[t], cuts[t + 1]) for t in range(pc)]
        assert new == old


# ----------------------------------------------------------------------
# PLUS_TIMES reduction order: float sums that change with the order
# ----------------------------------------------------------------------
#: 1e16 + 1 rounds back to 1e16, so sums over these values depend on
#: the order and grouping of the additions.
ORDER_SENSITIVE = np.array([1e16, 1.0, -1e16])


def _add(values):
    """The semiring add over one segment, as the drivers apply it."""
    return PLUS_TIMES.add_ufunc.reduceat(np.asarray(values, dtype=np.float64), [0])[0]


@pytest.mark.parametrize("pr,pc", [(1, 1), (2, 3), (4, 4)])
def test_plus_times_reduction_order_pinned(pr, pc):
    """Flat and per-rank drivers add in the per-block kernel's order.

    Every rank adds its products of a row in frontier order; Phase C
    then adds the ranks' partials in grid-column order.  The input
    values differ per grid column, so a driver that fuses the two sums
    or reorders either one gives another float result.
    """
    from repro.matrices.random_graphs import erdos_renyi

    # ~12 neighbors a row: most rows reach three or more grid columns
    A = erdos_renyi(48, 12.0, seed=5)
    n = A.nrows
    vec_ctx, ora_ctx = ctx_pair(pr, pc)
    dA_v = DistSparseMatrix.from_csr(vec_ctx, A)
    dA_o = DistSparseMatrix.from_csr(ora_ctx, A)
    idx = np.arange(n, dtype=np.int64)
    col_block = np.searchsorted(dA_v.col_offsets, idx, side="right") - 1
    x = SparseVector(n, idx, ORDER_SENSITIVE[(idx + col_block) % 3])
    y_v = dist_spmspv(dA_v, DistSparseVector.from_sparse(vec_ctx, x), PLUS_TIMES, "s")
    y_o = dist_spmspv(dA_o, DistSparseVector.from_sparse(ora_ctx, x), PLUS_TIMES, "s")
    assert_vectors_identical(y_v, y_o)
    assert_ledgers_identical(vec_ctx.ledger, ora_ctx.ledger)

    # the two-level sum, written out row by row
    expected, fused, reversed_ = [], [], []
    for r in range(n):
        cols = A.row(r)
        products = A.data[A.indptr[r] : A.indptr[r + 1]] * x.values[cols]
        partials = [
            _add(products[col_block[cols] == j])
            for j in range(pc)
            if (col_block[cols] == j).any()
        ]
        expected.append(_add(partials))
        fused.append(_add(products))
        reversed_.append(_add(products[::-1]))
    assert np.array_equal(y_v.idx, idx)
    assert np.array_equal(y_v.vals, expected)
    # the data can tell the orders apart
    assert not np.array_equal(expected, reversed_)
    if pc > 1:
        assert not np.array_equal(expected, fused)
