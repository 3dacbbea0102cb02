"""Distributed vector container tests."""

import numpy as np
import pytest

from repro.distributed import DistContext, DistDenseVector, DistSparseVector
from repro.machine import ProcessGrid, zero_latency
from repro.sparse import SparseVector


@pytest.fixture
def ctx():
    return DistContext(ProcessGrid(2, 2), zero_latency())


def test_dense_from_global_roundtrip(ctx):
    v = np.arange(11, dtype=np.float64)
    d = DistDenseVector.from_global(ctx, v)
    assert np.array_equal(d.to_global(), v)


def test_dense_segments_cover_range(ctx):
    d = DistDenseVector.full(ctx, 10, -1.0)
    assert sum(s.size for s in d.segments) == 10
    assert np.all(d.to_global() == -1.0)


def test_dense_get_set(ctx):
    d = DistDenseVector.full(ctx, 10, 0.0)
    d.set(7, 42.0)
    assert d.get(7) == 42.0
    assert d.to_global()[7] == 42.0


def test_dense_wrong_segment_length_rejected(ctx):
    with pytest.raises(ValueError):
        DistDenseVector(ctx, 10, [np.zeros(10)] + [np.zeros(0)] * 3)


def test_dense_copy_independent(ctx):
    d = DistDenseVector.full(ctx, 8, 1.0)
    c = d.copy()
    c.set(0, 5.0)
    assert d.get(0) == 1.0


def test_sparse_from_sparse_roundtrip(ctx):
    x = SparseVector.from_pairs(13, [0, 4, 7, 12], [1.0, 2.0, 3.0, 4.0])
    d = DistSparseVector.from_sparse(ctx, x)
    assert d.to_sparse() == x


def test_sparse_empty(ctx):
    d = DistSparseVector.empty(ctx, 9)
    assert d.nnz_local_sum() == 0
    assert d.to_sparse().nnz == 0


def test_sparse_single_lands_on_owner(ctx):
    d = DistSparseVector.single(ctx, 12, 11, 5.0)
    owner = ctx.grid.vector_owner(12, 11)
    assert d.indices[owner].size == 1
    for k in range(ctx.nprocs):
        if k != owner:
            assert d.indices[k].size == 0


def test_sparse_out_of_segment_rejected(ctx):
    idx = [np.array([9], dtype=np.int64)] + [np.empty(0, dtype=np.int64)] * 3
    vals = [np.array([1.0])] + [np.empty(0)] * 3
    with pytest.raises(ValueError):
        DistSparseVector(ctx, 12, idx, vals)  # index 9 not in rank 0's segment


def test_sparse_unsorted_rejected(ctx):
    offs = ctx.grid.vector_offsets(16)
    idx = [np.array([offs[0] + 1, offs[0]], dtype=np.int64)] + [
        np.empty(0, dtype=np.int64)
    ] * 3
    vals = [np.ones(2)] + [np.empty(0)] * 3
    with pytest.raises(ValueError):
        DistSparseVector(ctx, 16, idx, vals)


def test_sparse_local_nnz(ctx):
    x = SparseVector.from_pairs(12, [0, 1, 2, 11], np.ones(4))
    d = DistSparseVector.from_sparse(ctx, x)
    assert sum(d.local_nnz) == 4


def test_sparse_copy_independent(ctx):
    x = SparseVector.from_pairs(12, [3], [1.0])
    d = DistSparseVector.from_sparse(ctx, x)
    c = d.copy()
    owner = ctx.grid.vector_owner(12, 3)
    c.values[owner][0] = 9.0
    assert d.values[owner][0] == 1.0


def test_sparse_with_values_shares_structure(ctx):
    x = SparseVector.from_pairs(12, [0, 5, 11], [1.0, 2.0, 3.0])
    d = DistSparseVector.from_sparse(ctx, x)
    e = d.with_values(np.array([4, 5, 6]))
    assert e.idx is d.idx and e.starts is d.starts
    assert e.vals.dtype == np.float64 and np.array_equal(e.vals, [4.0, 5.0, 6.0])
    assert np.array_equal(d.vals, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="match nnz"):
        d.with_values(np.ones(2))


def test_sparse_per_rank_shape_mismatch_rejected(ctx):
    # compensating per-rank length mismatches must not pair values with
    # the wrong rank's indices
    offs = ctx.grid.vector_offsets(16)
    idx = [
        np.array([offs[0], offs[0] + 1], dtype=np.int64),
        np.array([offs[1]], dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    ]
    vals = [np.ones(1), np.ones(2), np.empty(0), np.empty(0)]  # totals match
    with pytest.raises(ValueError, match="mismatch"):
        DistSparseVector(ctx, 16, idx, vals)
