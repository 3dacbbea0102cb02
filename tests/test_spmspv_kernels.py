"""Sequential SpMSpV kernel tests (CSC and CSR agree; semantics correct)."""

import numpy as np
import pytest

from repro.semiring import (
    BOOLEAN,
    PLUS_TIMES,
    SELECT2ND_MIN,
    spmspv_csc,
    spmspv_csr,
    spmspv_work,
    spmv_dense,
)
from repro.sparse import CSCMatrix, CSRMatrix, SparseVector


@pytest.fixture
def chain_csc(path5):
    return CSCMatrix.from_coo(path5.to_coo())


def test_bfs_step_from_single_vertex(path5, chain_csc):
    x = SparseVector.single(5, 2, 10.0)
    y = spmspv_csc(chain_csc, x, SELECT2ND_MIN)
    assert np.array_equal(y.indices, [1, 3])
    assert np.array_equal(y.values, [10.0, 10.0])  # select2nd propagates payload


def test_min_parent_label_wins(paper_example):
    """Fig. 2 semantics: vertex c attaches to the minimum-label parent."""
    A = CSCMatrix.from_coo(paper_example.to_coo())
    # frontier {e(=4): label 2, b(=1): label 3} as in the figure
    x = SparseVector.from_pairs(8, [1, 4], [3.0, 2.0])
    y = spmspv_csc(A, x, SELECT2ND_MIN)
    c = 2
    pos = np.searchsorted(y.indices, c)
    assert y.indices[pos] == c
    assert y.values[pos] == 2.0  # parent e (label 2), not b (label 3)


def test_empty_input_vector(chain_csc):
    y = spmspv_csc(chain_csc, SparseVector.empty(5), SELECT2ND_MIN)
    assert y.nnz == 0


def test_mask_suppresses_rows(path5, chain_csc):
    x = SparseVector.single(5, 2, 1.0)
    mask = np.array([True, False, True, True, True])
    y = spmspv_csc(chain_csc, x, SELECT2ND_MIN, mask=mask)
    assert np.array_equal(y.indices, [3])


def test_mask_all_false(chain_csc):
    x = SparseVector.single(5, 2, 1.0)
    y = spmspv_csc(chain_csc, x, SELECT2ND_MIN, mask=np.zeros(5, dtype=bool))
    assert y.nnz == 0


def test_dimension_mismatch_rejected(chain_csc):
    with pytest.raises(ValueError):
        spmspv_csc(chain_csc, SparseVector.empty(4), SELECT2ND_MIN)


def test_plus_times_matches_dense_matvec(random_graph):
    A = CSCMatrix.from_coo(random_graph.to_coo())
    rng = np.random.default_rng(0)
    idx = np.sort(rng.choice(random_graph.nrows, size=10, replace=False))
    x = SparseVector(random_graph.nrows, idx.astype(np.int64), rng.random(10))
    y = spmspv_csc(A, x, PLUS_TIMES)
    expected = random_graph.to_dense() @ x.to_dense()
    assert np.allclose(y.to_dense(), expected)


@pytest.mark.parametrize("sr", [SELECT2ND_MIN, PLUS_TIMES, BOOLEAN], ids=lambda s: s.name)
def test_csr_kernel_matches_csc(random_graph, sr):
    A_csc = CSCMatrix.from_coo(random_graph.to_coo())
    rng = np.random.default_rng(4)
    idx = np.sort(rng.choice(random_graph.nrows, size=7, replace=False))
    x = SparseVector(random_graph.nrows, idx.astype(np.int64), 1.0 + rng.random(7))
    assert spmspv_csc(A_csc, x, sr) == spmspv_csr(random_graph, x, sr)
    mask = np.zeros(random_graph.nrows, dtype=bool)
    mask[::2] = True
    y = spmspv_csc(A_csc, x, sr, mask)
    assert y.nnz > 0 and mask[y.indices].all()
    assert y == spmspv_csr(random_graph, x, sr, mask)


def test_spmspv_work_counts_selected_columns(path5, chain_csc):
    x = SparseVector.from_pairs(5, [0, 2], [1.0, 1.0])
    # column 0 has 1 nonzero, column 2 has 2
    assert spmspv_work(chain_csc, x) == 3


def test_spmspv_work_empty(chain_csc):
    assert spmspv_work(chain_csc, SparseVector.empty(5)) == 0


def test_output_indices_sorted_unique(random_graph):
    A = CSCMatrix.from_coo(random_graph.to_coo())
    x = SparseVector.from_pairs(
        random_graph.nrows, np.arange(0, 30, 3), np.arange(10, dtype=float)
    )
    y = spmspv_csc(A, x, SELECT2ND_MIN)
    assert np.all(np.diff(y.indices) > 0)


def test_spmv_dense_identity_rows():
    A = CSRMatrix.identity(3)
    y = spmv_dense(A, np.array([1.0, 2.0, 3.0]), PLUS_TIMES)
    assert np.array_equal(y, [1.0, 2.0, 3.0])


def test_spmv_dense_empty_row_gets_identity():
    A = CSRMatrix(2, 2, np.array([0, 1, 1]), np.array([0]))
    y = spmv_dense(A, np.array([5.0, 6.0]), SELECT2ND_MIN)
    assert y[1] == SELECT2ND_MIN.add_identity
