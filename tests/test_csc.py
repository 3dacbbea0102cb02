"""Unit tests for the CSC format (the local block storage of the paper)."""

import numpy as np
import pytest

from repro.sparse import CSCMatrix, CSRMatrix


@pytest.fixture
def small():
    dense = np.array(
        [
            [0.0, 1.0, 0.0],
            [5.0, 0.0, 2.0],
            [0.0, 4.0, 3.0],
        ]
    )
    return CSCMatrix.from_dense(dense), dense


def test_from_dense_roundtrip(small):
    m, dense = small
    assert np.array_equal(m.to_dense(), dense)


def test_col_access(small):
    m, _ = small
    assert np.array_equal(m.col(1), [0, 2])
    assert np.array_equal(m.col_values(1), [1.0, 4.0])


def test_rows_sorted_within_columns(small):
    m, _ = small
    for j in range(m.ncols):
        assert np.all(np.diff(m.col(j)) > 0)


def test_col_degrees(small):
    m, _ = small
    assert np.array_equal(m.col_degrees(), [1, 2, 2])


def test_empty_constructor():
    m = CSCMatrix.empty(3, 5)
    assert m.shape == (3, 5)
    assert m.nnz == 0


def test_gather_columns(small):
    m, _ = small
    rows, vals, offsets = m.gather_columns(np.array([0, 2]))
    assert np.array_equal(offsets, [0, 1, 3])
    assert np.array_equal(rows, [1, 1, 2])
    assert np.array_equal(vals, [5.0, 2.0, 3.0])


def test_gather_columns_empty_selection(small):
    m, _ = small
    rows, vals, offsets = m.gather_columns(np.empty(0, dtype=np.int64))
    assert rows.size == 0 and vals.size == 0
    assert np.array_equal(offsets, [0])


def test_extract_block(small):
    m, dense = small
    blk = m.extract_block(0, 2, 1, 3)
    assert np.array_equal(blk.to_dense(), dense[0:2, 1:3])


def test_to_csr_roundtrip(small):
    m, dense = small
    back = m.to_csr()
    assert isinstance(back, CSRMatrix)
    assert np.array_equal(back.to_dense(), dense)


def test_transpose(small):
    m, dense = small
    assert np.array_equal(m.transpose().to_dense(), dense.T)


def test_bad_indptr_rejected():
    with pytest.raises(ValueError):
        CSCMatrix(2, 2, np.array([0, 1]), np.array([0]))


def test_row_out_of_range_rejected():
    with pytest.raises(ValueError):
        CSCMatrix(2, 2, np.array([0, 1, 1]), np.array([3]))


@pytest.mark.parametrize(
    "cls, n_major, n_minor, dim, minor_axis",
    [(CSRMatrix, 2, 3, "nrows", "column"), (CSCMatrix, 3, 2, "ncols", "row")],
)
def test_each_layout_checks_its_own_axis(cls, n_major, n_minor, dim, minor_axis):
    """A 2 x 3 matrix compresses 2 rows as CSR and 3 columns as CSC."""
    # the other layout's indptr length is rejected, naming this one's axis
    with pytest.raises(ValueError, match=rf"indptr must have {dim} \+ 1 entries"):
        cls(2, 3, np.zeros(n_minor + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    one_entry = np.ones(n_major + 1, dtype=np.int64)
    one_entry[0] = 0
    assert cls(2, 3, one_entry, [n_minor - 1]).shape == (2, 3)
    with pytest.raises(ValueError, match=f"{minor_axis} index out of range"):
        cls(2, 3, one_entry, [n_minor])


def test_symmetric_matrix_csc_equals_csr_arrays():
    """For a symmetric matrix, CSC arrays coincide with CSR arrays —
    the identification the algebraic RCM driver relies on."""
    from tests.conftest import csr_from_edges

    A = csr_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    C = CSCMatrix.from_coo(A.to_coo())
    assert np.array_equal(A.indptr, C.indptr)
    assert np.array_equal(A.indices, C.indices)
