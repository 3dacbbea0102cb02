"""Sequential sparse matrix-sparse vector multiplication over a semiring.

``SPMSPV(A, x, SR)`` (paper, Table I) is the workhorse of the algebraic
RCM formulation: one call per BFS step discovers the next frontier.  Two
kernels are provided:

* :func:`spmspv_csc` — the paper's choice.  Only the columns of ``A``
  selected by the nonzeros of ``x`` are touched, so the work is
  ``sum_k nnz(A(:, k))`` for ``k`` in ``IND(x)``.
* :func:`spmspv_csr` — the comparison point for the CSC-vs-CSR ablation
  (paper, Section IV.A: "we use the CSC format as we found it to be the
  fastest for the SpMSpV operation with very sparse vectors").  A CSR
  kernel must intersect every candidate row with the input vector, which
  is slower when ``nnz(x) << n``.

Both kernels support an optional dense boolean ``mask`` that suppresses
output rows (the fused form of the SELECT-by-unvisited step).

A third kernel serves direction optimization (see
:mod:`repro.core.direction`):

* :func:`spmspv_pull` — the masked *pull* (bottom-up) step.  Instead of
  gathering the frontier's columns, it scans the rows selected by the
  mask (the still-unvisited vertices) and intersects each row's pattern
  with the input vector, so the work is
  ``sum_{r : mask[r]} nnz(A(r, :))`` — the winning side when the
  frontier is dense and few vertices remain unvisited.  Results are
  bit-identical to the push kernels: candidates are visited in the same
  ascending-column order the push kernels' dedup sort produces, so even
  order-sensitive semiring reductions agree exactly.

Each kernel is one vectorized numpy implementation.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.ragged import ragged_positions
from ..sparse.spvector import SparseVector
from .semiring import Semiring

__all__ = [
    "spmspv_csc",
    "spmspv_csr",
    "spmspv_pull",
    "spmspv_work",
    "spmspv_pull_work",
    "spmv_dense",
]


def spmspv_work(A: CSCMatrix, x: SparseVector) -> int:
    """Number of scalar semiring operations ``spmspv_csc`` will perform.

    Equals ``sum_{k in IND(x)} nnz(A(:, k))`` — the serial complexity in
    Table I — and is used by the machine model to charge compute time.
    """
    if x.nnz == 0:
        return 0
    return int(np.sum(A.indptr[x.indices + 1] - A.indptr[x.indices]))


def spmspv_pull_work(A: CSRMatrix, mask: np.ndarray | None) -> int:
    """Number of scalar operations ``spmspv_pull`` will perform.

    Equals ``sum_{r : mask[r]} nnz(A(r, :))`` — the bottom-up side of
    the direction switch; the machine model charges pull supersteps with
    exactly this count.
    """
    if mask is None:
        return int(A.nnz)
    degs = A.degrees()
    return int(degs[np.asarray(mask, dtype=bool)].sum())


def _group_reduce(
    rows: np.ndarray, products: np.ndarray, sr: Semiring
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce ``products`` that share a row index with the semiring add.

    Returns sorted unique row indices and their reduced values.
    """
    order = np.argsort(rows, kind="stable")
    rows_sorted = rows[order]
    prods_sorted = products[order]
    boundary = np.empty(rows_sorted.size, dtype=bool)
    boundary[0] = True
    np.not_equal(rows_sorted[1:], rows_sorted[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    reduced = sr.add_ufunc.reduceat(prods_sorted, starts)
    return rows_sorted[starts], np.asarray(reduced, dtype=np.float64)


def spmspv_csc(
    A: CSCMatrix,
    x: SparseVector,
    sr: Semiring,
    mask: np.ndarray | None = None,
) -> SparseVector:
    """``y = A x`` over semiring ``sr`` using column gathers (CSC kernel).

    One vectorized ragged gather of the columns ``IND(x)`` selects, then
    a group-reduce by row.

    Parameters
    ----------
    A:
        ``nrows x ncols`` sparse matrix in CSC.
    x:
        Sparse input of length ``ncols``; payloads feed the semiring
        multiply.
    sr:
        The semiring; for BFS use ``SELECT2ND_MIN``.
    mask:
        Optional dense boolean array of length ``nrows``; rows where the
        mask is False are dropped from the output (fused SELECT).
    """
    if x.n != A.ncols:
        raise ValueError("dimension mismatch between matrix and vector")
    if x.nnz == 0:
        return SparseVector.empty(A.nrows)

    rows, avals, offsets = A.gather_columns(x.indices)
    if rows.size == 0:
        return SparseVector.empty(A.nrows)
    # expand x payloads across each gathered column segment
    seg_lens = np.diff(offsets)
    xvals = np.repeat(x.values, seg_lens)
    products = np.asarray(sr.multiply(avals, xvals), dtype=np.float64)

    if mask is not None:
        keep = mask[rows]
        rows, products = rows[keep], products[keep]
        if rows.size == 0:
            return SparseVector.empty(A.nrows)

    uniq_rows, reduced = _group_reduce(rows, products, sr)
    return SparseVector(A.nrows, uniq_rows, reduced)


def spmspv_csr(
    A: CSRMatrix,
    x: SparseVector,
    sr: Semiring,
    mask: np.ndarray | None = None,
) -> SparseVector:
    """``y = A x`` over semiring ``sr`` using a row-major (CSR) kernel.

    For every candidate output row the kernel intersects the row pattern
    with the nonzeros of ``x`` — O(nnz(A)) regardless of ``nnz(x)`` in the
    unmasked dense-scan form used here.  Exists to quantify the paper's
    CSC-storage design choice; results are identical to
    :func:`spmspv_csc`.
    """
    if x.n != A.ncols:
        raise ValueError("dimension mismatch between matrix and vector")
    if x.nnz == 0:
        return SparseVector.empty(A.nrows)

    x_dense = np.full(A.ncols, np.nan)
    x_dense[x.indices] = x.values
    present = np.zeros(A.ncols, dtype=bool)
    present[x.indices] = True

    hits = present[A.indices]
    if not hits.any():
        return SparseVector.empty(A.nrows)
    rows = A.row_of_entry()[hits]
    avals = A.data[hits]
    xvals = x_dense[A.indices[hits]]
    products = np.asarray(sr.multiply(avals, xvals), dtype=np.float64)

    if mask is not None:
        keep = mask[rows]
        rows, products = rows[keep], products[keep]
        if rows.size == 0:
            return SparseVector.empty(A.nrows)

    uniq_rows, reduced = _group_reduce(rows, products, sr)
    return SparseVector(A.nrows, uniq_rows, reduced)


def spmspv_pull(
    A: CSRMatrix,
    x: SparseVector,
    sr: Semiring,
    mask: np.ndarray | None = None,
) -> SparseVector:
    """Masked pull (bottom-up) ``y = A x``: scan ``mask``'s rows.

    The direction-optimized counterpart of :func:`spmspv_csc`: the same
    semiring product, computed by intersecting each masked row's pattern
    with ``x`` instead of gathering the frontier's columns.  With
    ``mask`` the unvisited set, the output equals
    ``spmspv_csc(A_csc, x, sr, mask)`` bit-for-bit while performing
    :func:`spmspv_pull_work` operations — the smaller side when the
    frontier is dense.  ``mask=None`` scans every row.

    Gathers the adjacency of the mask's rows (one ragged gather), keeps
    the entries whose column is a nonzero of ``x``, and group-reduces by
    row.  Candidate rows are scanned ascending and each row's pattern is
    stored ascending, so for every output row the products arrive in
    ascending-column order — exactly the order ``spmspv_csc`` leaves
    them in after its stable dedup sort, which is what makes push and
    pull bit-identical even for order-sensitive reductions.
    """
    if x.n != A.ncols:
        raise ValueError("dimension mismatch between matrix and vector")
    if x.nnz == 0:
        return SparseVector.empty(A.nrows)

    rows_cand = (
        np.flatnonzero(np.asarray(mask, dtype=bool))
        if mask is not None
        else np.arange(A.nrows, dtype=np.int64)
    )
    if rows_cand.size == 0:
        return SparseVector.empty(A.nrows)
    starts = A.indptr[rows_cand]
    lens = A.indptr[rows_cand + 1] - starts
    gather = ragged_positions(starts, lens)
    if gather.size == 0:
        return SparseVector.empty(A.nrows)
    cols = A.indices[gather]
    avals = A.data[gather]
    rows = np.repeat(rows_cand, lens)

    present = np.zeros(A.ncols, dtype=bool)
    present[x.indices] = True
    hits = present[cols]
    if not hits.any():
        return SparseVector.empty(A.nrows)
    rows, avals, cols = rows[hits], avals[hits], cols[hits]
    x_dense = np.full(A.ncols, np.nan)
    x_dense[x.indices] = x.values
    products = np.asarray(sr.multiply(avals, x_dense[cols]), dtype=np.float64)

    uniq_rows, reduced = _group_reduce(rows, products, sr)
    return SparseVector(A.nrows, uniq_rows, reduced)


def spmv_dense(A: CSRMatrix, x: np.ndarray, sr: Semiring) -> np.ndarray:
    """Dense-vector semiring product ``y = A x``.

    Rows with no nonzeros map to the semiring's additive identity.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.ncols,):
        raise ValueError("dimension mismatch")
    out = np.full(A.nrows, sr.add_identity, dtype=np.float64)
    if A.nnz == 0:
        return out
    products = np.asarray(sr.multiply(A.data, x[A.indices]), dtype=np.float64)
    uniq, reduced = _group_reduce(A.row_of_entry(), products, sr)
    out[uniq] = reduced
    return out
