"""scipy.sparse-backed kernel backend.

Overrides only the two kernels where scipy's compiled CSR routines beat
the numpy reference (DESIGN.md §5 has the measurements): the masked pull
SpMSpV, whose candidate-row slice scipy gathers natively, and the
``(+, *)`` dense SpMV, which *is* scipy's matvec.  Every other kernel is
inherited from :class:`~repro.backends.numpy_backend.NumpyBackend`.  The
scipy matrix handle is built once per
:class:`~repro.sparse.csr.CSRMatrix` instance and memoized in the
matrix's ``_cache``, so repeated kernel calls on the same operand (every
BFS sweep) pay no conversion cost.

Importing this module raises ``ImportError`` when scipy is absent; the
registry in :mod:`repro.backends` gates on that, so environments without
scipy simply do not list the backend.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp

from ..semiring.semiring import PLUS_TIMES, Semiring
from ..semiring.spmspv import _group_reduce
from ..sparse.csr import CSRMatrix
from ..sparse.spvector import SparseVector
from .numpy_backend import NumpyBackend

__all__ = ["ScipyBackend"]


def _scipy_csr(A: CSRMatrix) -> "_sp.csr_matrix":
    handle = A._cache.get("scipy_csr")
    if handle is None:
        handle = _sp.csr_matrix(
            (A.data, A.indices, A.indptr), shape=(A.nrows, A.ncols)
        )
        handle.has_sorted_indices = True
        A._cache["scipy_csr"] = handle
    return handle


class ScipyBackend(NumpyBackend):
    """The numpy reference with scipy's compiled pull scan and matvec."""

    name = "scipy"

    def spmspv_pull(
        self,
        A: CSRMatrix,
        x: SparseVector,
        sr: Semiring,
        mask: np.ndarray | None = None,
    ) -> SparseVector:
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
        # compiled row slice: the candidate rows' columns/values land in
        # one CSR submatrix with per-row patterns kept ascending — the
        # same candidate order as the numpy reference
        sub = _scipy_csr(A)[rows_cand]
        cols = sub.indices.astype(np.int64, copy=False)
        if cols.size == 0:
            return SparseVector.empty(A.nrows)
        present = np.zeros(A.ncols, dtype=bool)
        present[x.indices] = True
        hits = present[cols]
        if not hits.any():
            return SparseVector.empty(A.nrows)
        rows = np.repeat(rows_cand, np.diff(sub.indptr))[hits]
        cols = cols[hits]
        avals = np.asarray(sub.data, dtype=np.float64)[hits]
        x_dense = np.full(A.ncols, np.nan)
        x_dense[x.indices] = x.values
        products = np.asarray(sr.multiply(avals, x_dense[cols]), dtype=np.float64)
        uniq_rows, reduced = _group_reduce(rows, products, sr)
        return SparseVector(A.nrows, uniq_rows, reduced)

    def spmv_dense(self, A: CSRMatrix, x: np.ndarray, sr: Semiring) -> np.ndarray:
        if sr is not PLUS_TIMES:
            return super().spmv_dense(A, x, sr)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (A.ncols,):
            raise ValueError("dimension mismatch")
        # scipy's native compiled matvec IS the (+, *) semiring, and its
        # 0-for-empty-rows convention matches the add identity
        return np.asarray(_scipy_csr(A) @ x, dtype=np.float64)
