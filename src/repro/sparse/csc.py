"""Compressed Sparse Column (CSC) matrix.

The paper stores each local submatrix in CSC because the SpMSpV kernel with
a very sparse input vector only touches the columns corresponding to the
vector's nonzeros; CSC gives O(1) access to each such column
(paper, Section IV.A).  The layout itself — construction, coalescing,
conversion and block extraction — is CSR's with the axes swapped, so it
lives in the shared base of :mod:`repro.sparse.csr`; this module adds
the column access used by
:class:`repro.distributed.distmatrix.DistSparseMatrix` and by the
sequential SpMSpV kernels in :mod:`repro.semiring.spmspv`.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, _Compressed, _frozen
from .ragged import ragged_positions

__all__ = ["CSCMatrix"]


class CSCMatrix(_Compressed):
    """A sparse matrix in CSC form: row indices sorted within each column."""

    __slots__ = ()
    _MAJOR = 1

    def col(self, j: int) -> np.ndarray:
        """Row indices of column ``j`` (a view, sorted ascending)."""
        return self.indices[self.indptr[j] : self.indptr[j + 1]]

    def col_values(self, j: int) -> np.ndarray:
        return self.data[self.indptr[j] : self.indptr[j + 1]]

    def col_degrees(self) -> np.ndarray:
        """Nonzeros per column as ``int64`` (cached)."""
        return self._line_degrees()

    def row_degrees(self) -> np.ndarray:
        """Nonzeros per row (cached).  The pull-direction work counter:
        row-major cost accounting without materializing a CSR twin."""
        deg = self._cache.get("row_degrees")
        if deg is None:
            deg = self._cache["row_degrees"] = _frozen(
                np.bincount(self.indices, minlength=self.nrows)
            )
        return deg

    def to_csr(self) -> CSRMatrix:
        return CSRMatrix.from_coo(self.to_coo())

    def gather_columns(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate the given columns.

        Returns ``(row_indices, values, col_offsets)`` where ``col_offsets``
        delimits each requested column's slice in the concatenated arrays.
        This is the access pattern of the CSC SpMSpV kernel.
        """
        cols = np.asarray(cols, dtype=np.int64)
        starts = self.indptr[cols]
        lens = self.indptr[cols + 1] - starts
        gather = ragged_positions(starts, lens)
        offsets = np.concatenate([[0], np.cumsum(lens)])
        return self.indices[gather], self.data[gather], offsets
