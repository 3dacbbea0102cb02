"""Compressed Sparse Column (CSC) matrix.

The paper stores each local submatrix in CSC because the SpMSpV kernel with
a very sparse input vector only touches the columns corresponding to the
vector's nonzeros; CSC gives O(1) access to each such column
(paper, Section IV.A).  This module provides the local storage used by
:class:`repro.distributed.distmatrix.DistSparseMatrix` and by the
sequential SpMSpV kernels in :mod:`repro.semiring.spmspv`.
"""

from __future__ import annotations

import numpy as np

from .coo import COOMatrix
from .ragged import ragged_positions

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """A sparse matrix in CSC form with ``int64`` indices.

    Row indices within each column are kept sorted ascending so that kernel
    output order — and therefore RCM tie-breaking — is deterministic.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "data", "_cache")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray | None = None,
    ) -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        # derived-array cache (e.g. backend-specific matrix handles);
        # the structure arrays are treated as immutable once constructed
        self._cache: dict = {}
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if data is None:
            data = np.ones(self.indices.size, dtype=np.float64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if self.indptr.size != self.ncols + 1:
            raise ValueError("indptr must have ncols + 1 entries")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.nrows
        ):
            raise ValueError("row index out of range")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSCMatrix":
        """Convert from COO, coalescing duplicates and sorting rows.

        One stable column-major sort does both jobs: duplicates land
        adjacent (and sum in original entry order, like ``coalesce``)
        and the unique entries come out already in CSC order — the
        same result as coalesce-then-lexsort at roughly half the
        transient memory, which is what bounds the per-block peak of
        ``DistSparseMatrix.from_stream``.
        """
        if coo.nnz == 0:
            return cls.empty(coo.nrows, coo.ncols)
        key = coo.cols * np.int64(coo.nrows) + coo.rows
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        vals_sorted = coo.vals[order]
        del key, order
        boundary = np.empty(key_sorted.size, dtype=bool)
        boundary[0] = True
        np.not_equal(key_sorted[1:], key_sorted[:-1], out=boundary[1:])
        group_ids = np.cumsum(boundary) - 1
        summed = np.zeros(int(group_ids[-1]) + 1, dtype=np.float64)
        np.add.at(summed, group_ids, vals_sorted)
        del group_ids, vals_sorted
        uniq = key_sorted[boundary]
        counts = np.bincount(uniq // coo.nrows, minlength=coo.ncols).astype(np.int64)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(coo.nrows, coo.ncols, indptr, uniq % coo.nrows, summed)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(dense)
        return cls.from_coo(
            COOMatrix(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])
        )

    @classmethod
    def empty(cls, nrows: int, ncols: int) -> "CSCMatrix":
        return cls(
            nrows,
            ncols,
            np.zeros(ncols + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def col(self, j: int) -> np.ndarray:
        """Row indices of column ``j`` (a view, sorted ascending)."""
        return self.indices[self.indptr[j] : self.indptr[j + 1]]

    def col_values(self, j: int) -> np.ndarray:
        return self.data[self.indptr[j] : self.indptr[j + 1]]

    def col_degrees(self) -> np.ndarray:
        deg = self._cache.get("col_degrees")
        if deg is None:
            deg = np.diff(self.indptr)
            deg.setflags(write=False)
            self._cache["col_degrees"] = deg
        return deg

    def row_degrees(self) -> np.ndarray:
        """Nonzeros per row (cached).  The pull-direction work counter:
        row-major cost accounting without materializing a CSR twin."""
        deg = self._cache.get("row_degrees")
        if deg is None:
            deg = np.bincount(self.indices, minlength=self.nrows)
            deg.setflags(write=False)
            self._cache["row_degrees"] = deg
        return deg

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        cols = np.repeat(np.arange(self.ncols, dtype=np.int64), np.diff(self.indptr))
        return COOMatrix(self.nrows, self.ncols, self.indices.copy(), cols, self.data.copy())

    def to_csr(self):
        from .csr import CSRMatrix

        return CSRMatrix.from_coo(self.to_coo())

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    def transpose(self) -> "CSCMatrix":
        return CSCMatrix.from_coo(self.to_coo().transpose())

    def extract_block(
        self, row_lo: int, row_hi: int, col_lo: int, col_hi: int
    ) -> "CSCMatrix":
        """The block ``[row_lo:row_hi, col_lo:col_hi]`` with local indices."""
        nc = col_hi - col_lo
        sub_indptr = np.zeros(nc + 1, dtype=np.int64)
        chunks: list[np.ndarray] = []
        vchunks: list[np.ndarray] = []
        for lj, gj in enumerate(range(col_lo, col_hi)):
            lo, hi = self.indptr[gj], self.indptr[gj + 1]
            rows = self.indices[lo:hi]
            a = np.searchsorted(rows, row_lo, side="left")
            b = np.searchsorted(rows, row_hi, side="left")
            chunks.append(rows[a:b] - row_lo)
            vchunks.append(self.data[lo + a : lo + b])
            sub_indptr[lj + 1] = sub_indptr[lj] + (b - a)
        indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        data = np.concatenate(vchunks) if vchunks else np.empty(0, dtype=np.float64)
        return CSCMatrix(row_hi - row_lo, nc, sub_indptr, indices, data)

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"
