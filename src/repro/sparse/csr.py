"""Compressed sparse layouts: Compressed Sparse Row (CSR) and their shared base.

CSR and CSC are one layout compressed along different axes: ``indptr``
delimits each *major* line (a row in CSR, a column in CSC) and
``indices`` lists the *minor* coordinates of its entries.
:class:`_Compressed` implements everything that does not depend on
which axis is major, keyed by the class constant ``_MAJOR``;
:class:`CSRMatrix` adds the row access used by the *serial* reference
algorithms (classic RCM, BFS, metrics), where row adjacency access is
O(degree).  The distributed layer uses CSC locally
(:mod:`repro.sparse.csc`) because the paper found CSC fastest for
SpMSpV with very sparse vectors.
"""

from __future__ import annotations

import numpy as np

from .coo import COOMatrix

__all__ = ["CSRMatrix"]

#: Dimension attribute and index name of each axis, for error messages.
_DIMS = ("nrows", "ncols")
_AXES = ("row", "column")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _Compressed:
    """A compressed sparse matrix with ``int64`` indices.

    Minor indices within each major line are kept sorted ascending,
    which makes neighbor iteration and kernel output order — and
    therefore RCM tie-breaking — deterministic.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "data", "_cache")

    #: The compressed (major) axis: 0 for rows (CSR), 1 for columns (CSC).
    _MAJOR: int

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
        # derived-array cache; the structure arrays are treated as
        # immutable once constructed, so cached views never go stale
        self._cache: dict = {}
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if data is None:
            data = np.ones(self.indices.size, dtype=np.float64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        n_major, n_minor = self._major_minor(self.nrows, self.ncols)
        if self.indptr.size != n_major + 1:
            raise ValueError(f"indptr must have {_DIMS[self._MAJOR]} + 1 entries")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n_minor):
            raise ValueError(f"{_AXES[1 - self._MAJOR]} index out of range")

    @classmethod
    def _major_minor(cls, row_item, col_item):
        """A (row, column) pair reordered major-first (an involution)."""
        return (col_item, row_item) if cls._MAJOR else (row_item, col_item)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix):
        """Convert from COO, coalescing duplicates and sorting each line.

        One stable major-then-minor sort does both jobs: duplicates land
        adjacent (and sum in original entry order) and the unique
        entries come out already in compressed order — the same result
        as coalesce-then-lexsort at roughly half the transient memory,
        which is what bounds the per-block peak of
        ``DistSparseMatrix.from_stream``.
        """
        if coo.nnz == 0:
            return cls.empty(coo.nrows, coo.ncols)
        major, minor = cls._major_minor(coo.rows, coo.cols)
        n_major, n_minor = cls._major_minor(coo.nrows, coo.ncols)
        key = major * np.int64(n_minor) + minor
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
        counts = np.bincount(uniq // n_minor, minlength=n_major).astype(np.int64)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(coo.nrows, coo.ncols, indptr, uniq % n_minor, summed)

    @classmethod
    def empty(cls, nrows: int, ncols: int):
        n_major, _ = cls._major_minor(nrows, ncols)
        return cls(
            nrows,
            ncols,
            np.zeros(n_major + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray):
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(dense)
        return cls.from_coo(
            COOMatrix(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def _line_degrees(self) -> np.ndarray:
        """Stored entries per major line as ``int64`` (cached)."""
        deg = self._cache.get("line_degrees")
        if deg is None:
            deg = self._cache["line_degrees"] = _frozen(np.diff(self.indptr))
        return deg

    def _line_of_entry(self) -> np.ndarray:
        """Major line of every stored entry, length ``nnz`` (a fresh array)."""
        lines = np.arange(self.indptr.size - 1, dtype=np.int64)
        return np.repeat(lines, self._line_degrees())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        rows, cols = self._major_minor(self._line_of_entry(), self.indices.copy())
        return COOMatrix(self.nrows, self.ncols, rows, cols, self.data.copy())

    def transpose(self):
        return self.from_coo(self.to_coo().transpose())

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    def extract_block(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int):
        """The block ``[row_lo:row_hi, col_lo:col_hi]`` with local indices."""
        (major_lo, major_hi), (minor_lo, minor_hi) = self._major_minor(
            (row_lo, row_hi), (col_lo, col_hi)
        )
        sub_indptr = np.zeros(major_hi - major_lo + 1, dtype=np.int64)
        chunks: list[np.ndarray] = []
        vchunks: list[np.ndarray] = []
        for li, gi in enumerate(range(major_lo, major_hi)):
            lo, hi = self.indptr[gi], self.indptr[gi + 1]
            line = self.indices[lo:hi]
            a = np.searchsorted(line, minor_lo, side="left")
            b = np.searchsorted(line, minor_hi, side="left")
            chunks.append(line[a:b] - minor_lo)
            vchunks.append(self.data[lo + a : lo + b])
            sub_indptr[li + 1] = sub_indptr[li] + (b - a)
        indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        data = np.concatenate(vchunks) if vchunks else np.empty(0, dtype=np.float64)
        return type(self)(row_hi - row_lo, col_hi - col_lo, sub_indptr, indices, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz})"


class CSRMatrix(_Compressed):
    """A sparse matrix in CSR form: column indices sorted within each row."""

    __slots__ = ()
    _MAJOR = 0

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        indptr = np.arange(n + 1, dtype=np.int64)
        return cls(n, n, indptr, np.arange(n, dtype=np.int64))

    def row(self, i: int) -> np.ndarray:
        """Column indices of row ``i`` (a view, sorted ascending)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def row_values(self, i: int) -> np.ndarray:
        return self.data[self.indptr[i] : self.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        """Row degree (stored entries per row) as ``int64`` (cached)."""
        return self._line_degrees()

    def row_of_entry(self) -> np.ndarray:
        """Row index of every stored entry, length ``nnz`` (cached).

        The CSR kernels (``spmspv_csr``, ``matvec``, ``spmv_dense``) all
        need this expansion; computing it once per matrix instead of per
        call removes an O(nnz) allocation from every kernel invocation.
        """
        roe = self._cache.get("row_of_entry")
        if roe is None:
            roe = self._cache["row_of_entry"] = _frozen(self._line_of_entry())
        return roe

    def diagonal(self) -> np.ndarray:
        """Dense diagonal vector."""
        diag = np.zeros(min(self.nrows, self.ncols), dtype=np.float64)
        for i in range(diag.size):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            pos = np.searchsorted(self.indices[lo:hi], i)
            if pos < hi - lo and self.indices[lo + pos] == i:
                diag[i] = self.data[lo + pos]
        return diag

    def to_csc(self):
        """Convert to CSC (late import avoids a module cycle)."""
        from .csc import CSCMatrix

        return CSCMatrix.from_coo(self.to_coo())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Standard (+, *) sparse matrix-vector product ``A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},)")
        contrib = self.data * x[self.indices]
        out = np.zeros(self.nrows, dtype=np.float64)
        # segment-sum per row via reduceat; guard empty matrix
        if self.nnz:
            np.add.at(out, self.row_of_entry(), contrib)
        return out
