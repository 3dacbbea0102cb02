"""Coordinate (COO) sparse matrix format.

COO is the interchange format of the library: generators and Matrix Market
I/O produce COO, and the compressed formats (:mod:`repro.sparse.csr`,
:mod:`repro.sparse.csc`) are built from it.  Only the features needed by the
RCM pipeline are implemented — this is a from-scratch substrate, not a
general sparse-algebra package.

All index arrays are ``int64`` and all value arrays are ``float64``.
Duplicate entries are summed on conversion, matching the usual convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["COOMatrix"]


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate format.

    Parameters
    ----------
    nrows, ncols:
        Matrix dimensions.
    rows, cols:
        Entry coordinates, parallel ``int64`` arrays.
    vals:
        Entry values, ``float64`` array parallel to ``rows``/``cols``.
    """

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        self.cols = np.ascontiguousarray(self.cols, dtype=np.int64)
        self.vals = np.ascontiguousarray(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError("rows, cols, vals must have identical shapes")
        if self.rows.ndim != 1:
            raise ValueError("COO arrays must be one-dimensional")
        if self.rows.size:
            if self.rows.min(initial=0) < 0 or self.cols.min(initial=0) < 0:
                raise ValueError("negative indices in COO matrix")
            if self.rows.max(initial=-1) >= self.nrows:
                raise ValueError("row index out of range")
            if self.cols.max(initial=-1) >= self.ncols:
                raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, nrows: int, ncols: int) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        z = np.empty(0, dtype=np.int64)
        return cls(nrows, ncols, z, z.copy(), np.empty(0, dtype=np.float64))

    @classmethod
    def from_edges(
        cls, n: int, edges: np.ndarray, values: np.ndarray | None = None
    ) -> "COOMatrix":
        """Build a symmetric adjacency matrix from an ``(m, 2)`` edge list.

        Each undirected edge ``{u, v}`` contributes both ``(u, v)`` and
        ``(v, u)``; self-loops contribute a single diagonal entry.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        u, v = edges[:, 0], edges[:, 1]
        if values is None:
            values = np.ones(len(edges), dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
        off = u != v
        rows = np.concatenate([u, v[off]])
        cols = np.concatenate([v, u[off]])
        vals = np.concatenate([values, values[off]])
        return cls(n, n, rows, cols, vals)

    # ------------------------------------------------------------------
    # Properties and basic ops
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of stored entries (before duplicate coalescing)."""
        return int(self.rows.size)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "COOMatrix":
        """The transpose (no copy of the value array contents)."""
        return COOMatrix(
            self.ncols, self.nrows, self.cols.copy(), self.rows.copy(), self.vals.copy()
        )

    def coalesce(self) -> "COOMatrix":
        """Sum duplicate coordinates and return a duplicate-free COO matrix.

        Entries come out row-major and duplicates sum in original entry
        order: the coalescing sort of ``CSRMatrix.from_coo``.
        """
        from .csr import CSRMatrix  # late import: csr builds on this module

        return CSRMatrix.from_coo(self).to_coo()

    def drop_diagonal(self) -> "COOMatrix":
        """Remove diagonal entries (RCM works on the off-diagonal graph)."""
        keep = self.rows != self.cols
        return COOMatrix(
            self.nrows, self.ncols, self.rows[keep], self.cols[keep], self.vals[keep]
        )

    def to_dense(self) -> np.ndarray:
        """Dense ``float64`` array; intended for tests on tiny matrices."""
        out = np.zeros((self.nrows, self.ncols), dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def __eq__(self, other: object) -> bool:  # pragma: no cover - trivial
        if not isinstance(other, COOMatrix):
            return NotImplemented
        a, b = self.coalesce(), other.coalesce()
        return (
            a.shape == b.shape
            and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols)
            and np.allclose(a.vals, b.vals)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
