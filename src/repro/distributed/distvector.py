"""Distributed dense and sparse vectors (CombBLAS layout, flat SoA).

Engines: simulated + processes — segments are driver-resident views of
one flat structure-of-arrays under both engines (supersteps slice the
pieces they need at dispatch); charges no modeled cost itself.

A length-``n`` vector is split into ``p`` contiguous segments; segment
``k`` is owned by rank ``k``.  Because ranks are row-major on the grid,
the union of the segments owned by processor row ``i`` is exactly matrix
row block ``i`` — the property that makes the 2D SpMSpV's row-wise
exchange purely intra-row (see :mod:`repro.distributed.spmspv`).

**Storage layout.**  Both containers are flat structure-of-arrays, not
per-rank Python lists:

* :class:`DistDenseVector` holds one length-``n`` ``data`` array; rank
  ``k``'s segment is the view ``data[offs[k] : offs[k + 1]]``.
* :class:`DistSparseVector` holds one concatenated ``idx``/``vals`` pair
  plus a ``starts`` rank-offset array (length ``p + 1``); rank ``k``'s
  nonzeros are ``idx[starts[k] : starts[k + 1]]``.  Indices are *global*
  and — because segments tile ``[0, n)`` in rank order — globally sorted
  and unique, so any primitive can operate on the whole vector with one
  fused numpy expression instead of a loop over ranks.

The list-of-arrays view of either container is still available through
the ``segments`` / ``indices`` / ``values`` properties (views into the
flat storage, built on demand); the per-rank reference paths and the
processes engine's dispatch use them, and list input to the constructors
is accepted and concatenated.
"""

from __future__ import annotations

import numpy as np

from ..sparse.spvector import SparseVector
from .context import DistContext

__all__ = ["DistDenseVector", "DistSparseVector"]


class DistDenseVector:
    """A dense vector distributed in ``p`` contiguous segments.

    ``data`` is the flat length-``n`` float64 array; ``offs`` the cached
    segment offsets (length ``p + 1``).
    """

    __slots__ = ("ctx", "n", "data", "offs")

    def __init__(
        self, ctx: DistContext, n: int, data: np.ndarray | list[np.ndarray]
    ) -> None:
        self.ctx = ctx
        self.n = int(n)
        self.offs = ctx.vector_offsets(self.n)
        if isinstance(data, np.ndarray):
            if data.shape != (self.n,):
                raise ValueError("flat dense data must have length n")
            self.data = np.ascontiguousarray(data, dtype=np.float64)
        else:
            if len(data) != ctx.nprocs:
                raise ValueError("need one segment per rank")
            for k, seg in enumerate(data):
                if seg.shape[0] != self.offs[k + 1] - self.offs[k]:
                    raise ValueError(f"segment {k} has wrong length")
            self.data = (
                np.concatenate(data).astype(np.float64, copy=False)
                if data
                else np.empty(0, dtype=np.float64)
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_global(cls, ctx: DistContext, values: np.ndarray) -> "DistDenseVector":
        values = np.asarray(values, dtype=np.float64)
        return cls(ctx, values.size, values.copy())

    @classmethod
    def full(cls, ctx: DistContext, n: int, fill: float) -> "DistDenseVector":
        return cls(ctx, n, np.full(n, fill, dtype=np.float64))

    # ------------------------------------------------------------------
    @property
    def segments(self) -> list[np.ndarray]:
        """Per-rank views of the flat data (list built on demand)."""
        return [
            self.data[self.offs[k] : self.offs[k + 1]]
            for k in range(self.ctx.nprocs)
        ]

    def to_global(self) -> np.ndarray:
        """Assemble the full vector (test/inspection helper; no charge)."""
        return self.data.copy()

    def get(self, index: int) -> float:
        """Value at a global index (local lookup on the owning rank)."""
        return float(self.data[index])

    def set(self, index: int, value: float) -> None:
        self.data[index] = value

    def copy(self) -> "DistDenseVector":
        return DistDenseVector(self.ctx, self.n, self.data.copy())


class DistSparseVector:
    """A sparse vector distributed conformally with :class:`DistDenseVector`.

    ``idx``/``vals`` hold all ranks' nonzeros concatenated in rank order
    (*global* indices, globally sorted and unique); ``starts[k]`` marks
    where rank ``k``'s slice begins.
    """

    __slots__ = ("ctx", "n", "idx", "vals", "starts", "offs")

    def __init__(
        self,
        ctx: DistContext,
        n: int,
        indices: np.ndarray | list[np.ndarray],
        values: np.ndarray | list[np.ndarray],
        starts: np.ndarray | None = None,
    ) -> None:
        self.ctx = ctx
        self.n = int(n)
        self.offs = ctx.vector_offsets(self.n)
        p = ctx.nprocs
        if isinstance(indices, (list, tuple)):
            if len(indices) != p or len(values) != p:
                raise ValueError("need one (indices, values) pair per rank")
            for k in range(p):
                if indices[k].shape != values[k].shape:
                    raise ValueError(f"rank {k} indices/values mismatch")
            sizes = np.array([i.shape[0] for i in indices], dtype=np.int64)
            claimed = np.zeros(p + 1, dtype=np.int64)
            np.cumsum(sizes, out=claimed[1:])
            idx = (
                np.concatenate(indices)
                if indices
                else np.empty(0, dtype=np.int64)
            )
            vals = (
                np.concatenate(values)
                if values
                else np.empty(0, dtype=np.float64)
            )
        else:
            idx, vals, claimed = indices, values, starts
        self.idx = np.ascontiguousarray(idx, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        if self.idx.shape != self.vals.shape or self.idx.ndim != 1:
            raise ValueError("indices/values must be parallel 1-D arrays")
        if self.idx.size:
            if self.idx[0] < 0 or self.idx[-1] >= self.n:
                raise ValueError("sparse vector index out of range")
            if np.any(np.diff(self.idx) <= 0):
                raise ValueError("indices not globally sorted/unique")
        true_starts = np.searchsorted(self.idx, self.offs, side="left")
        if claimed is not None and not np.array_equal(claimed, true_starts):
            raise ValueError("some rank holds out-of-segment indices")
        self.starts = true_starts

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, ctx: DistContext, n: int) -> "DistSparseVector":
        return cls(
            ctx, n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        )

    @classmethod
    def from_sparse(cls, ctx: DistContext, x: SparseVector) -> "DistSparseVector":
        """Scatter a global sparse vector into per-rank segments.

        Sorted global indices already *are* the rank-concatenated layout;
        the split is one ``searchsorted`` against the segment offsets.
        """
        return cls(ctx, x.n, x.indices.copy(), x.values.copy())

    @classmethod
    def single(
        cls, ctx: DistContext, n: int, index: int, value: float = 0.0
    ) -> "DistSparseVector":
        return cls.from_sparse(ctx, SparseVector.single(n, index, value))

    # ------------------------------------------------------------------
    @property
    def indices(self) -> list[np.ndarray]:
        """Per-rank index views of the flat storage (built on demand)."""
        return [
            self.idx[self.starts[k] : self.starts[k + 1]]
            for k in range(self.ctx.nprocs)
        ]

    @property
    def values(self) -> list[np.ndarray]:
        """Per-rank value views of the flat storage (built on demand)."""
        return [
            self.vals[self.starts[k] : self.starts[k + 1]]
            for k in range(self.ctx.nprocs)
        ]

    @property
    def local_nnz(self) -> list[int]:
        return np.diff(self.starts).tolist()

    def rank_counts(self) -> np.ndarray:
        """Per-rank nonzero counts as one array (``diff`` of ``starts``)."""
        return np.diff(self.starts)

    def nnz_local_sum(self) -> int:
        """Global nnz computed locally (test helper; real code uses allreduce)."""
        return int(self.idx.size)

    def to_sparse(self) -> SparseVector:
        """Assemble the global sparse vector (test/inspection helper)."""
        return SparseVector(self.n, self.idx.copy(), self.vals.copy())

    def with_values(self, vals: np.ndarray) -> "DistSparseVector":
        """Same structure, new payloads.

        Shares the ``idx``/``starts``/``offs`` arrays, which were
        validated when this vector was built (no caller mutates them), so
        only the payload's shape is checked.
        """
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        if vals.shape != self.idx.shape:
            raise ValueError("payload array must match nnz")
        out = DistSparseVector.__new__(DistSparseVector)
        out.ctx, out.n, out.offs = self.ctx, self.n, self.offs
        out.idx, out.starts, out.vals = self.idx, self.starts, vals
        return out

    def copy(self) -> "DistSparseVector":
        return DistSparseVector(
            self.ctx, self.n, self.idx.copy(), self.vals.copy(), self.starts.copy()
        )
