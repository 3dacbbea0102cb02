"""2D block-distributed sparse matrix (CombBLAS layout; paper Section IV.A).

Engines: simulated + processes — the driver always holds the blocks;
under the processes engine each rank's block is additionally registered
on the worker that runs the rank (:meth:`DistSparseMatrix.ensure_resident`),
so SpMSpV supersteps ship only vector pieces.  Charges no modeled cost
itself (load-time communication is charged by callers).

Processor ``P(i, j)`` of the ``pr x pc`` grid stores submatrix ``A_ij`` of
dimensions ``(m/pr) x (n/pc)`` in CSC — the format the paper selected for
its SpMSpV with very sparse input vectors.  Block boundaries use the same
balanced split as vector segments, so processor row ``i``'s blocks cover
exactly the vector segments owned by row ``i``'s ranks.
"""

from __future__ import annotations

import numpy as np

from ..sparse.coo import COOMatrix
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from .context import DistContext
from .distvector import DistDenseVector

__all__ = ["DistSparseMatrix"]


class _FlatBlocks:
    """Rank-fused cell index of all blocks for the vectorized SpMSpV drivers.

    Entries are grouped by *cell*, one block's slice of one matrix line,
    laid out in cell-id order.  The push layout (``by_rows=False``) keys
    cells by ``(global column c, block row i)`` with ``cell_id = c * pr +
    i``; the pull layout (``by_rows=True``) swaps the roles, ``(global
    row r, block column j)`` with ``cell_id = r * pc + j``.  ``minor``
    holds each entry's other global coordinate (its row in the push
    layout, its column in the pull layout).  One stable sort by cell id
    builds both: within a cell, entries keep the block's CSC order, so
    push cells list rows ascending (a multi-range gather over cells
    reproduces every rank's per-block column gather at once) and pull
    cells list columns ascending (the scan order that makes the pull
    kernel's reductions bit-identical to the push kernel's).  The cells
    of one line are adjacent, so a push column's whole gather is the
    single range ``cell_ptr[c * pr] : cell_ptr[(c + 1) * pr]``.
    """

    __slots__ = ("cell_ptr", "minor", "vals")

    def __init__(self, mat: "DistSparseMatrix", by_rows: bool) -> None:
        grid = mat.ctx.grid
        ways = grid.pc if by_rows else grid.pr
        keys, minors, vals = [], [], []
        for (i, j), blk in mat.blocks.items():
            gcol = np.repeat(np.arange(blk.ncols, dtype=np.int64), blk.col_degrees())
            gcol += mat.col_offsets[j]
            grow = blk.indices + mat.row_offsets[i]
            major, minor, block = (grow, gcol, j) if by_rows else (gcol, grow, i)
            keys.append(major * ways + block)
            minors.append(minor)
            vals.append(blk.data)
        key = np.concatenate(keys)
        order = np.argsort(key, kind="stable")
        self.minor = np.concatenate(minors)[order]
        self.vals = np.concatenate(vals)[order]
        self.cell_ptr = np.zeros(mat.n * ways + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=mat.n * ways), out=self.cell_ptr[1:])


class DistSparseMatrix:
    """A square symmetric sparse matrix distributed on a 2D grid."""

    __slots__ = (
        "ctx",
        "n",
        "blocks",
        "row_offsets",
        "col_offsets",
        "_key",
        "_flat",
        "_flat_rows",
    )

    def __init__(
        self,
        ctx: DistContext,
        n: int,
        blocks: dict[tuple[int, int], CSCMatrix],
        row_offsets: np.ndarray,
        col_offsets: np.ndarray,
    ) -> None:
        self.ctx = ctx
        self.n = int(n)
        self.blocks = blocks
        self.row_offsets = row_offsets
        self.col_offsets = col_offsets
        self._key = ctx.new_object_key("dmat")
        self._flat: _FlatBlocks | None = None
        self._flat_rows: _FlatBlocks | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_stream(
        cls,
        ctx: DistContext,
        stream,
        spill: bool = False,
        shard_entries: int = 1 << 18,
    ) -> "DistSparseMatrix":
        """Partition an edge stream onto the context's grid, one chunk at a time.

        The single partitioning code path (``from_csr`` wraps it): each
        chunk of ``(rows, cols, vals)`` is binned into ``(block-row,
        block-col)`` cells with a stable scatter, accumulated per block,
        and each block's CSC is compressed once the stream is exhausted.
        Because per-block accumulation preserves stream order and the
        CSC build coalesces duplicates stably, the result is
        bit-identical to distributing the monolithically assembled
        matrix — per-block nnz, structure arrays, and every downstream
        ordering/ledger — for any chunking of the same entries.

        With ``spill=True`` the per-block accumulators are
        :class:`~repro.sparse.stream.ShardedCOOBuilder` instances, so
        peak memory is O(one chunk + shard buffers + one block under
        compression + the finished blocks) instead of holding every
        binned triple in RAM — the knob the scale-20+ zoo ingests use.
        """
        from ..sparse.stream import ShardedCOOBuilder

        if stream.nrows != stream.ncols:
            raise ValueError("distributed RCM operates on square matrices")
        grid = ctx.grid
        n = int(stream.nrows)
        row_offsets = np.array(
            [grid.row_block(n, i)[0] for i in range(grid.pr)] + [n], dtype=np.int64
        )
        col_offsets = np.array(
            [grid.col_block(n, j)[0] for j in range(grid.pc)] + [n], dtype=np.int64
        )
        pieces: dict[tuple[int, int], list] = {
            (i, j): [] for i in range(grid.pr) for j in range(grid.pc)
        }
        builders: dict[tuple[int, int], ShardedCOOBuilder] = {}
        rank_arange = np.arange(grid.size + 1, dtype=np.int64)
        try:
            for rows, cols, vals in stream.chunks():
                rows = np.ascontiguousarray(rows, dtype=np.int64)
                cols = np.ascontiguousarray(cols, dtype=np.int64)
                vals = np.ascontiguousarray(vals, dtype=np.float64)
                if rows.size == 0:
                    continue
                if rows.min() < 0 or cols.min() < 0:
                    raise ValueError("negative indices in edge chunk")
                if rows.max() >= n or cols.max() >= n:
                    raise ValueError("edge endpoint out of range")
                bi = np.searchsorted(row_offsets, rows, side="right") - 1
                bj = np.searchsorted(col_offsets, cols, side="right") - 1
                key = bi * grid.pc + bj
                order = np.argsort(key, kind="stable")
                bounds = np.searchsorted(key[order], rank_arange)
                for r in range(grid.size):
                    sel = order[bounds[r] : bounds[r + 1]]
                    if sel.size == 0:
                        continue
                    i, j = grid.coords(r)
                    lr = rows[sel] - row_offsets[i]
                    lc = cols[sel] - col_offsets[j]
                    lv = vals[sel]
                    if spill:
                        b = builders.get((i, j))
                        if b is None:
                            b = builders[(i, j)] = ShardedCOOBuilder(
                                int(row_offsets[i + 1] - row_offsets[i]),
                                int(col_offsets[j + 1] - col_offsets[j]),
                                shard_entries=shard_entries,
                            )
                        b.append(lr, lc, lv)
                    else:
                        pieces[(i, j)].append((lr, lc, lv))
            blocks: dict[tuple[int, int], CSCMatrix] = {}
            for i in range(grid.pr):
                nr = int(row_offsets[i + 1] - row_offsets[i])
                for j in range(grid.pc):
                    nc = int(col_offsets[j + 1] - col_offsets[j])
                    if spill:
                        b = builders.pop((i, j), None)
                        if b is None:
                            blocks[(i, j)] = CSCMatrix.empty(nr, nc)
                            continue
                        # fill preallocated arrays from the shard stream:
                        # one resident copy of the block, not chunks +
                        # their concatenation side by side
                        total = b.nnz
                        br = np.empty(total, dtype=np.int64)
                        bc = np.empty(total, dtype=np.int64)
                        bv = np.empty(total, dtype=np.float64)
                        pos = 0
                        for sr, sc, sv in b.finalize().chunks():
                            br[pos : pos + sr.size] = sr
                            bc[pos : pos + sc.size] = sc
                            bv[pos : pos + sv.size] = sv
                            pos += sr.size
                        block_coo = COOMatrix(nr, nc, br, bc, bv)
                        b.close()  # free this block's shards before compressing
                        del br, bc, bv
                    else:
                        cell = pieces.pop((i, j))
                        if not cell:
                            blocks[(i, j)] = CSCMatrix.empty(nr, nc)
                            continue
                        block_coo = COOMatrix(
                            nr,
                            nc,
                            np.concatenate([p[0] for p in cell]),
                            np.concatenate([p[1] for p in cell]),
                            np.concatenate([p[2] for p in cell]),
                        )
                        del cell
                    blocks[(i, j)] = CSCMatrix.from_coo(block_coo)
                    del block_coo
        finally:
            for b in builders.values():
                b.close()
        return cls(ctx, n, blocks, row_offsets, col_offsets)

    @classmethod
    def from_csr(cls, ctx: DistContext, A: CSRMatrix) -> "DistSparseMatrix":
        """Distribute a global CSR matrix onto the context's grid.

        Thin wrapper over :meth:`from_stream` — the monolithic matrix is
        exposed as an in-memory :class:`~repro.sparse.stream.ArrayEdgeStream`
        so there is exactly one partitioning implementation.
        """
        from ..sparse.stream import ArrayEdgeStream

        if A.nrows != A.ncols:
            raise ValueError("distributed RCM operates on square matrices")
        return cls.from_stream(ctx, ArrayEdgeStream.from_coo(A.to_coo()))

    # ------------------------------------------------------------------
    def block(self, i: int, j: int) -> CSCMatrix:
        return self.blocks[(i, j)]

    def ensure_resident(self) -> str:
        """Register each rank's block where that rank executes supersteps.

        Idempotent; returns the object-store key SpMSpV tasks use.  On
        the simulated engine this is a driver-side aliasing of the
        ``blocks`` dict; on the processes engine each worker receives
        exactly the blocks of the ranks it owns (sent once per matrix).
        """
        g = self.ctx.grid
        self.ctx.ensure_rank_objects(
            self._key,
            lambda ranks: {r: self.blocks[g.coords(r)] for r in ranks},
        )
        return self._key

    def release_resident(self) -> None:
        """Free this matrix's worker-resident blocks (see
        :meth:`ensure_resident`); call when done with a shared pool."""
        self.ctx.release_rank_objects(self._key)

    def flat_blocks(self) -> _FlatBlocks:
        """The rank-fused block structure (built lazily, cached).

        Backs the rank-vectorized SpMSpV: one gather over ``(column,
        block-row)`` cells computes every rank's local multiply in a
        single fused numpy pass.  Costs ``O(n * pr)`` words once per
        matrix.
        """
        if self._flat is None:
            self._flat = _FlatBlocks(self, by_rows=False)
        return self._flat

    def flat_rows(self) -> _FlatBlocks:
        """The row-major rank-fused structure (built lazily, cached).

        Backs the rank-vectorized *pull* SpMSpV: one gather over
        ``(row, block-column)`` cells scans every rank's unvisited rows
        in a single fused numpy pass.  Costs ``O(n * pc)`` words once
        per matrix, and only when a pull superstep actually runs.
        """
        if self._flat_rows is None:
            self._flat_rows = _FlatBlocks(self, by_rows=True)
        return self._flat_rows

    @property
    def nnz(self) -> int:
        return sum(b.nnz for b in self.blocks.values())

    def local_nnz(self) -> list[int]:
        """Stored entries per rank (row-major rank order) — load balance."""
        g = self.ctx.grid
        return [
            self.blocks[g.coords(r)].nnz for r in range(g.size)
        ]

    def load_imbalance(self) -> float:
        """max/mean per-rank nnz; 1.0 is perfectly balanced."""
        per = self.local_nnz()
        mean = sum(per) / max(len(per), 1)
        return (max(per) / mean) if mean > 0 else 1.0

    def degrees(self) -> DistDenseVector:
        """Global vertex degrees as a distributed dense vector.

        Computed the way the real system would: each rank counts its local
        column nnz, then column counts are reduced along processor columns
        (symmetric matrix, so column degrees equal row degrees).  In the
        simulation we assemble the counts directly from the fused block
        structure (one reshape-sum, no per-block loop); the communication
        this step models is charged by the caller once at load time.
        """
        cell_nnz = np.diff(self.flat_blocks().cell_ptr)
        full = cell_nnz.reshape(self.n, self.ctx.grid.pr).sum(axis=1)
        return DistDenseVector.from_global(self.ctx, full)

    def to_csr(self) -> CSRMatrix:
        """Reassemble the global matrix (test/inspection helper)."""
        g = self.ctx.grid
        rows_all, cols_all, vals_all = [], [], []
        for (i, j), blk in self.blocks.items():
            coo = blk.to_coo()
            rows_all.append(coo.rows + self.row_offsets[i])
            cols_all.append(coo.cols + self.col_offsets[j])
            vals_all.append(coo.vals)
        rows = np.concatenate(rows_all) if rows_all else np.empty(0, dtype=np.int64)
        cols = np.concatenate(cols_all) if cols_all else np.empty(0, dtype=np.int64)
        vals = np.concatenate(vals_all) if vals_all else np.empty(0, dtype=np.float64)
        return CSRMatrix.from_coo(COOMatrix(self.n, self.n, rows, cols, vals))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        g = self.ctx.grid
        return f"DistSparseMatrix(n={self.n}, grid={g.pr}x{g.pc}, nnz={self.nnz})"
