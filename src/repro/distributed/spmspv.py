"""Distributed SpMSpV on the 2D grid (paper Sections III-IV).

Engines: simulated + processes — Phase A/C communication goes through
the context's collective engine, and the Phase B block multiplies and
Phase C merges are supersteps that execute on real workers under the
processes engine.  Charges modeled compute and communication into the
caller's region.

The kernel follows the CombBLAS 2D algorithm the paper builds on
("AllGather & AlltoAll on subcommunicator", Table I):

* **Phase A (input alignment).**  The sparse input vector's pieces that
  fall in column block ``j`` are assembled and replicated to every
  processor of grid column ``j`` — an Allgather on a ``pr``-way
  subcommunicator per column, all columns concurrently.
* **Phase B (local multiply).**  ``P(i, j)`` multiplies its local CSC
  block by the aligned input piece over the semiring; work is
  ``sum_k nnz(A_ij(:, k))`` over the input's nonzero columns.
* **Phase C (output merge).**  Partial outputs for row block ``i`` are
  exchanged within processor row ``i`` (Alltoall on a ``pc``-way
  subcommunicator) so each rank receives the entries belonging to its
  vector piece, then merges duplicates with the semiring add.

Two drivers execute this plan:

* :func:`_dist_spmspv_flat` — the **rank-vectorized** driver (simulated
  engine, default).  All three phases are fused segment operations on
  the SoA vector: Phase A's per-column concatenations are contiguous
  slices of the flat vector, Phase B gathers every rank's block columns
  in one multi-range gather over the matrix's ``(column, block-row)``
  cells (one range per frontier column, whose cells are adjacent), and
  Phase C is one stable sort + ``reduceat`` dedup-merge over all
  destinations at once.  O(1) numpy calls per superstep instead of
  O(p) Python iterations.
* :func:`_dist_spmspv_perrank` — the per-rank reference driver: one loop
  iteration per rank, per-block :mod:`repro.semiring.spmspv` kernel
  calls, engine supersteps for Phase B/C.  This is the
  path the processes engine dispatches from (payloads are slices of the
  SoA views) and the oracle ``rank_vectorized=False`` runs for the
  equivalence suite.  Results and modeled ledgers are bit-identical
  between the two drivers.

Block/piece alignment note: vector pieces are assigned row-major, so row
block ``i`` is exactly the union of the pieces owned by processor row
``i`` — Phase C is purely intra-row.  Phase A's contributors are the
piece owners of column block ``j``; CombBLAS aligns these by numbering
pieces column-major instead, which mirrors the same costs, so Phase A is
charged as the paper's column-subcommunicator Allgather.

Aggregate cost matches the paper's Section IV.B:
``T_SPMSPV = O(m/p + beta*(m/p + n/sqrt(p)) + iters*alpha*sqrt(p))``.

**Direction optimization.**  :func:`dist_spmspv_pull` is the masked
*pull* (bottom-up) superstep of direction-optimized BFS
(:mod:`repro.core.direction`): Phase A aligns the input exactly like
push, a second alignment step replicates each row block's unvisited mask
within its processor row (an Allgather on the ``pc``-way row
subcommunicator, charged through
:meth:`~repro.machine.comm.CollectiveEngine.charge_allgather` over
:func:`~repro.machine.cost.mask_words` volumes), Phase B scans each
rank's *unvisited rows* instead of the frontier's columns (work
``sum_{r unvisited} nnz(A_ij(r, :))``), and Phase C is the identical
row-wise merge — both directions share the Phase C helpers
below, so their outputs and ledgers stay aligned by construction.  Pull
results are bit-identical to masked push results, on both engines and
both drivers.
"""

from __future__ import annotations

import numpy as np

from ..machine.cost import mask_words
from ..semiring.semiring import Semiring
from ..semiring.spmspv import _group_reduce, spmspv_work
from ..sparse.ragged import ragged_positions
from ..sparse.spvector import SparseVector
from .distmatrix import DistSparseMatrix
from .distvector import DistSparseVector

__all__ = ["dist_spmspv", "dist_spmspv_pull", "PAIR_DTYPE"]

#: Wire format of sparse-vector entries.  A structured dtype keeps the
#: index lane in int64 end to end — round-tripping indices through
#: float64 silently corrupts values above 2**53 — while preserving the
#: 16-byte-per-entry wire size the modeled ledger charges for.
PAIR_DTYPE = np.dtype([("index", np.int64), ("value", np.float64)])


def _pack(indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Wire format of sparse-vector entries: ``PAIR_DTYPE`` records."""
    out = np.empty(indices.size, dtype=PAIR_DTYPE)
    out["index"] = indices
    out["value"] = values
    return out


def _unpack(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if packed.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return packed["index"].astype(np.int64, copy=True), packed["value"].copy()


def dist_spmspv(
    A: DistSparseMatrix,
    x: DistSparseVector,
    sr: Semiring,
    region: str,
) -> DistSparseVector:
    """``y = A x`` over semiring ``sr``; charges compute + comm to ``region``."""
    if A.ctx.flat_supersteps:
        return _dist_spmspv_flat(A, x, sr, region)
    return _dist_spmspv_perrank(A, x, sr, region)


# ----------------------------------------------------------------------
# Rank-vectorized driver (simulated engine)
# ----------------------------------------------------------------------
def _dist_spmspv_flat(
    A: DistSparseMatrix,
    x: DistSparseVector,
    sr: Semiring,
    region: str,
) -> DistSparseVector:
    ctx = A.ctx
    g = ctx.grid
    n = A.n
    pr, pc = g.pr, g.pc
    flat = A.flat_blocks()

    # ---------------- Phase A: gather input pieces per grid column -----
    group_entry_bounds = _phase_a_flat(A, x, region)

    # ---------------- Phase B: all local multiplies, fused -------------
    # cell (c, i) = block row i's slice of global column c.  A column's
    # cells are adjacent, so one range per frontier entry gathers every
    # rank's CSC column slice in kernel order (frontier-major, block
    # rows ascending, rows in CSC order within a block).
    bounds = flat.cell_ptr[x.idx[:, None] * pr + np.arange(pr + 1, dtype=np.int64)]
    cstart = bounds[:, 0]
    lens = bounds[:, pr] - cstart
    pos = ragged_positions(cstart, lens)
    cand_grow = flat.minor[pos]
    products = np.asarray(sr.multiply(flat.vals[pos], np.repeat(x.vals, lens)), dtype=np.float64)

    # per-rank op counts: grid-column segment sums of the frontier's cell
    # lengths per block row (rank i * pc + j of the row-major grid)
    cum = np.zeros((x.idx.size + 1, pr), dtype=np.int64)
    np.cumsum(np.diff(bounds, axis=1), axis=0, out=cum[1:])
    ops_ji = cum[group_entry_bounds[1:]] - cum[group_entry_bounds[:-1]]  # (pc, pr)
    ctx.charge_compute(region, ops_ji.T.ravel())

    # per-rank partial outputs: group-reduce by (grid column, global row)
    # — stable sort keeps each rank's candidates in kernel order, so the
    # reduceat sequences match the per-block kernel bit-for-bit
    j_of_cand = np.repeat(
        np.repeat(np.arange(pc, dtype=np.int64), np.diff(group_entry_bounds)), lens
    )
    cand_key = j_of_cand * n + cand_grow
    if pos.size:
        pkey, pvals = _group_reduce(cand_key, products, sr)
    else:
        pkey = np.empty(0, dtype=np.int64)
        pvals = np.empty(0, dtype=np.float64)

    return _phase_c_flat(A, pkey, pvals, sr, region)


def _phase_a_flat(
    A: DistSparseMatrix, x: DistSparseVector, region: str
) -> np.ndarray:
    """Fused Phase A, shared by the push and pull flat drivers.

    Column block j's entries live in vector pieces j*pr .. (j+1)*pr - 1,
    so each group's concatenated result is a contiguous slice of the
    flat vector; only the charge needs computing.  Returns the ``pc + 1``
    entry bounds of the grid columns' groups.
    """
    g = A.ctx.grid
    group_entry_bounds = x.starts[np.arange(g.pc + 1, dtype=np.int64) * g.pr]
    pair_words = PAIR_DTYPE.itemsize // 8  # 2 words per wire entry
    A.ctx.engine.charge_allgather(
        [g.pr] * g.pc, (pair_words * np.diff(group_entry_bounds)).tolist(), region
    )
    return group_entry_bounds


def _phase_c_flat(
    A: DistSparseMatrix,
    pkey: np.ndarray,
    pvals: np.ndarray,
    sr: Semiring,
    region: str,
) -> DistSparseVector:
    """Fused Phase C, shared by the push and pull flat drivers.

    ``pkey``/``pvals`` are the group-reduced per-rank partial outputs
    keyed ``grid_column * n + global_row`` (ascending).
    """
    ctx = A.ctx
    g = ctx.grid
    n = A.n
    pr, pc, p = g.pr, g.pc, g.size
    offs = ctx.vector_offsets(n)
    pair_words = PAIR_DTYPE.itemsize // 8
    pgrow = pkey % n

    # split points of every partial against every destination piece in
    # one searchsorted (the partials are (column, row)-sorted and the
    # rank boundary keys are ascending)
    bound_keys = (
        np.arange(pc, dtype=np.int64)[:, None] * n + A.row_offsets[:pr][None, :]
    ).ravel()
    partial_bounds = np.searchsorted(pkey, np.append(bound_keys, pc * n))
    partial_sizes = np.diff(partial_bounds).reshape(pc, pr)
    dest = np.searchsorted(offs, pgrow, side="right") - 1
    recv_counts = np.bincount(dest, minlength=p)
    ctx.engine.charge_alltoall(
        pair_words * partial_sizes.T,  # (pr, pc): row group i, member j
        pair_words * recv_counts.reshape(pr, pc),
        region,
    )

    # fused dedup-merge over all destination pieces: pieces tile the row
    # blocks, so one stable sort by global row groups every destination's
    # contributions in the per-rank chunk order (grid column ascending)
    ctx.charge_compute(region, recv_counts)
    if pgrow.size:
        out_idx, out_vals = _group_reduce(pgrow, pvals, sr)
    else:
        out_idx = np.empty(0, dtype=np.int64)
        out_vals = np.empty(0, dtype=np.float64)
    return DistSparseVector(ctx, n, out_idx, out_vals)


# ----------------------------------------------------------------------
# Per-rank reference driver (processes engine; rank_vectorized=False)
# ----------------------------------------------------------------------
def _dist_spmspv_perrank(
    A: DistSparseMatrix,
    x: DistSparseVector,
    sr: Semiring,
    region: str,
) -> DistSparseVector:
    ctx = A.ctx
    g = ctx.grid

    col_inputs = _phase_a_perrank(A, x, region)

    # ---------------- Phase B: local multiplies ------------------------
    matrix_key = A.ensure_resident()
    ops_per_rank: list[int] = []
    payloads = []
    for r in range(g.size):
        i, j = g.coords(r)
        xj = col_inputs[j]
        ops_per_rank.append(spmspv_work(A.block(i, j), xj))
        payloads.append((matrix_key, r, xj.indices, xj.values, xj.n, sr))
    ctx.charge_compute(region, ops_per_rank)
    multiplied = ctx.run_superstep("spmspv_block", payloads, region)
    partials: dict[tuple[int, int], SparseVector] = {}
    for r, (idx, vals) in enumerate(multiplied):
        i, j = g.coords(r)
        partials[(i, j)] = SparseVector(
            int(A.row_offsets[i + 1] - A.row_offsets[i]), idx, vals
        )

    return _phase_c_perrank(A, partials, sr, region)


def _phase_a_perrank(
    A: DistSparseMatrix, x: DistSparseVector, region: str
) -> list[SparseVector]:
    """Phase A, shared by the push and pull per-rank drivers.

    Column block j's entries live in vector pieces j*pr .. (j+1)*pr - 1
    (block/piece boundaries coincide by the balanced-split formula);
    returns the aligned local input of every grid column.
    """
    ctx = A.ctx
    g = ctx.grid
    x_indices = x.indices
    x_values = x.values
    col_inputs: list[SparseVector] = []
    groups = []
    for j in range(g.pc):
        contributions = [
            _pack(x_indices[q], x_values[q])
            for q in range(j * g.pr, (j + 1) * g.pr)
        ]
        groups.append(contributions)
    gathered = ctx.engine.allgather_groups(groups, region)
    for j in range(g.pc):
        idx, vals = _unpack(gathered[j])
        clo, chi = A.col_offsets[j], A.col_offsets[j + 1]
        local = SparseVector(int(chi - clo), idx - clo, vals)
        col_inputs.append(local)
    return col_inputs


def _phase_c_perrank(
    A: DistSparseMatrix,
    partials: dict[tuple[int, int], SparseVector],
    sr: Semiring,
    region: str,
) -> DistSparseVector:
    """Phase C, shared by the push and pull per-rank drivers.

    One personalized Alltoall per processor row, all rows concurrent,
    followed by a ``merge_packed`` superstep at every destination piece.
    """
    ctx = A.ctx
    g = ctx.grid
    n = A.n
    offs = ctx.vector_offsets(n)
    send_groups: list[list[list[np.ndarray]]] = []
    for i in range(g.pr):
        send: list[list[np.ndarray]] = []
        # destination pieces of row i are ranks i*pc .. (i+1)*pc - 1;
        # one vectorized searchsorted against all their boundaries
        # yields every split point of a partial at once
        piece_bounds = offs[i * g.pc : (i + 1) * g.pc + 1]
        for j in range(g.pc):
            part = partials[(i, j)]
            grows = part.indices + A.row_offsets[i]
            cuts = np.searchsorted(grows, piece_bounds, side="left")
            send.append(
                [
                    _pack(grows[cuts[t] : cuts[t + 1]], part.values[cuts[t] : cuts[t + 1]])
                    for t in range(g.pc)
                ]
            )
        send_groups.append(send)
    recv_groups = ctx.engine.alltoall_groups(send_groups, region)

    # deliver and merge at each destination piece (rank order i*pc + t)
    merge_ops: list[int] = []
    merge_payloads = []
    for i in range(g.pr):
        for t in range(g.pc):
            chunks = recv_groups[i][t]
            packed = (
                np.concatenate(chunks)
                if any(c.size for c in chunks)
                else np.empty(0, dtype=PAIR_DTYPE)
            )
            merge_ops.append(packed.shape[0])
            merge_payloads.append((packed, sr))
    ctx.charge_compute(region, merge_ops)
    merged = ctx.run_superstep("merge_packed", merge_payloads, region)
    out_indices = [idx for idx, _ in merged]
    out_values = [vals for _, vals in merged]

    return DistSparseVector(ctx, n, out_indices, out_values)


# ----------------------------------------------------------------------
# Direction-optimized pull (bottom-up) superstep
# ----------------------------------------------------------------------
def dist_spmspv_pull(
    A: DistSparseMatrix,
    x: DistSparseVector,
    unvisited: np.ndarray,
    sr: Semiring,
    region: str,
) -> DistSparseVector:
    """Masked pull ``y = A x``: scan unvisited rows instead of frontier columns.

    The bottom-up superstep of direction-optimized BFS.  ``unvisited``
    is the dense global boolean mask of still-unvisited vertices
    (conformal with the vector layout); only those output rows are
    computed, for ``sum_{r unvisited} nnz(A(r, :))`` modeled work plus a
    mask Allgather within each processor row.  The result is
    bit-identical to ``dist_spmspv`` followed by SELECT-on-unvisited —
    entry for entry, payload for payload — on both engines and both
    drivers, and the modeled ledger is engine- and driver-identical.
    """
    if A.ctx.flat_supersteps:
        return _dist_spmspv_pull_flat(A, x, unvisited, sr, region)
    return _dist_spmspv_pull_perrank(A, x, unvisited, sr, region)


def _dist_spmspv_pull_flat(
    A: DistSparseMatrix,
    x: DistSparseVector,
    unvisited: np.ndarray,
    sr: Semiring,
    region: str,
) -> DistSparseVector:
    ctx = A.ctx
    g = ctx.grid
    n = A.n
    pr, pc = g.pr, g.pc
    offs = ctx.vector_offsets(n)
    rows_flat = A.flat_rows()

    # ---------------- Phase A: gather input pieces per grid column -----
    # identical to push — the pull multiply still needs the frontier's
    # payloads aligned within every column block
    _phase_a_flat(A, x, region)

    # ---------------- Phase A2: unvisited masks per processor row ------
    # each rank scans its own piece to produce its mask slice, then row
    # block i's mask is replicated within processor row i (pc members)
    ctx.charge_compute(region, np.diff(offs))
    ctx.engine.charge_allgather(
        [pc] * pr, [mask_words(ln) for ln in np.diff(A.row_offsets)], region
    )

    # ---------------- Phase B: masked bottom-up scans, fused -----------
    # cell (r, j) = block column j's slice of global row r; gathering the
    # unvisited rows' cells for every block column at once reproduces
    # each rank's local row scan in kernel order (row-major, columns
    # ascending within a cell).
    cand = np.flatnonzero(unvisited).astype(np.int64)
    cells = cand[:, None] * pc + np.arange(pc, dtype=np.int64)  # (u, pc)
    cstart = rows_flat.cell_ptr[cells]
    clens = rows_flat.cell_ptr[cells + 1] - cstart

    # per-rank op counts: row-block segment sums of clens per grid column
    row_bounds = np.searchsorted(cand, A.row_offsets)  # (pr + 1,)
    cum = np.zeros((cand.size + 1, pc), dtype=np.int64)
    np.cumsum(clens, axis=0, out=cum[1:])
    ops_ij = cum[row_bounds[1:]] - cum[row_bounds[:-1]]  # (pr, pc)
    ctx.charge_compute(region, ops_ij.ravel())

    # multi-range gather of every (unvisited row, block column) cell
    lens = clens.ravel()  # row-major, block column inner
    pos = ragged_positions(cstart.ravel(), lens)
    ecol = rows_flat.minor[pos]
    evals = rows_flat.vals[pos]
    erow = np.repeat(np.broadcast_to(cand[:, None], clens.shape).ravel(), lens)
    ej = np.repeat(
        np.broadcast_to(np.arange(pc, dtype=np.int64)[None, :], clens.shape).ravel(),
        lens,
    )

    # frontier-membership filter + multiply, in scan order
    in_frontier = np.zeros(n, dtype=bool)
    in_frontier[x.idx] = True
    hit = in_frontier[ecol]
    erow, ej, ecol, evals = erow[hit], ej[hit], ecol[hit], evals[hit]
    x_dense = np.empty(n, dtype=np.float64)
    x_dense[x.idx] = x.vals
    products = np.asarray(sr.multiply(evals, x_dense[ecol]), dtype=np.float64)

    # per-rank partial outputs: group-reduce by (grid column, global row)
    # — entries are (row, column-block, column)-ordered, so each (j, r)
    # group reduces in ascending-column order, exactly like the push
    # kernel's per-block partial for the same row
    cand_key = ej * n + erow
    if cand_key.size:
        pkey, pvals = _group_reduce(cand_key, products, sr)
    else:
        pkey = np.empty(0, dtype=np.int64)
        pvals = np.empty(0, dtype=np.float64)

    return _phase_c_flat(A, pkey, pvals, sr, region)


def _dist_spmspv_pull_perrank(
    A: DistSparseMatrix,
    x: DistSparseVector,
    unvisited: np.ndarray,
    sr: Semiring,
    region: str,
) -> DistSparseVector:
    ctx = A.ctx
    g = ctx.grid
    n = A.n
    offs = ctx.vector_offsets(n)

    col_inputs = _phase_a_perrank(A, x, region)

    # ---------------- Phase A2: unvisited masks per processor row ------
    # mask wire format: one np.bool_ byte per vertex (see
    # repro.machine.cost.mask_words) — the per-rank Allgather of raw
    # bool slices charges exactly what the flat driver computes from
    # mask_words
    ctx.charge_compute(region, np.diff(offs))
    mask_groups = []
    for i in range(g.pr):
        mask_groups.append(
            [
                np.ascontiguousarray(unvisited[offs[q] : offs[q + 1]], dtype=bool)
                for q in range(i * g.pc, (i + 1) * g.pc)
            ]
        )
    row_masks = ctx.engine.allgather_groups(mask_groups, region)

    # ---------------- Phase B: masked bottom-up block scans ------------
    matrix_key = A.ensure_resident()
    ops_per_rank: list[int] = []
    payloads = []
    for r in range(g.size):
        i, j = g.coords(r)
        xj = col_inputs[j]
        mi = row_masks[i]
        # modeled work = unvisited-row nnz of the block; the CSC block's
        # cached row degrees answer that without a driver-side CSR twin
        # (workers derive their own CSR lazily in the resident store)
        ops_per_rank.append(int(A.block(i, j).row_degrees()[mi].sum()))
        payloads.append((matrix_key, r, xj.indices, xj.values, xj.n, mi, sr))
    ctx.charge_compute(region, ops_per_rank)
    multiplied = ctx.run_superstep("spmspv_pull_block", payloads, region)
    partials: dict[tuple[int, int], SparseVector] = {}
    for r, (idx, vals) in enumerate(multiplied):
        i, j = g.coords(r)
        partials[(i, j)] = SparseVector(
            int(A.row_offsets[i + 1] - A.row_offsets[i]), idx, vals
        )

    return _phase_c_perrank(A, partials, sr, region)
