"""Distributed-memory RCM: Algorithms 3 + 4 on the 2D grid.

Engines: simulated + processes — pass ``engine="processes"`` (or a
prebuilt processes context) to run every superstep on real workers; the
ordering is bit-identical either way, which ``repro-bench run calibration``
enforces on the whole paper suite.  Charges modeled cost into the five
Fig. 4 regions.

This is the paper's headline algorithm.  It mirrors the serial algebraic
driver of :mod:`repro.core.rcm_algebraic` superstep-for-superstep, but
every primitive is the distributed one, and every superstep charges
modeled time into the five regions of the paper's Fig. 4 breakdown:

* ``peripheral:spmspv`` / ``peripheral:other`` — Algorithm 4;
* ``ordering:spmspv`` / ``ordering:sort`` / ``ordering:other`` —
  Algorithm 3.

The returned ordering is **identical** to the serial one for every grid
size — the determinism property the paper gets from the
``(select2nd, min)`` semiring and the bucket sort (tested exhaustively in
``tests/test_cross_backend.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.direction import PULL, PUSH
from ..core.ordering import Ordering
from ..machine.cost import CostLedger
from ..machine.grid import ProcessGrid
from ..machine.params import MachineParams, edison
from ..semiring.semiring import SELECT2ND_MIN, Semiring
from ..sparse.csr import CSRMatrix
from ..sparse.permute import (
    compose_permutations,
    invert_permutation,
    random_symmetric_permutation,
)
from .bfs import DirectionState
from .context import DistContext
from .distmatrix import DistSparseMatrix
from .distvector import DistDenseVector, DistSparseVector
from .primitives import (
    d_fill_values,
    d_first_index_where,
    d_nnz,
    d_read_dense,
    d_reduce_argmin,
    d_select,
    d_set_dense,
)
from .sortperm import d_sortperm
from .spmspv import dist_spmspv, dist_spmspv_pull

__all__ = ["DistRCMResult", "rcm_distributed", "distributed_pseudo_peripheral"]


@dataclass
class DistRCMResult:
    """Outcome of a distributed RCM run.

    Attributes
    ----------
    ordering:
        The RCM :class:`~repro.core.ordering.Ordering` (original labels).
    ledger:
        Modeled-time accounting by region (Fig. 4/5 input).
    ctx:
        The distributed context the run used.
    spmspv_calls:
        Total number of distributed SpMSpV invocations (BFS supersteps).
    """

    ordering: Ordering
    ledger: CostLedger
    ctx: DistContext
    spmspv_calls: int

    @property
    def modeled_seconds(self) -> float:
        return self.ledger.total_seconds


def distributed_pseudo_peripheral(
    A: DistSparseMatrix,
    degrees: DistDenseVector,
    start: int,
    sr: Semiring = SELECT2ND_MIN,
    direction: str = PUSH,
) -> tuple[int, int, int, int]:
    """Algorithm 4 on the grid: ``(vertex, nlevels, bfs_count, spmspv_calls)``."""
    ctx = A.ctx
    n = A.n
    r = int(start)
    ell, nlvl = 0, -1
    bfs_count = 0
    spmspv_calls = 0
    last_nlevels = 1
    state = DirectionState(A, direction)
    while ell > nlvl:
        L = DistDenseVector.full(ctx, n, -1.0)
        Lcur = DistSparseVector.single(ctx, n, r, 0.0)
        nlvl = ell
        L.set(r, 0.0)
        ell = 0
        state.start(Lcur, "peripheral:other")
        while True:
            Lcur = d_read_dense(Lcur, L, "peripheral:other")
            if state.next_direction(Lcur, Lcur.idx.size) == PULL:
                Lnext = dist_spmspv_pull(A, Lcur, L.data == -1.0, sr, "peripheral:spmspv")
            else:
                Lnext = dist_spmspv(A, Lcur, sr, "peripheral:spmspv")
            spmspv_calls += 1
            Lnext = d_select(
                Lnext, L, lambda vals: vals == -1.0, "peripheral:other"
            )
            if d_nnz(Lnext, "peripheral:other") == 0:
                break
            ell += 1
            d_set_dense(L, d_fill_values(Lnext, float(ell)), "peripheral:other")
            state.advance(Lnext, "peripheral:other")
            Lcur = Lnext
        bfs_count += 1
        last_nlevels = ell + 1
        r = d_reduce_argmin(Lcur, degrees, "peripheral:other")
    return r, last_nlevels, bfs_count, spmspv_calls


def _order_component(
    A: DistSparseMatrix,
    degrees: DistDenseVector,
    root: int,
    R: DistDenseVector,
    nv: int,
    sr: Semiring,
    sort_impl: str = "bucket",
    direction: str = PUSH,
) -> tuple[int, int]:
    """Algorithm 3 on the grid; returns ``(new nv, spmspv_calls)``."""
    ctx = A.ctx
    n = A.n
    Lcur = DistSparseVector.single(ctx, n, root, 0.0)
    R.set(root, float(nv))
    nv += 1
    nnz_cur = 1
    spmspv_calls = 0
    state = DirectionState(A, direction)
    state.start(Lcur, "ordering:other")
    while nnz_cur > 0:
        label_base = nv - nnz_cur
        Lcur = d_read_dense(Lcur, R, "ordering:other")  # line 6
        if state.next_direction(Lcur, nnz_cur) == PULL:
            # line 7, bottom-up: unvisited vertices (R == -1) scan for a
            # labeled frontier neighbor; fused mask replaces the SELECT
            Lnext = dist_spmspv_pull(A, Lcur, R.data == -1.0, sr, "ordering:spmspv")
        else:
            Lnext = dist_spmspv(A, Lcur, sr, "ordering:spmspv")  # line 7
        spmspv_calls += 1
        Lnext = d_select(
            Lnext, R, lambda vals: vals == -1.0, "ordering:other"
        )  # line 8
        nnz_next = d_nnz(Lnext, "ordering:other")
        if nnz_next == 0:
            break
        # line 9: distributed sort keyed on the current frontier's
        # label range [label_base, label_base + nnz_cur)
        if sort_impl == "bucket":
            Rnext = d_sortperm(Lnext, degrees, label_base, nnz_cur, "ordering:sort")
        elif sort_impl == "sample":
            from .samplesort import d_sortperm_samplesort

            Rnext = d_sortperm_samplesort(Lnext, degrees, "ordering:sort")
        elif sort_impl == "none":
            # the paper's future-work variant ("not sorting at all and
            # sacrifice some quality"): label the frontier in index order
            # — only an exclusive scan over per-rank counts is needed;
            # the concatenation of ``scan[k] + arange(count_k)`` in rank
            # order is simply ``arange(total)``
            ctx.engine.exscan_counts(Lnext.rank_counts(), "ordering:sort")
            Rnext = Lnext.with_values(np.arange(Lnext.idx.size, dtype=np.float64))
        else:
            raise ValueError(f"unknown sort_impl {sort_impl!r}")
        Rnext = Rnext.with_values(Rnext.vals + nv)  # line 10: shift to global labels
        nv += nnz_next  # line 11
        d_set_dense(R, Rnext, "ordering:other")  # line 12
        state.advance(Lnext, "ordering:other")
        Lcur = Lnext  # line 13
        nnz_cur = nnz_next
    return nv, spmspv_calls


def rcm_distributed(
    A: CSRMatrix,
    nprocs: int = 1,
    machine: MachineParams | None = None,
    *,
    random_permute: int | None = None,
    start: int | None = None,
    sr: Semiring = SELECT2ND_MIN,
    ctx: DistContext | None = None,
    sort_impl: str = "bucket",
    engine: str = "simulated",
    procs: int | None = None,
    direction: str = PUSH,
) -> DistRCMResult:
    """Compute the RCM ordering of ``A`` on an ``nprocs`` grid.

    Parameters
    ----------
    A:
        Square structurally-symmetric sparse matrix, either a global
        :class:`CSRMatrix` (distributed internally) or an
        already-distributed :class:`DistSparseMatrix` — the form the
        streamed ingest path (``DistSparseMatrix.from_stream``) hands
        over, where no global CSR ever exists.  A pre-distributed
        matrix brings its own context, so ``ctx``/``engine``/``procs``/
        ``random_permute`` must not conflict with it.
    nprocs:
        Number of SPMD ranks (must form a square grid).
    machine:
        Cost-model constants; defaults to the Edison-like preset.
    random_permute:
        Seed for the load-balancing random relabeling the paper applies
        before running (Section IV.A); ``None`` disables it, keeping the
        ordering comparable with serial runs on the same labels.
    start:
        Optional seed vertex for the first component's Algorithm 4.
    sr:
        BFS semiring; the paper's ``(select2nd, min)`` by default.
    ctx:
        Pre-built context (overrides ``nprocs``/``machine``).
    sort_impl:
        ``"bucket"`` for the paper's specialized bucket sort,
        ``"sample"`` for the general samplesort (HykSort stand-in) used
        by the sort ablation.  Results are identical; costs differ.
    engine:
        ``"simulated"`` (default) runs the SPMD loop in-process on the
        modeled machine; ``"processes"`` executes supersteps and
        collectives on a real worker pool (see
        :mod:`repro.runtime`) and additionally fills
        ``result.ctx.measured`` with wall-clock for calibration.  The
        ordering is bit-identical either way.
    procs:
        Worker-process count for ``engine="processes"``; defaults to one
        worker per rank.  Ranks map onto workers in contiguous chunks,
        so ``procs < nprocs`` oversubscribes workers rather than failing.
    direction:
        BFS direction policy (:mod:`repro.core.direction`):
        ``"push"`` (default — the paper's top-down supersteps and the
        committed ledger baseline), ``"pull"``, or ``"adaptive"`` for
        the Beamer-style per-level switch.  The ordering is bit-identical
        for every choice, on every engine and driver.
    """
    # A pre-distributed matrix (e.g. streamed in via ``from_stream``)
    # runs as-is on its own context — no global CSR ever exists, which
    # is the point of the sharded ingest path.
    predistributed = isinstance(A, DistSparseMatrix)
    if predistributed:
        if ctx is not None and ctx is not A.ctx:
            raise ValueError("ctx= conflicts with the matrix's own context")
        if random_permute is not None:
            raise ValueError(
                "random_permute requires a global CSR; relabel the stream "
                "before distribution instead"
            )
        if procs is not None:
            raise ValueError("procs= conflicts with a pre-distributed matrix")
        if engine != "simulated" and engine != A.ctx.engine_name:
            raise ValueError(
                f"engine={engine!r} conflicts with the matrix's "
                f"{A.ctx.engine_name!r} context"
            )
        ctx = A.ctx
        n = A.n
        relabel = None
    else:
        if A.nrows != A.ncols:
            raise ValueError("RCM requires a square (symmetric) matrix")
        n = A.nrows

        relabel = None
        A_run = A
        if random_permute is not None:
            A_run, relabel = random_symmetric_permutation(A, random_permute)

    owns_ctx = ctx is None
    if ctx is None:
        ctx = DistContext(
            ProcessGrid.square(nprocs),
            machine or edison(),
            engine=engine,
            procs=procs,
        )
    else:
        # a provided context already fixes the engine; silently running a
        # different one than requested would fake calibration results
        if procs is not None:
            raise ValueError("procs= conflicts with ctx=; size the context's pool")
        if engine != "simulated" and engine != ctx.engine_name:
            raise ValueError(
                f"engine={engine!r} conflicts with the provided "
                f"{ctx.engine_name!r} context"
            )
    dA = None
    try:
        dA = A if predistributed else DistSparseMatrix.from_csr(ctx, A_run)
        degrees = dA.degrees()

        R = DistDenseVector.full(ctx, n, -1.0)
        nv = 0
        roots: list[int] = []
        levels: list[int] = []
        bfs_total = 0
        spmspv_calls = 0
        first = True
        while nv < n:
            seed = (
                start
                if (first and start is not None)
                else d_first_index_where(
                    R, lambda seg: seg == -1.0, "peripheral:other"
                )
            )
            first = False
            r, nlevels, bfs_count, calls = distributed_pseudo_peripheral(
                dA, degrees, seed, sr, direction=direction
            )
            roots.append(r)
            levels.append(nlevels)
            bfs_total += bfs_count
            spmspv_calls += calls
            nv, calls = _order_component(dA, degrees, r, R, nv, sr, sort_impl, direction=direction)
            spmspv_calls += calls
    finally:
        # a context we created, we also tear down (worker pools must not
        # outlive the call); caller-provided contexts stay open, but the
        # matrix we distributed is internal — free its worker-resident
        # blocks so shared pools don't accumulate one payload per call
        if owns_ctx:
            ctx.close()
        elif dA is not None and not predistributed:
            # a caller-provided pre-distributed matrix stays resident
            # (the caller may reuse it); releasing is their call
            dA.release_resident()

    cm_perm = invert_permutation(R.to_global().astype(np.int64))
    perm = cm_perm[::-1].copy()  # Algorithm 3 line 14: reverse
    if relabel is not None:
        perm = compose_permutations(perm, relabel)
    ordering = Ordering(
        perm=perm,
        algorithm=f"rcm-distributed-p{ctx.nprocs}",
        roots=roots,
        peripheral_bfs_count=bfs_total,
        levels_per_component=levels,
    )
    return DistRCMResult(
        ordering=ordering,
        ledger=ctx.ledger,
        ctx=ctx,
        spmspv_calls=spmspv_calls,
    )
