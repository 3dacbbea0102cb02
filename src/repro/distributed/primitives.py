"""Distributed implementations of the Table I primitives.

Engines: simulated + processes — the local element work is tiny
(O(frontier) per rank), so it executes driver-side under both engines;
reductions go through the engine's allreduce and therefore synchronize
the worker pool under the processes engine.  Charges modeled compute,
and modeled communication for the reducing primitives.

Each function here is the 2D-distributed counterpart of a serial
primitive in :mod:`repro.core.primitives` and must return element-for-
element identical results — the property
``tests/test_cross_backend.py`` enforces for every grid size.

Because the distributed vectors are flat structure-of-arrays
(:mod:`repro.distributed.distvector`), every primitive runs as one fused
numpy expression across all ranks: sparse indices are global, so dense
payload lookups are direct ``data[idx]`` gathers, and per-rank cost
arrays come from ``diff`` of the rank-offset array.  Charges take one
call per superstep with a per-rank array and are bit-identical to the
per-rank reference loops, which remain available under
``DistContext(rank_vectorized=False)`` as the equivalence-suite oracle.

Communication-free primitives (IND, SELECT, SET) run on each rank's local
piece and only charge compute time.  REDUCE charges an Allreduce;
the global-nnz emptiness test used by the BFS loops charges the same.
SPMSPV and SORTPERM live in their own modules.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .distvector import DistDenseVector, DistSparseVector

__all__ = [
    "d_select",
    "d_read_dense",
    "d_set_dense",
    "d_fill_values",
    "d_reduce_argmin",
    "d_nnz",
    "d_first_index_where",
    "d_degree_sum",
]


def d_select(
    x: DistSparseVector,
    y: DistDenseVector,
    expr: Callable[[np.ndarray], np.ndarray],
    region: str,
) -> DistSparseVector:
    """``SELECT(x, y, expr)``: keep nonzeros whose dense payload passes.

    Purely local: vector pieces of ``x`` and ``y`` are aligned.
    ``expr`` must be elementwise (it is applied to all ranks' payloads
    in one call on the vectorized path).
    """
    ctx = x.ctx
    if not ctx.rank_vectorized:
        return _d_select_perrank(x, y, expr, region)
    ctx.charge_compute(region, x.rank_counts())
    if x.idx.size == 0:
        return x
    mask = np.asarray(expr(y.data[x.idx]), dtype=bool)
    keep = np.zeros(x.idx.size + 1, dtype=np.int64)
    np.cumsum(mask, out=keep[1:])
    return DistSparseVector(
        ctx, x.n, x.idx[mask], x.vals[mask], keep[x.starts]
    )


def _d_select_perrank(x, y, expr, region):
    ctx = x.ctx
    offs = x.offs
    x_indices, x_values, segments = x.indices, x.values, y.segments
    new_idx, new_vals, ops = [], [], []
    for k in range(ctx.nprocs):
        idx = x_indices[k]
        ops.append(idx.size)
        if idx.size == 0:
            new_idx.append(idx.copy())
            new_vals.append(x_values[k].copy())
            continue
        payload = segments[k][idx - offs[k]]
        mask = np.asarray(expr(payload), dtype=bool)
        new_idx.append(idx[mask])
        new_vals.append(x_values[k][mask])
    ctx.charge_compute(region, ops)
    return DistSparseVector(ctx, x.n, new_idx, new_vals)


def d_read_dense(
    x: DistSparseVector, y: DistDenseVector, region: str
) -> DistSparseVector:
    """The gather overload of ``SET``: payloads of ``x`` from dense ``y``."""
    ctx = x.ctx
    if not ctx.rank_vectorized:
        return _d_read_dense_perrank(x, y, region)
    ctx.charge_compute(region, x.rank_counts())
    return x.with_values(y.data[x.idx])


def _d_read_dense_perrank(x, y, region):
    ctx = x.ctx
    offs = x.offs
    x_indices, segments = x.indices, y.segments
    new_vals, ops = [], []
    for k in range(ctx.nprocs):
        idx = x_indices[k]
        ops.append(idx.size)
        new_vals.append(
            segments[k][idx - offs[k]].astype(np.float64)
            if idx.size
            else np.empty(0, dtype=np.float64)
        )
    ctx.charge_compute(region, ops)
    return DistSparseVector(ctx, x.n, [i.copy() for i in x_indices], new_vals)


def d_set_dense(y: DistDenseVector, x: DistSparseVector, region: str) -> None:
    """``SET(y, x)``: scatter sparse payloads into the dense vector."""
    ctx = x.ctx
    if not ctx.rank_vectorized:
        _d_set_dense_perrank(y, x, region)
        return
    y.data[x.idx] = x.vals
    ctx.charge_compute(region, x.rank_counts())


def _d_set_dense_perrank(y, x, region):
    ctx = x.ctx
    offs = x.offs
    x_indices, x_values, segments = x.indices, x.values, y.segments
    ops = []
    for k in range(ctx.nprocs):
        idx = x_indices[k]
        ops.append(idx.size)
        if idx.size:
            segments[k][idx - offs[k]] = x_values[k]
    ctx.charge_compute(region, ops)


def d_fill_values(x: DistSparseVector, value: float) -> DistSparseVector:
    """``x`` with every payload set to ``value`` (no charge)."""
    return x.with_values(np.full(x.idx.size, value, dtype=np.float64))


def d_reduce_argmin(
    x: DistSparseVector, y: DistDenseVector, region: str
) -> int:
    """``REDUCE``: global index minimizing ``y`` over ``IND(x)``.

    Each rank reduces locally, then one MINLOC-style Allreduce picks the
    global winner; ties break to the smallest index, matching
    :func:`repro.core.primitives.reduce_argmin`.
    """
    ctx = x.ctx
    if not ctx.rank_vectorized:
        return _d_reduce_argmin_perrank(x, y, region)
    p = ctx.nprocs
    counts = x.rank_counts()
    pairs = np.full((p, 2), np.inf)
    if x.idx.size:
        payload = y.data[x.idx]
        nonempty = counts > 0
        seg_heads = x.starts[:-1][nonempty]
        # per-rank minimum: reduceat over the nonempty segment heads
        # spans each nonempty segment exactly (empty segments collapse)
        mins = np.minimum.reduceat(payload, seg_heads)
        # first in-segment occurrence of each minimum = smallest index
        hit = np.flatnonzero(payload == np.repeat(mins, counts[nonempty]))
        first = hit[np.searchsorted(hit, seg_heads)]
        pairs[nonempty, 0] = payload[first]
        pairs[nonempty, 1] = x.idx[first]
    ctx.charge_compute(region, counts)
    value, index = ctx.engine.allreduce_lexmin(pairs, region)
    if not np.isfinite(index):
        raise ValueError("REDUCE over an empty frontier")
    return int(index)


def _d_reduce_argmin_perrank(x, y, region):
    ctx = x.ctx
    offs = x.offs
    x_indices, segments = x.indices, y.segments
    pairs: list[tuple[float, float]] = []
    ops = []
    for k in range(ctx.nprocs):
        idx = x_indices[k]
        ops.append(idx.size)
        if idx.size == 0:
            pairs.append((np.inf, np.inf))
            continue
        payload = segments[k][idx - offs[k]]
        j = int(np.argmin(payload))  # first occurrence = smallest index
        pairs.append((float(payload[j]), float(idx[j])))
    ctx.charge_compute(region, ops)
    value, index = ctx.engine.allreduce_lexmin(pairs, region)
    if not np.isfinite(index):
        raise ValueError("REDUCE over an empty frontier")
    return int(index)


def d_nnz(x: DistSparseVector, region: str) -> int:
    """Global nonzero count (the BFS loop's emptiness test): Allreduce."""
    ctx = x.ctx
    if not ctx.rank_vectorized:
        total = ctx.engine.allreduce_scalar(
            [float(i.size) for i in x.indices], np.sum, region
        )
        return int(total)
    total = ctx.engine.allreduce_scalar(
        x.rank_counts().astype(np.float64), np.sum, region
    )
    return int(total)


def d_degree_sum(x: DistSparseVector, y: DistDenseVector, region: str) -> float:
    """Sum of dense payloads of ``y`` over ``IND(x)``: gather + Allreduce.

    The direction heuristic's frontier-edge counter: with ``y`` the
    degree vector, returns ``sum_{v in x} deg(v)``.  Each rank reduces
    its own piece locally (exact — degrees are integers far below
    2**53), then one scalar Allreduce makes the total global, so every
    engine and driver sees the identical value and charge.
    """
    ctx = x.ctx
    if not ctx.rank_vectorized:
        return _d_degree_sum_perrank(x, y, region)
    p = ctx.nprocs
    counts = x.rank_counts()
    sums = np.zeros(p, dtype=np.float64)
    if x.idx.size:
        payload = y.data[x.idx]
        nonempty = counts > 0
        seg_heads = x.starts[:-1][nonempty]
        # reduceat over nonempty segment heads spans each nonempty
        # segment exactly (empty segments collapse); integer-valued
        # payloads make the summation order immaterial
        sums[nonempty] = np.add.reduceat(payload, seg_heads)
    ctx.charge_compute(region, counts)
    return float(ctx.engine.allreduce_scalar(sums, np.sum, region))


def _d_degree_sum_perrank(x, y, region):
    ctx = x.ctx
    offs = x.offs
    x_indices, segments = x.indices, y.segments
    sums: list[float] = []
    ops = []
    for k in range(ctx.nprocs):
        idx = x_indices[k]
        ops.append(idx.size)
        sums.append(
            float(segments[k][idx - offs[k]].sum()) if idx.size else 0.0
        )
    ctx.charge_compute(region, ops)
    return float(ctx.engine.allreduce_scalar(sums, np.sum, region))


def d_first_index_where(
    y: DistDenseVector,
    predicate: Callable[[np.ndarray], np.ndarray],
    region: str,
) -> int:
    """Smallest global index whose dense entry satisfies ``predicate``.

    Used by the multi-component driver to seed Algorithm 4 with the
    smallest unvisited vertex; returns ``n`` when none qualifies.
    ``predicate`` must be elementwise, like ``d_select``'s ``expr``.
    """
    ctx = y.ctx
    if not ctx.rank_vectorized:
        return _d_first_index_where_perrank(y, predicate, region)
    p = ctx.nprocs
    pairs = np.full((p, 2), np.inf)
    hits = np.flatnonzero(np.asarray(predicate(y.data), dtype=bool))
    if hits.size:
        owner = np.searchsorted(y.offs[1:], hits, side="right")
        ranks, head = np.unique(owner, return_index=True)
        pairs[ranks, 0] = pairs[ranks, 1] = hits[head]
    ctx.charge_compute(region, np.diff(y.offs))
    value, _ = ctx.engine.allreduce_lexmin(pairs, region)
    return y.n if not np.isfinite(value) else int(value)


def _d_first_index_where_perrank(y, predicate, region):
    ctx = y.ctx
    offs = y.offs
    segments = y.segments
    pairs: list[tuple[float, float]] = []
    ops = []
    for k in range(ctx.nprocs):
        seg = segments[k]
        ops.append(seg.size)
        hits = np.flatnonzero(np.asarray(predicate(seg), dtype=bool))
        if hits.size:
            g = float(hits[0] + offs[k])
            pairs.append((g, g))
        else:
            pairs.append((np.inf, np.inf))
    ctx.charge_compute(region, ops)
    value, _ = ctx.engine.allreduce_lexmin(pairs, region)
    return y.n if not np.isfinite(value) else int(value)
