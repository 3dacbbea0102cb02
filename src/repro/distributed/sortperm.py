"""Distributed SORTPERM: the paper's specialized bucket sort (Section IV.B).

Engines: simulated + processes — both Alltoalls go through the
collective engine and the step-2 local sorts are ``lexsort3``
supersteps executed on workers under the processes engine.  Charges
modeled compute, sort and communication cost to the caller's region.

Vertices of the next frontier must be ranked by the lexicographic key
``(parent label, degree, vertex id)``.  The paper's insight: parent
labels of the next frontier all lie in the contiguous label range that
was assigned to the *current* frontier, so bucketing by equal sub-ranges
of parent label yields a perfectly ordered bucket decomposition — no
splitter selection pass (the reason it beats general samplesorts like
HykSort).

Pipeline (matches the paper):

1. every rank forms tuples ``(parent_label, degree, id)`` for its local
   frontier entries and routes each to the processor owning its parent-
   label sub-range (AllToAll #1);
2. bucket owners sort locally (lexicographic);
3. an exclusive scan over bucket sizes turns local positions into global
   ranks;
4. ``(id, rank)`` pairs return to each vertex's vector-piece owner
   (AllToAll #2, "only the indices").

Like SpMSpV, two drivers exist: the **rank-vectorized** one (simulated
engine, default) performs the whole pipeline as fused operations on the
flat SoA vector — tuple formation and bucketing are single expressions,
the per-bucket sorts collapse into one bucket-major ``lexsort``, the
global ranks of the concatenated sorted buckets are ``arange``, and both
Alltoalls reduce to charges from per-rank count arrays — while
the per-rank pipeline :func:`d_sortperm_routed` (processes engine;
``rank_vectorized=False``) materializes per-rank buffers and engine
supersteps.  Results and modeled ledgers are bit-identical.  The
pipeline takes each tuple's destination rank as a function: the bucket
sort passes :func:`bucket_of_labels`, and the general samplesort of
:mod:`repro.distributed.samplesort` passes its splitter search, the
only step in which the two sorts differ.

``T_SORTPERM = O(n log n / p + beta n/p + iters * alpha * p)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .distvector import DistDenseVector, DistSparseVector

__all__ = ["d_sortperm", "bucket_of_labels"]

#: Words per (parent, degree, id) wire tuple (3 float64 lanes).
_TUPLE_WORDS = 3
#: Words per returning (id, rank) wire pair.
_PAIR_WORDS = 2


def bucket_of_labels(
    labels: np.ndarray, base: float, span: int, nprocs: int
) -> np.ndarray:
    """Bucket (owning processor) of each parent label.

    Processor ``i`` owns labels in ``[base + span*i/p, base + span*(i+1)/p)``
    — the paper's range formula with ``span = nnz(Lcur)``.
    """
    if span <= 0:
        raise ValueError("label span must be positive")
    rel = labels - base
    buckets = (rel * nprocs) // span
    return np.clip(buckets, 0, nprocs - 1).astype(np.int64)


def d_sortperm(
    x: DistSparseVector,
    degrees: DistDenseVector,
    label_base: int,
    label_span: int,
    region: str,
) -> DistSparseVector:
    """Distributed SORTPERM of frontier ``x`` keyed by (parent, degree, id).

    ``x``'s payloads are parent labels, guaranteed to lie in
    ``[label_base, label_base + label_span)``.  Returns a vector with
    ``x``'s structure whose payloads are global 0-based ranks in the
    sorted order — identical to the serial
    :func:`repro.core.primitives.sortperm`.
    """
    if label_span <= 0:
        raise ValueError("label span must be positive")
    if x.ctx.flat_supersteps:
        return _d_sortperm_flat(x, degrees, label_base, label_span, region)
    p = x.ctx.nprocs
    return d_sortperm_routed(
        x,
        degrees,
        region,
        lambda tuples: bucket_of_labels(tuples[:, 0], float(label_base), label_span, p),
    )


# ----------------------------------------------------------------------
# Rank-vectorized driver (simulated engine)
# ----------------------------------------------------------------------
def _d_sortperm_flat(
    x: DistSparseVector,
    degrees: DistDenseVector,
    label_base: int,
    label_span: int,
    region: str,
) -> DistSparseVector:
    ctx = x.ctx
    p = ctx.nprocs
    nnz = x.idx.size
    rank_counts = x.rank_counts()

    # ---- Step 1: form tuples and route to bucket owners ----------------
    parent = x.vals
    deg = degrees.data[x.idx]
    buckets = (
        bucket_of_labels(parent, float(label_base), label_span, p)
        if nnz
        else np.empty(0, dtype=np.int64)
    )
    ctx.charge_compute(region, rank_counts)
    # routed volume per (source rank, bucket): only the per-rank totals
    # feed the charge — sent is each source rank's frontier, received is
    # each bucket's population
    bucket_counts = np.bincount(buckets, minlength=p)
    ctx.engine.charge_alltoall(
        (_TUPLE_WORDS * rank_counts)[None, :],
        (_TUPLE_WORDS * bucket_counts)[None, :],
        region,
    )

    # ---- Step 2: local lexicographic sorts, bucket-major ----------------
    # one lexsort with the bucket as the primary key equals every bucket
    # owner's local (parent, degree, id) sort, concatenated in rank order
    ctx.charge_sort(region, bucket_counts)
    order = np.lexsort((x.idx, deg, parent, buckets))
    ids_sorted = x.idx[order]

    # ---- Step 3: exclusive scan of bucket sizes -------------------------
    # the concatenated sorted buckets make each entry's global rank its
    # position; the scan itself still synchronizes (and charges)
    ctx.engine.exscan_counts(bucket_counts, region)
    granks = np.arange(nnz, dtype=np.float64)

    # ---- Step 4: return (id, global rank) pairs to the piece owners -----
    ctx.engine.charge_alltoall(
        (_PAIR_WORDS * bucket_counts)[None, :],
        (_PAIR_WORDS * rank_counts)[None, :],
        region,
    )
    pos = np.searchsorted(x.idx, ids_sorted)
    if not np.array_equal(x.idx[pos], ids_sorted):
        raise AssertionError("SORTPERM lost or duplicated frontier entries")
    out_vals = np.empty(nnz, dtype=np.float64)
    out_vals[pos] = granks
    ctx.charge_compute(region, rank_counts)

    return x.with_values(out_vals)


# ----------------------------------------------------------------------
# Per-rank pipeline (processes engine; rank_vectorized=False; samplesort)
# ----------------------------------------------------------------------
def d_sortperm_routed(
    x: DistSparseVector,
    degrees: DistDenseVector,
    region: str,
    destinations: Callable[[np.ndarray], np.ndarray],
) -> DistSparseVector:
    """SORTPERM through per-rank buffers, engine collectives and supersteps.

    ``destinations(tuples)`` maps the rank-ordered ``(parent, degree,
    id)`` tuples (an ``(nnz, 3)`` array) to the rank each is sorted on;
    every tuple sent to rank ``t`` must precede, lexicographically,
    every tuple sent to rank ``t + 1``.  It runs after tuple formation
    is charged and charges whatever choosing destinations costs: nothing
    for the bucket sort, the sample Allgather and splitter search for
    :func:`repro.distributed.samplesort.d_sortperm_samplesort`.
    """
    ctx = x.ctx
    p = ctx.nprocs
    starts = x.starts

    # ---- Step 1: form tuples and route them to their destinations -------
    tuples = np.empty((x.idx.size, 3), dtype=np.float64)
    tuples[:, 0] = x.vals
    tuples[:, 1] = degrees.data[x.idx]
    tuples[:, 2] = x.idx
    ctx.charge_compute(region, x.rank_counts())
    dest = destinations(tuples)
    send: list[list[np.ndarray]] = []
    for k in range(p):
        t, d = tuples[starts[k] : starts[k + 1]], dest[starts[k] : starts[k + 1]]
        send.append([t[d == j] for j in range(p)])
    recv = ctx.engine.alltoall(send, region)

    # ---- Step 2: local lexicographic sorts (one superstep) --------------
    blocks: list[np.ndarray] = []
    for t in range(p):
        chunks = [c for c in recv[t] if c.size]
        blocks.append(np.concatenate(chunks) if chunks else np.empty((0, 3)))
    ctx.charge_sort(region, [b.shape[0] for b in blocks])
    sorted_tuples = ctx.run_superstep("lexsort3", blocks, region)

    # ---- Step 3: exclusive scan of bucket sizes -------------------------
    scan = ctx.engine.exscan_counts([b.shape[0] for b in sorted_tuples], region)

    # ---- Step 4: return (id, global rank) pairs to the piece owners -----
    send_back: list[list[np.ndarray]] = []
    for t in range(p):
        block = sorted_tuples[t]
        ranks = scan[t] + np.arange(block.shape[0], dtype=np.int64)
        ids = block[:, 2].astype(np.int64)
        owners = np.searchsorted(x.offs[1:], ids, side="right")
        pairs = np.empty((block.shape[0], 2), dtype=np.float64)
        pairs[:, 0] = ids
        pairs[:, 1] = ranks
        send_back.append([pairs[owners == d] for d in range(p)])
    back = ctx.engine.alltoall(send_back, region)

    out_vals = np.empty(x.idx.size, dtype=np.float64)
    place_ops = []
    for k in range(p):
        chunks = [c for c in back[k] if c.size]
        pairs = np.concatenate(chunks) if chunks else np.empty((0, 2))
        lo, hi = starts[k], starts[k + 1]
        place_ops.append(pairs.shape[0])
        if pairs.shape[0] != hi - lo:
            raise AssertionError("SORTPERM lost or duplicated frontier entries")
        if pairs.shape[0]:
            pos = np.searchsorted(x.idx[lo:hi], pairs[:, 0].astype(np.int64))
            out_vals[lo + pos] = pairs[:, 1]
    ctx.charge_compute(region, place_ops)
    return x.with_values(out_vals)
