"""General distributed samplesort — the HykSort stand-in for the ablation.

Engines: simulated + processes — sampling, routing and returning go
through the collective engine; the local sorts are ``lexsort3``
supersteps on workers under the processes engine.  Charges modeled
compute, sort and communication cost to the caller's region.

The paper justifies its specialized bucket sort by noting it beat
"state-of-the-art general sorting libraries, such as HykSort".  A general
sort cannot exploit the fact that parent labels already partition into
known contiguous ranges; it must (1) sample keys, (2) gather samples and
select splitters, (3) route by splitter search, (4) sort locally, and it
pays an extra splitter-selection round the bucket sort skips.

This module implements exactly that on the simulated machine so the
``sort-ablation`` bench can quantify the design choice.  Results are
identical to :func:`repro.distributed.sortperm.d_sortperm`; only cost
differs.

Tuple formation and rank placement slice the flat SoA vector per rank,
so one code path serves both drivers.  The splitter routing and both
Alltoalls stay per-rank — they are the costs the ablation exists to
model.
"""

from __future__ import annotations

import numpy as np

from .distvector import DistDenseVector, DistSparseVector

__all__ = ["d_sortperm_samplesort"]

#: Oversampling factor per processor (HykSort-style).
_OVERSAMPLE = 8


def d_sortperm_samplesort(
    x: DistSparseVector,
    degrees: DistDenseVector,
    region: str,
) -> DistSparseVector:
    """SORTPERM via general samplesort (no parent-label range knowledge)."""
    ctx = x.ctx
    p = ctx.nprocs
    offs = x.offs

    # ---- form local tuples: one pass over the flat vector, sliced ------
    tuples_flat = np.empty((x.idx.size, 3), dtype=np.float64)
    tuples_flat[:, 0] = x.vals
    tuples_flat[:, 1] = degrees.data[x.idx]
    tuples_flat[:, 2] = x.idx
    locals_ = [tuples_flat[x.starts[k] : x.starts[k + 1]] for k in range(p)]
    ctx.charge_compute(region, x.rank_counts())

    # ---- sample + splitter selection (the extra round) ------------------
    samples = []
    for k in range(p):
        t = locals_[k]
        if t.shape[0] == 0:
            samples.append(np.empty((0, 3)))
            continue
        step = max(1, t.shape[0] // _OVERSAMPLE)
        samples.append(t[::step][:_OVERSAMPLE])
    all_samples = ctx.engine.allgather_groups([samples], region)[0]
    if all_samples.shape[0]:
        order = np.lexsort(
            (all_samples[:, 2], all_samples[:, 1], all_samples[:, 0])
        )
        all_samples = all_samples[order]
        cut = np.linspace(0, all_samples.shape[0], p + 1)[1:-1].astype(int)
        splitters = all_samples[cut]
    else:
        splitters = np.empty((0, 3))

    # ---- route by splitters ---------------------------------------------
    def dest_of(tuples: np.ndarray) -> np.ndarray:
        if splitters.shape[0] == 0 or tuples.shape[0] == 0:
            return np.zeros(tuples.shape[0], dtype=np.int64)
        # lexicographic comparison against each splitter
        d = np.zeros(tuples.shape[0], dtype=np.int64)
        for s in range(splitters.shape[0]):
            sp = splitters[s]
            ge = (
                (tuples[:, 0] > sp[0])
                | ((tuples[:, 0] == sp[0]) & (tuples[:, 1] > sp[1]))
                | (
                    (tuples[:, 0] == sp[0])
                    & (tuples[:, 1] == sp[1])
                    & (tuples[:, 2] >= sp[2])
                )
            )
            d[ge] = s + 1
        return d

    send: list[list[np.ndarray]] = []
    route_ops = []
    for k in range(p):
        t = locals_[k]
        d = dest_of(t)
        route_ops.append(t.shape[0] * max(int(np.log2(p)) if p > 1 else 1, 1))
        send.append([t[d == j] for j in range(p)])
    ctx.charge_compute(region, route_ops)
    recv = ctx.engine.alltoall(send, region)

    # ---- local sorts (one superstep) + global ranks ----------------------
    blocks: list[np.ndarray] = []
    sort_keys = []
    for t in range(p):
        chunks = [c for c in recv[t] if c.size]
        block = np.concatenate(chunks) if chunks else np.empty((0, 3))
        sort_keys.append(block.shape[0])
        blocks.append(block)
    ctx.charge_sort(region, sort_keys)
    sorted_blocks = ctx.run_superstep("lexsort3", blocks, region)
    scan = ctx.engine.exscan_counts([b.shape[0] for b in sorted_blocks], region)

    # ---- send (id, rank) back to piece owners -----------------------------
    send_back: list[list[np.ndarray]] = []
    for t in range(p):
        block = sorted_blocks[t]
        ranks = scan[t] + np.arange(block.shape[0], dtype=np.int64)
        ids = block[:, 2].astype(np.int64)
        owners = np.searchsorted(offs[1:], ids, side="right")
        pairs = np.empty((block.shape[0], 2), dtype=np.float64)
        pairs[:, 0] = ids
        pairs[:, 1] = ranks
        send_back.append([pairs[owners == d] for d in range(p)])
    back = ctx.engine.alltoall(send_back, region)

    # ---- place returning ranks into the output ----------------------------
    out_vals = np.empty(x.idx.size, dtype=np.float64)
    place_ops = np.zeros(p, dtype=np.int64)
    for k in range(p):
        chunks = [c for c in back[k] if c.size]
        pairs = np.concatenate(chunks) if chunks else np.empty((0, 2))
        lo, hi = x.starts[k], x.starts[k + 1]
        place_ops[k] = pairs.shape[0]
        if pairs.shape[0] != hi - lo:
            raise AssertionError("samplesort lost or duplicated entries")
        if pairs.shape[0]:
            pos = np.searchsorted(x.idx[lo:hi], pairs[:, 0].astype(np.int64))
            out_vals[lo + pos] = pairs[:, 1]
    ctx.charge_compute(region, place_ops)
    return x.with_values(out_vals)
