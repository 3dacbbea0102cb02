"""Batched multi-source BFS: many level structures in one vectorized sweep.

The pseudo-peripheral finder (paper Algorithm 2/4) and the GPS baseline
both run *many* rooted BFS traversals — one per candidate root, one per
connected component, two per GPS endpoint pair.  Running them one at a
time costs a full Python ``while`` loop (and its per-level numpy call
overhead) per root, which dominates the Fig. 4 scaling runs at small
frontier sizes.  This module expands the level structures of many roots
simultaneously: each sweep gathers the neighbors of *every* source's
frontier in one ragged numpy gather, dedups ``(source, vertex)`` pairs
with one :func:`~repro.backends.frontier.filtered_unique` over a fused
``source * n + vertex`` key (a plain sort, no hash), and writes all
sources' next levels at once.

Semantics per source are exactly those of
:func:`repro.core.bfs.bfs_levels` — the equivalence tests pin every row
of the batched result against the serial oracle — so the lockstep
George-Liu finder (:func:`find_pseudo_peripheral_multi`) selects
bit-identical vertices while performing one batched sweep per iteration
instead of one Python BFS per root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.frontier import filtered_unique, sorted_unique
from ..sparse.csr import CSRMatrix
from .bfs import gather_rows
from .pseudo_peripheral import PseudoPeripheralResult, find_pseudo_peripheral

__all__ = [
    "bfs_levels_multi",
    "find_pseudo_peripheral_multi",
    "batching_decision",
    "BatchingDecision",
    "masked_components",
]

#: Average degree above which a graph counts as dense (its BFS flattens
#: in a handful of levels, so there is no per-level overhead to
#: amortize and the lockstep bookkeeping constant loses — BENCH_PR1
#: measured 0.56x on li7nmax6, avg degree ~120, 4 levels).
DENSE_DEGREE_THRESHOLD = 48.0

#: Minimum probe-BFS level count for the batch to win.  Below this the
#: batched sweep performs so few lockstep iterations that its
#: (source, vertex) fused-key dedup costs more than k scalar loops.
MIN_LEVELS_THRESHOLD = 6


@dataclass(frozen=True)
class BatchingDecision:
    """Outcome of the frontier-density heuristic (recorded by benches)."""

    use_batched: bool
    reason: str
    avg_degree: float
    probe_levels: int | None = None

    def describe(self) -> str:
        return ("batched" if self.use_batched else "scalar") + f" ({self.reason})"


def batching_decision(A: CSRMatrix, start: int | None = None) -> BatchingDecision:
    """Decide batched-lockstep vs per-root scalar BFS for a finder batch.

    Two gates, cheapest first: a density gate (average degree — dense
    graphs have shallow BFS trees), then a probe BFS from ``start``
    whose level count estimates the pseudo-diameter.  The probe costs
    one BFS against the ~2 BFS per start the finder itself performs, so
    its overhead amortizes across the batch.
    """
    avg_degree = A.nnz / max(A.nrows, 1)
    if avg_degree >= DENSE_DEGREE_THRESHOLD:
        return BatchingDecision(
            False, f"dense: avg degree {avg_degree:.0f}", avg_degree
        )
    if start is None:
        return BatchingDecision(
            True, f"sparse: avg degree {avg_degree:.1f}", avg_degree
        )
    from .bfs import bfs_levels

    _, nlevels = bfs_levels(A, int(start))
    if nlevels < MIN_LEVELS_THRESHOLD:
        return BatchingDecision(
            False, f"shallow: probe BFS has {nlevels} levels", avg_degree, nlevels
        )
    return BatchingDecision(
        True, f"deep: probe BFS has {nlevels} levels", avg_degree, nlevels
    )


def bfs_levels_multi(
    A: CSRMatrix, roots: np.ndarray, direction=None
) -> tuple[np.ndarray, np.ndarray]:
    """Levels from every root in ``roots``, expanded in lockstep.

    Returns ``(levels, nlevels)`` where ``levels`` has shape
    ``(len(roots), n)`` — row ``k`` is exactly
    ``bfs_levels(A, roots[k])[0]`` — and ``nlevels[k]`` is the rooted
    level structure length of root ``k``.  Duplicate roots are allowed
    (each row is an independent traversal).

    ``direction`` (:mod:`repro.core.direction`) picks push/pull/adaptive
    level kernels for the whole batch at once — the decision aggregates
    edge counts over all sources, since the lockstep sweep expands every
    source's frontier in the same fused gather.  Levels are identical
    for every direction.
    """
    from .direction import PULL, PUSH, resolve_direction

    roots = np.atleast_1d(np.asarray(roots, dtype=np.int64))
    k, n = roots.size, A.nrows
    if k == 0:
        return np.empty((0, n), dtype=np.int64), np.empty(0, dtype=np.int64)
    if roots.min() < 0 or roots.max() >= n:
        raise ValueError("root out of range")
    policy = resolve_direction(direction)
    # flat (source, vertex) key space: entry s*n + v is source s's level
    # of vertex v; one flat array keeps every lookup a cheap 1D gather
    levels_flat = np.full(k * n, -1, dtype=np.int64)
    unvisited_flat = np.ones(k * n, dtype=bool)
    src = np.arange(k, dtype=np.int64)
    vtx = roots.copy()
    root_keys = src * n + vtx
    levels_flat[root_keys] = 0
    unvisited_flat[root_keys] = False
    depth = 0
    current = PUSH
    degrees = A.degrees()
    if policy.adaptive:
        unvisited_edges = k * int(A.nnz) - int(degrees[roots].sum())
        frontier_edges = int(degrees[roots].sum())
    while vtx.size:
        current = (
            policy.choose(
                frontier_nnz=int(vtx.size),
                frontier_edges=frontier_edges,
                unvisited_edges=unvisited_edges,
                n=k * n,
                current=current,
            )
            if policy.adaptive
            else policy.mode
        )
        if current == PULL:
            uniq_key = _expand_pull_multi(
                A, n, src, vtx, unvisited_flat, degrees
            )
        else:
            uniq_key = _expand_push_multi(A, n, src, vtx, unvisited_flat)
        if uniq_key.size == 0:
            break
        depth += 1
        levels_flat[uniq_key] = depth
        unvisited_flat[uniq_key] = False
        src, vtx = uniq_key // n, uniq_key % n
        if policy.adaptive:
            frontier_edges = int(degrees[vtx].sum())
            unvisited_edges -= frontier_edges
    levels = levels_flat.reshape(k, n)
    nlevels = levels.max(axis=1) + 1
    return levels, nlevels


def _expand_push_multi(
    A: CSRMatrix,
    n: int,
    src: np.ndarray,
    vtx: np.ndarray,
    unvisited_flat: np.ndarray,
) -> np.ndarray:
    """Top-down lockstep level: the fused (source, child) frontier expand."""
    # one ragged gather covers every source's frontier
    lens = A.indptr[vtx + 1] - A.indptr[vtx]
    children = gather_rows(A, vtx)
    if children.size == 0:
        return np.empty(0, dtype=np.int64)
    # per-edge work is the batch's cost floor: one repeat of the
    # precomputed s*n bases, one add, one bool gather — then drop
    # already-visited pairs BEFORE the dedup sort, since on dense
    # low-diameter graphs most edges lead backward
    key = np.repeat(src * n, lens) + children
    # fused-key filtered_unique dedups (source, child) pairs; its
    # ordering (src-major, child ascending) reproduces the per-source
    # sorted frontiers of the serial sweep
    return filtered_unique(key, unvisited_flat)


def _expand_pull_multi(
    A: CSRMatrix,
    n: int,
    src: np.ndarray,
    vtx: np.ndarray,
    unvisited_flat: np.ndarray,
    degrees: np.ndarray,
) -> np.ndarray:
    """Bottom-up lockstep level: scan every source's unvisited vertices.

    Each unvisited ``(source, vertex)`` pair scans the vertex's
    adjacency for a neighbor in that source's frontier.  The pairs are
    scanned in ascending key order, so dropping adjacent repeats of the
    hits gives the sorted next level, matching
    :func:`_expand_push_multi` exactly.
    """
    frontier_flat = np.zeros(unvisited_flat.size, dtype=bool)
    fkey = src * n + vtx
    frontier_flat[fkey] = True
    cand = np.flatnonzero(unvisited_flat).astype(np.int64)
    if cand.size == 0:
        return np.empty(0, dtype=np.int64)
    cvtx = cand % n
    lens = degrees[cvtx]
    children = gather_rows(A, cvtx)
    if children.size == 0:
        return np.empty(0, dtype=np.int64)
    # neighbor key in the same source's row of the flat key space
    nkey = np.repeat(cand - cvtx, lens) + children
    hit = frontier_flat[nkey]
    return sorted_unique(np.repeat(cand, lens)[hit])


def find_pseudo_peripheral_multi(
    A: CSRMatrix,
    starts: np.ndarray,
    degrees: np.ndarray | None = None,
    *,
    heuristic: bool = True,
    direction=None,
) -> list:
    """George-Liu pseudo-peripheral search from many starts, in lockstep.

    Runs paper Algorithm 2/4 for every start simultaneously: each
    iteration performs ONE batched multi-source BFS over all
    still-improving starts instead of a Python BFS loop per start, then
    moves every active root to the minimum-degree vertex of its last
    level (ties to the smallest id, like the algebraic REDUCE).  Starts
    whose eccentricity estimate stops growing drop out of the batch.

    ``heuristic`` (default on) routes batches through
    :func:`batching_decision` first: dense or shallow graphs — where the
    lockstep bookkeeping loses to per-root scalar loops — fall back to
    the scalar :func:`~repro.core.pseudo_peripheral.find_pseudo_peripheral`
    loop.  Pass ``heuristic=False`` to force the batched sweep (the
    backend-ablation bench does, to measure batching itself).
    ``direction`` (:mod:`repro.core.direction`) selects the
    push/pull/adaptive BFS level kernels for every sweep — scalar-loop
    fallbacks included.  Results are bit-identical either way.

    Returns a list of
    :class:`~repro.core.pseudo_peripheral.PseudoPeripheralResult`, one
    per start, each bit-identical to a serial
    :func:`~repro.core.pseudo_peripheral.find_pseudo_peripheral` run.
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=np.int64))
    if degrees is None:
        degrees = A.degrees()
    if starts.size == 1:
        # a size-1 batch has no per-level overhead to amortize; the
        # scalar loop wins by the lockstep bookkeeping constant
        return [find_pseudo_peripheral(A, int(starts[0]), degrees, direction=direction)]
    if heuristic:
        # both gates: density first (free), then a probe BFS from the
        # first start — the finder performs ~2 BFS per start, so one
        # probe costs at most 1/(2k) of the batch it is routing
        decision = batching_decision(A, int(starts[0]))
        if not decision.use_batched:
            return [
                find_pseudo_peripheral(A, int(s), degrees, direction=direction)
                for s in starts
            ]
    k = starts.size
    r = starts.copy()
    ell = np.zeros(k, dtype=np.int64)
    nlvl = np.full(k, -1, dtype=np.int64)
    bfs_count = np.zeros(k, dtype=np.int64)
    last_nlevels = np.ones(k, dtype=np.int64)
    active = np.arange(k, dtype=np.int64)  # ell > nlvl holds initially
    deg_f = degrees.astype(np.float64)
    while active.size:
        nlvl[active] = ell[active]
        levels, nlevels = bfs_levels_multi(A, r[active], direction=direction)
        bfs_count[active] += 1
        last_nlevels[active] = nlevels
        ell[active] = nlevels - 1
        # min-degree vertex of each source's last level; np.argmin over a
        # degree row masked to the last level resolves ties to the
        # smallest vertex id, matching the serial _min_degree_in
        last_mask = levels == (nlevels - 1)[:, None]
        score = np.where(last_mask, deg_f[None, :], np.inf)
        r[active] = np.argmin(score, axis=1)
        active = active[ell[active] > nlvl[active]]
    return [
        PseudoPeripheralResult(
            vertex=int(r[s]), nlevels=int(last_nlevels[s]), bfs_count=int(bfs_count[s])
        )
        for s in range(k)
    ]


def masked_components(A: CSRMatrix, mask: np.ndarray) -> np.ndarray:
    """Connected components of the subgraph induced by ``mask``.

    Returns a dense ``int64`` array where every masked vertex carries the
    *smallest vertex id of its cluster* and unmasked vertices carry -1.
    Uses vectorized min-label propagation with pointer jumping
    (Shiloach-Vishkin style), replacing the one-Python-BFS-per-cluster
    restarts the GPS combined-level phase used to perform.
    """
    n = A.nrows
    mask = np.asarray(mask, dtype=bool)
    labels = np.full(n, -1, dtype=np.int64)
    members = np.flatnonzero(mask).astype(np.int64)
    if members.size == 0:
        return labels
    labels[members] = members
    lens = A.indptr[members + 1] - A.indptr[members]
    neigh = gather_rows(A, members)
    src = np.repeat(members, lens)
    keep = mask[neigh]
    neigh, src = neigh[keep], src[keep]
    while True:
        before = labels[members].copy()
        # hook: pull the smallest neighbor label across every masked edge
        np.minimum.at(labels, src, labels[neigh])
        # jump: compress label chains toward each cluster's minimum
        labels[members] = labels[labels[members]]
        if np.array_equal(labels[members], before):
            return labels
