"""Vectorized breadth-first search on CSR adjacency.

BFS is the backbone of both the pseudo-peripheral vertex finder
(Algorithm 2/4) and the RCM ordering sweep (Algorithm 1/3).  The serial
reference implementation here expands whole frontiers with numpy gathers
rather than vertex-at-a-time queue pops; it is used by metrics, the serial
RCM, connected components, and as a test oracle for the algebraic
formulation.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.ragged import ragged_positions

__all__ = ["gather_rows", "bfs_levels", "bfs_parents", "level_sets"]


def gather_rows(A: CSRMatrix, rows: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of the given rows (with duplicates)."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = A.indptr[rows]
    return A.indices[ragged_positions(starts, A.indptr[rows + 1] - starts)]


def bfs_levels(
    A: CSRMatrix, root: int, backend=None, direction=None
) -> tuple[np.ndarray, int]:
    """Level of every vertex from ``root`` (-1 if unreachable).

    Returns ``(levels, nlevels)`` where ``nlevels`` counts nonempty levels
    (the rooted level structure length, i.e. eccentricity + 1).  The
    frontier-expansion kernel is supplied by the active kernel backend
    (:mod:`repro.backends`); every backend returns identical levels.

    ``direction`` selects the level kernel (:mod:`repro.core.direction`):
    ``"push"`` expands the frontier top-down, ``"pull"`` scans the
    unvisited vertices bottom-up, and ``"adaptive"`` (the default)
    switches per level on Beamer-style edge-count thresholds.  Levels
    are identical for every direction — only the work profile changes.
    """
    from ..backends import resolve_backend
    from .direction import PULL, PUSH, resolve_direction

    n = A.nrows
    if not (0 <= root < n):
        raise ValueError("root out of range")
    policy = resolve_direction(direction)
    kernels = resolve_backend(backend)
    levels = np.full(n, -1, dtype=np.int64)
    unvisited = np.ones(n, dtype=bool)
    levels[root] = 0
    unvisited[root] = False
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    current = PUSH
    if policy.adaptive:
        degrees = A.degrees()
        unvisited_edges = int(A.nnz) - int(degrees[root])
        frontier_edges = int(degrees[root])
    while frontier.size:
        current = (
            policy.choose(
                frontier_nnz=int(frontier.size),
                frontier_edges=frontier_edges,
                unvisited_edges=unvisited_edges,
                n=n,
                current=current,
            )
            if policy.adaptive
            else policy.mode
        )
        if current == PULL:
            neigh = kernels.expand_frontier_pull(A, frontier, unvisited)
        else:
            neigh = kernels.expand_frontier(A, frontier, unvisited)
        depth += 1
        levels[neigh] = depth
        unvisited[neigh] = False
        frontier = neigh
        if policy.adaptive and frontier.size:
            frontier_edges = int(degrees[frontier].sum())
            unvisited_edges -= frontier_edges
    # the loop runs once per nonempty level, so `depth` == level count
    return levels, depth


def level_sets(levels: np.ndarray) -> list[np.ndarray]:
    """Vertices grouped by BFS level, ascending (unreached excluded)."""
    reached = levels >= 0
    if not reached.any():
        return []
    nlv = int(levels[reached].max()) + 1
    return [np.flatnonzero(levels == d).astype(np.int64) for d in range(nlv)]


def bfs_parents(A: CSRMatrix, root: int) -> np.ndarray:
    """Min-index BFS parent of each vertex (-1 for root/unreachable).

    The parent choice mirrors the paper's ``(select2nd, min)`` semiring
    when vertex labels coincide with vertex ids: each discovered vertex
    attaches to its smallest-id visited neighbor in the previous level.
    """
    n = A.nrows
    parents = np.full(n, -1, dtype=np.int64)
    levels = np.full(n, -1, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    while frontier.size:
        # expand with explicit (child, parent) pairs, keep min parent
        starts = A.indptr[frontier]
        stops = A.indptr[frontier + 1]
        lens = stops - starts
        children = gather_rows(A, frontier)
        parent_of_edge = np.repeat(frontier, lens)
        fresh = levels[children] == -1
        children, parent_of_edge = children[fresh], parent_of_edge[fresh]
        if children.size == 0:
            break
        order = np.lexsort((parent_of_edge, children))
        children, parent_of_edge = children[order], parent_of_edge[order]
        first = np.empty(children.size, dtype=bool)
        first[0] = True
        np.not_equal(children[1:], children[:-1], out=first[1:])
        new = children[first]
        parents[new] = parent_of_edge[first]
        levels[new] = levels[frontier[0]] + 1 if frontier.size else 0
        frontier = new
    return parents
