"""Vectorized numpy frontier expansion, push and pull.

:func:`~repro.core.bfs.bfs_levels` calls one of these two kernels per
level; both return the same sorted unique vertex set, so the BFS
direction changes the work, never the levels.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from .frontier import sorted_unique

__all__ = ["expand_frontier", "expand_frontier_pull"]


def expand_frontier(A: CSRMatrix, frontier: np.ndarray, unvisited: np.ndarray) -> np.ndarray:
    """Sorted unique unvisited neighbors of the frontier vertices.

    ``unvisited`` is a dense boolean mask of length ``A.nrows``; the
    returned vertices all satisfy it.  This is the structural core of
    one level-synchronous BFS step.
    """
    from ..core.bfs import gather_rows
    from .frontier import filtered_unique

    # filtered_unique drops visited entries before the dedup sort —
    # the multiset is dominated by backward edges on dense graphs
    return filtered_unique(gather_rows(A, frontier), unvisited)


def expand_frontier_pull(A: CSRMatrix, frontier: np.ndarray, unvisited: np.ndarray) -> np.ndarray:
    """Bottom-up expansion: unvisited rows with a frontier edge.

    Scans the unvisited vertices' adjacency for a frontier neighbor
    instead of expanding the frontier, so the work is
    ``sum_{v unvisited} deg(v)`` — the cheap side when the frontier is
    dense.  One ragged gather plus a frontier-membership filter.  The
    rows are scanned in ascending order, so the surviving row ids are
    already sorted and dropping adjacent repeats reproduces
    :func:`expand_frontier`'s sorted unique output exactly, without a
    sort.
    """
    from ..core.bfs import gather_rows

    frontier = np.asarray(frontier, dtype=np.int64)
    if frontier.size == 0:
        return np.empty(0, dtype=np.int64)
    cand = np.flatnonzero(unvisited).astype(np.int64)
    if cand.size == 0:
        return np.empty(0, dtype=np.int64)
    in_frontier = np.zeros(A.ncols, dtype=bool)
    in_frontier[frontier] = True
    lens = A.indptr[cand + 1] - A.indptr[cand]
    neigh = gather_rows(A, cand)
    if neigh.size == 0:
        return np.empty(0, dtype=np.int64)
    rows = np.repeat(cand, lens)
    return sorted_unique(rows[in_frontier[neigh]])
