"""Connected components of the adjacency graph.

RCM is defined per connected component (paper, Section III.B: "The case
for more than connected components can be handled by repeatedly invoking
Algorithm 3 for each connected component").  This module provides the
decomposition the serial and algebraic drivers share, with deterministic
component numbering (components sorted by their minimum vertex id).
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from .bfs import bfs_levels
from .bfs_multi import masked_components

__all__ = ["connected_components", "component_members", "is_connected"]


def connected_components(A: CSRMatrix) -> tuple[int, np.ndarray]:
    """Label every vertex with its component id.

    Returns ``(ncomponents, labels)``.  Component ids are assigned in
    increasing order of each component's smallest vertex, so isolated
    vertex 0 is always component 0 — deterministic across runs.  One
    vectorized :func:`~repro.core.bfs_multi.masked_components` pass
    labels every vertex with its component's smallest id; ranking those
    ids gives the component numbers, so the cost does not grow with the
    number of components.
    """
    if A.nrows != A.ncols:
        raise ValueError("connected components need a square adjacency matrix")
    smallest = masked_components(A, np.ones(A.nrows, dtype=bool))
    ids, labels = np.unique(smallest, return_inverse=True)
    return int(ids.size), labels.astype(np.int64, copy=False)


def component_members(labels: np.ndarray) -> list[np.ndarray]:
    """Vertex lists per component id (sorted ascending within each)."""
    ncomp = int(labels.max(initial=-1)) + 1
    return [np.flatnonzero(labels == c).astype(np.int64) for c in range(ncomp)]


def is_connected(A: CSRMatrix) -> bool:
    if A.nrows == 0:
        return True
    levels, _ = bfs_levels(A, 0)
    return bool((levels >= 0).all())
