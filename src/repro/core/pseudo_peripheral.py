"""Pseudo-peripheral vertex finder (George & Liu; paper Algorithm 2).

The quality of an RCM ordering depends strongly on the start vertex;
ideally one of maximum eccentricity (a *peripheral* vertex), which is too
expensive to find exactly.  The George-Liu heuristic walks to a
*pseudo-peripheral* vertex: run a BFS, jump to a minimum-degree vertex of
the last level, and repeat while the level structure keeps getting
deeper.

The serial version here is the test oracle for the matrix-algebraic
Algorithm 4 (:mod:`repro.core.rcm_algebraic`) and for the distributed
version; all three must select the same vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from .bfs import bfs_levels

__all__ = ["PseudoPeripheralResult", "find_pseudo_peripheral"]


@dataclass(frozen=True)
class PseudoPeripheralResult:
    """Outcome of the pseudo-peripheral search.

    Attributes
    ----------
    vertex:
        The selected pseudo-peripheral vertex.
    nlevels:
        Depth of its rooted level structure (eccentricity estimate + 1).
    bfs_count:
        Number of full BFS sweeps performed (the paper's ``|iters|``).
    """

    vertex: int
    nlevels: int
    bfs_count: int

    @property
    def eccentricity(self) -> int:
        return self.nlevels - 1


def find_pseudo_peripheral(
    A: CSRMatrix,
    start: int,
    degrees: np.ndarray | None = None,
    *,
    direction=None,
) -> PseudoPeripheralResult:
    """Pseudo-peripheral vertex search from ``start`` (paper Algorithm 4).

    Runs entirely within ``start``'s connected component.  Exactly matches
    the paper's matrix-algebraic formulation: after *every* BFS the root
    moves to the minimum-degree vertex of the last level ("shrink"), and
    the loop exits when the eccentricity estimate stops increasing — so
    the returned vertex is the shrink vertex of the final BFS.  This is
    the semantics the distributed implementation must reproduce
    bit-for-bit.

    This is the one-root-at-a-time George-Liu loop over :func:`bfs_levels`.
    The batched lockstep finder
    (:func:`repro.core.bfs_multi.find_pseudo_peripheral_multi`) amortizes
    the per-level sweep cost across many starts, falls back to this loop
    for single starts and dense or shallow graphs, and is pinned against
    it by the equivalence tests.
    """
    if degrees is None:
        degrees = A.degrees()
    r = int(start)
    ell = 0
    nlvl = -1
    bfs_count = 0
    last_nlevels = 1
    while ell > nlvl:
        nlvl = ell
        levels, nlevels = bfs_levels(A, r, direction=direction)
        bfs_count += 1
        last_nlevels = nlevels
        ell = nlevels - 1  # eccentricity estimate of this root
        last_level = np.flatnonzero(levels == nlevels - 1)
        degs = degrees[last_level]
        r = int(last_level[np.flatnonzero(degs == degs.min())[0]])
    return PseudoPeripheralResult(vertex=r, nlevels=last_nlevels, bfs_count=bfs_count)
