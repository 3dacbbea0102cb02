"""Standalone distributed BFS on the 2D grid.

Engines: simulated + processes — all heavy work flows through
:func:`~repro.distributed.spmspv.dist_spmspv` /
:func:`~repro.distributed.spmspv.dist_spmspv_pull` and the Table I
primitives, which are engine-neutral.  Charges modeled cost to the
``<region>:spmspv`` / ``<region>:other`` regions.

The level-synchronous BFS inside Algorithms 3/4 is useful on its own
(it is the paper's basic building block, inherited from Buluç & Madduri's
distributed BFS work [14]); this module exposes it as a first-class API:
one ``dist_bfs`` call returns the level of every vertex plus, optionally,
the ``(select2nd, min)`` parent of every vertex — against which the
serial oracles in :mod:`repro.core.bfs` are tested.

``direction`` selects the level kernels (:mod:`repro.core.direction`):
``"push"`` (the default — the paper's original algorithm and the ledger
baseline of every committed bench) runs every level as a top-down
SpMSpV; ``"pull"`` forces the masked bottom-up superstep; ``"adaptive"``
switches per level on the Beamer edge-count thresholds, with the
counters (frontier/unvisited edge sums) computed through engine
collectives so the decision — and the modeled ledger — is identical on
both engines and both drivers.  Levels, parents and orderings are
bit-identical for every direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.direction import PULL, PUSH, resolve_direction
from ..semiring.semiring import SELECT2ND_MIN, Semiring
from .distmatrix import DistSparseMatrix
from .distvector import DistDenseVector, DistSparseVector
from .primitives import (
    d_degree_sum,
    d_fill_values,
    d_nnz,
    d_select,
    d_set_dense,
)
from .spmspv import dist_spmspv, dist_spmspv_pull

__all__ = ["DistBFSResult", "dist_bfs", "DirectionState"]


@dataclass
class DistBFSResult:
    """Levels (and optionally parents) of a distributed BFS."""

    levels: np.ndarray
    parents: np.ndarray | None
    nlevels: int
    spmspv_calls: int
    pull_calls: int = 0


class DirectionState:
    """Per-BFS direction bookkeeping shared by the distributed loops.

    Wraps a :class:`~repro.core.direction.DirectionPolicy` with the two
    running edge counters its adaptive mode needs.  The counters are
    global scalars produced by :func:`~repro.distributed.primitives
    .d_degree_sum` (gather + Allreduce, charged to the caller's region),
    so every engine and driver sees identical values, takes identical
    decisions, and charges identical ledgers.  Non-adaptive policies
    skip the counters entirely — a forced-push BFS charges exactly what
    the pre-direction code charged.
    """

    def __init__(self, A: DistSparseMatrix, direction) -> None:
        self.policy = resolve_direction(direction)
        self.A = A
        self.current = PUSH
        self._degrees: DistDenseVector | None = None
        self._unvisited_edges = 0.0

    def start(self, root_frontier: DistSparseVector, region: str) -> None:
        """Reset the counters for a BFS rooted at ``root_frontier``."""
        self.current = PUSH
        if not self.policy.adaptive:
            return
        if self._degrees is None:
            self._degrees = self.A.degrees()
        total_edges = float(self.A.nnz)
        root_edges = d_degree_sum(root_frontier, self._degrees, region)
        self._frontier_edges = root_edges
        self._unvisited_edges = total_edges - root_edges

    def next_direction(self, frontier: DistSparseVector, frontier_nnz: int) -> str:
        """Direction of the level about to expand ``frontier``."""
        if not self.policy.adaptive:
            self.current = self.policy.mode
            return self.current
        self.current = self.policy.choose(
            frontier_nnz=frontier_nnz,
            frontier_edges=self._frontier_edges,
            unvisited_edges=self._unvisited_edges,
            n=self.A.n,
            current=self.current,
        )
        return self.current

    def advance(self, new_frontier: DistSparseVector, region: str) -> None:
        """Account a freshly discovered level's edges."""
        if not self.policy.adaptive:
            return
        edges = d_degree_sum(new_frontier, self._degrees, region)
        self._frontier_edges = edges
        self._unvisited_edges -= edges


def dist_bfs(
    A: DistSparseMatrix,
    root: int,
    *,
    compute_parents: bool = False,
    sr: Semiring = SELECT2ND_MIN,
    region: str = "bfs",
    direction: str = PUSH,
) -> DistBFSResult:
    """Level-synchronous BFS from ``root`` on the distributed matrix.

    With ``compute_parents=True`` the frontier payloads carry vertex ids,
    so the ``(select2nd, min)`` semiring records each vertex's
    minimum-id parent — matching
    :func:`repro.core.bfs.bfs_parents` exactly.  ``direction`` picks the
    level kernels (see the module docstring); results are identical for
    every choice.
    """
    ctx = A.ctx
    n = A.n
    if not (0 <= root < n):
        raise ValueError("root out of range")
    L = DistDenseVector.full(ctx, n, -1.0)
    P = DistDenseVector.full(ctx, n, -1.0) if compute_parents else None
    L.set(root, 0.0)
    frontier = DistSparseVector.single(ctx, n, root, float(root))
    state = DirectionState(A, direction)
    state.start(frontier, f"{region}:other")
    depth = 0
    calls = 0
    pull_calls = 0
    while True:
        if state.next_direction(frontier, frontier.idx.size) == PULL:
            nxt = dist_spmspv_pull(A, frontier, L.data == -1.0, sr, f"{region}:spmspv")
            pull_calls += 1
        else:
            nxt = dist_spmspv(A, frontier, sr, f"{region}:spmspv")
        calls += 1
        nxt = d_select(nxt, L, lambda vals: vals == -1.0, f"{region}:other")
        if d_nnz(nxt, f"{region}:other") == 0:
            break
        depth += 1
        d_set_dense(L, d_fill_values(nxt, float(depth)), f"{region}:other")
        state.advance(nxt, f"{region}:other")
        if compute_parents:
            d_set_dense(P, nxt, f"{region}:other")  # payload = min parent id
            # the next frontier's payloads must carry its own vertex ids
            frontier = nxt.with_values(nxt.idx)
        else:
            frontier = nxt
    return DistBFSResult(
        levels=L.to_global().astype(np.int64),
        parents=P.to_global().astype(np.int64) if P is not None else None,
        nlevels=depth + 1,
        spmspv_calls=calls,
        pull_calls=pull_calls,
    )
