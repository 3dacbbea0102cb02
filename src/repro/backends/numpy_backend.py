"""Pure-numpy kernel backend — the reference implementation.

Wraps the vectorized numpy kernels in :mod:`repro.semiring.spmspv` and
:mod:`repro.core.bfs`.  This backend has no dependencies beyond numpy,
is always available, and is the oracle every other backend must match.
"""

from __future__ import annotations

import numpy as np

from ..semiring.semiring import Semiring
from ..semiring.spmspv import (
    spmspv_csc_numpy,
    spmspv_csr_numpy,
    spmspv_pull_numpy,
    spmv_dense_numpy,
)
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.spvector import SparseVector
from .base import KernelBackend
from .frontier import sorted_unique

__all__ = ["NumpyBackend", "expand_frontier_pull_numpy"]


def expand_frontier_pull_numpy(
    A: CSRMatrix, frontier: np.ndarray, unvisited: np.ndarray
) -> np.ndarray:
    """Reference bottom-up expansion: unvisited rows with a frontier edge.

    One ragged gather over the unvisited vertices' adjacency plus a
    frontier-membership filter.  The rows are scanned in ascending
    order, so the surviving row ids are already sorted and dropping
    adjacent repeats reproduces the push kernel's sorted unique output
    exactly, without a sort.
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


class NumpyBackend(KernelBackend):
    """Reference backend over vectorized numpy gathers."""

    name = "numpy"

    def spmspv_csc(
        self,
        A: CSCMatrix,
        x: SparseVector,
        sr: Semiring,
        mask: np.ndarray | None = None,
    ) -> SparseVector:
        return spmspv_csc_numpy(A, x, sr, mask)

    def spmspv_csr(
        self,
        A: CSRMatrix,
        x: SparseVector,
        sr: Semiring,
        mask: np.ndarray | None = None,
    ) -> SparseVector:
        return spmspv_csr_numpy(A, x, sr, mask)

    def spmspv_pull(
        self,
        A: CSRMatrix,
        x: SparseVector,
        sr: Semiring,
        mask: np.ndarray | None = None,
    ) -> SparseVector:
        return spmspv_pull_numpy(A, x, sr, mask)

    def spmv_dense(self, A: CSRMatrix, x: np.ndarray, sr: Semiring) -> np.ndarray:
        return spmv_dense_numpy(A, x, sr)

    def expand_frontier(
        self,
        A: CSRMatrix,
        frontier: np.ndarray,
        unvisited: np.ndarray,
    ) -> np.ndarray:
        from ..core.bfs import gather_rows
        from .frontier import filtered_unique

        # filtered_unique drops visited entries before the dedup sort —
        # the multiset is dominated by backward edges on dense graphs
        return filtered_unique(gather_rows(A, frontier), unvisited)

    def expand_frontier_pull(
        self,
        A: CSRMatrix,
        frontier: np.ndarray,
        unvisited: np.ndarray,
    ) -> np.ndarray:
        return expand_frontier_pull_numpy(A, frontier, unvisited)
