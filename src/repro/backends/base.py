"""Kernel backend interface.

A *kernel backend* supplies the four hot kernels every layer of the
library is built on — the two SpMSpV flavors (paper Table I's ``SPMSPV``
in CSC and CSR storage), the dense-vector semiring product, and BFS
frontier expansion.  The algorithms (serial, algebraic, distributed) are
written once against this interface; backends swap the *implementation*
of each kernel without changing any result.  This mirrors the CombBLAS
lineage the paper builds on, where the same algebraic RCM runs unchanged
over interchangeable local kernels.

Contract
--------
Backends must be *result-compatible* with the pure-numpy reference:

* ``spmspv_csc`` / ``spmspv_csr`` return the same
  :class:`~repro.sparse.spvector.SparseVector` structure (sorted unique
  indices) and, for order-insensitive semiring adds (``min``, ``max``),
  bit-identical payloads.  For floating ``(+, *)`` reductions payloads
  agree to round-off.
* ``expand_frontier`` returns exactly the same sorted unique vertex set.
* ``spmspv_pull`` / ``expand_frontier_pull`` — the bottom-up kernels of
  direction-optimized BFS (:mod:`repro.core.direction`) — must return
  results bit-identical to their push counterparts on the same inputs
  (pull with the unvisited mask equals masked push, entry for entry).

This is what keeps RCM orderings identical across backends — the paper's
determinism guarantee must survive a backend swap, and the cross-backend
tests enforce it.
"""

from __future__ import annotations

import abc

import numpy as np

from ..semiring.semiring import Semiring
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.spvector import SparseVector

__all__ = ["KernelBackend"]


class KernelBackend(abc.ABC):
    """Uniform interface over the library's hot sparse kernels."""

    #: Registry key; subclasses must override.
    name: str = "abstract"

    @abc.abstractmethod
    def spmspv_csc(
        self,
        A: CSCMatrix,
        x: SparseVector,
        sr: Semiring,
        mask: np.ndarray | None = None,
    ) -> SparseVector:
        """``y = A x`` over semiring ``sr`` via column gathers."""

    @abc.abstractmethod
    def spmspv_csr(
        self,
        A: CSRMatrix,
        x: SparseVector,
        sr: Semiring,
        mask: np.ndarray | None = None,
    ) -> SparseVector:
        """``y = A x`` over semiring ``sr`` via a row-major kernel."""

    @abc.abstractmethod
    def spmspv_pull(
        self,
        A: CSRMatrix,
        x: SparseVector,
        sr: Semiring,
        mask: np.ndarray | None = None,
    ) -> SparseVector:
        """Masked pull ``y = A x``: scan the rows selected by ``mask``.

        Work is ``sum_{r : mask[r]} nnz(A(r, :))`` — the bottom-up side
        of direction-optimized BFS.
        """

    @abc.abstractmethod
    def spmv_dense(self, A: CSRMatrix, x: np.ndarray, sr: Semiring) -> np.ndarray:
        """Dense-vector semiring product ``y = A x``."""

    @abc.abstractmethod
    def expand_frontier(
        self,
        A: CSRMatrix,
        frontier: np.ndarray,
        unvisited: np.ndarray,
    ) -> np.ndarray:
        """Sorted unique unvisited neighbors of the frontier vertices.

        ``unvisited`` is a dense boolean mask of length ``A.nrows``; the
        returned vertices all satisfy it.  This is the structural core of
        one level-synchronous BFS step.
        """

    @abc.abstractmethod
    def expand_frontier_pull(
        self,
        A: CSRMatrix,
        frontier: np.ndarray,
        unvisited: np.ndarray,
    ) -> np.ndarray:
        """Bottom-up frontier expansion: identical result, pull-side work.

        Scans the unvisited vertices' adjacency for a frontier neighbor
        instead of expanding the frontier, so the work is
        ``sum_{v unvisited} deg(v)`` — the cheap side when the frontier
        is dense.  Must return exactly :meth:`expand_frontier`'s sorted
        unique vertex set.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name!r}>"
