"""Serial reference implementations of the Table I primitives.

These are the seven matrix-algebraic building blocks the paper decomposes
RCM into (Table I): ``IND``, ``SELECT``, ``SET``, ``SPMSPV``, ``REDUCE``,
``SORTPERM``.  The serial versions here operate on
:class:`~repro.sparse.spvector.SparseVector` (a vertex subset) and plain
numpy dense vectors; the distributed versions in
:mod:`repro.distributed.primitives` implement the same contracts on
2D-distributed data and must agree with these element-for-element — that
equivalence is what ``tests/test_cross_backend.py`` asserts.

The paper's ``SET`` is overloaded (used both to refresh a sparse vector's
payloads from a dense vector, Alg. 3 line 6, and to scatter a sparse
vector into a dense one, Alg. 3 line 12); we split it into
:func:`set_dense` and :func:`read_dense` for clarity.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..semiring.semiring import Semiring
from ..semiring.spmspv import spmspv_csc
from ..sparse.csc import CSCMatrix
from ..sparse.spvector import SparseVector

__all__ = [
    "ind",
    "select",
    "set_dense",
    "read_dense",
    "spmspv",
    "reduce_min",
    "reduce_argmin",
    "sortperm",
]


def ind(x: SparseVector) -> np.ndarray:
    """``IND(x)``: indices of the nonzero entries of ``x``."""
    return x.indices


def select(
    x: SparseVector, y: np.ndarray, expr: Callable[[np.ndarray], np.ndarray]
) -> SparseVector:
    """``SELECT(x, y, expr)``: keep ``x[i]`` where ``expr(y[i])`` holds.

    ``expr`` receives the dense payloads gathered at ``IND(x)`` and must
    return a boolean mask.  Algorithm 3 uses ``expr = (== -1)`` to keep
    only unvisited vertices.
    """
    if y.shape[0] != x.n:
        raise ValueError("dense vector length mismatch")
    mask = np.asarray(expr(y[x.indices]), dtype=bool)
    return x.restrict(mask)


def set_dense(y: np.ndarray, x: SparseVector) -> None:
    """``SET(y, x)``: scatter ``x``'s payloads into dense ``y`` in place."""
    if y.shape[0] != x.n:
        raise ValueError("dense vector length mismatch")
    y[x.indices] = x.values


def read_dense(x: SparseVector, y: np.ndarray) -> SparseVector:
    """The gather overload of ``SET``: refresh payloads from dense ``y``.

    Algorithm 3 line 6 (``Lcur <- SET(Lcur, R)``) uses this to load the
    just-assigned labels of the current frontier before the SpMSpV.
    """
    if y.shape[0] != x.n:
        raise ValueError("dense vector length mismatch")
    return x.with_values(y[x.indices])


def spmspv(A: CSCMatrix, x: SparseVector, sr: Semiring) -> SparseVector:
    """``SPMSPV(A, x, SR)``: sparse matrix-sparse vector product."""
    return spmspv_csc(A, x, sr)


def reduce_min(x: SparseVector, y: np.ndarray) -> float:
    """``REDUCE(x, y, min)``: minimum of ``y`` over ``IND(x)`` (Table I)."""
    if x.nnz == 0:
        return float(np.inf)
    return float(y[x.indices].min())


def reduce_argmin(x: SparseVector, y: np.ndarray) -> int:
    """The index attaining :func:`reduce_min`, ties to the smallest index.

    Algorithm 4 line 16 uses this form — the *vertex* of minimum degree in
    the last BFS level becomes the next root.  Since ``x.indices`` is
    sorted ascending, ``argmin`` ties resolve to the smallest vertex id,
    which the distributed reduction replicates.
    """
    if x.nnz == 0:
        raise ValueError("REDUCE over an empty frontier")
    vals = y[x.indices]
    return int(x.indices[int(np.argmin(vals))])


def sortperm(x: SparseVector, y: np.ndarray) -> SparseVector:
    """``SORTPERM(x, y)``: ranks from lexicographic (x[i], y[i], i) order.

    Builds the tuple ``(x[i], y[i], i)`` for every nonzero ``i`` of ``x``,
    sorts lexicographically, and returns a sparse vector with the same
    structure whose payloads are each element's *rank* in the sorted
    order.  In Algorithm 3, ``x`` carries parent labels and ``y`` holds
    degrees, so ranks become the within-level RCM labels.
    """
    if y.shape[0] != x.n:
        raise ValueError("dense vector length mismatch")
    if x.nnz == 0:
        return x.copy()
    order = np.lexsort((x.indices, y[x.indices], x.values))
    ranks = np.empty(x.nnz, dtype=np.int64)
    ranks[order] = np.arange(x.nnz, dtype=np.int64)
    return x.with_values(ranks.astype(np.float64))
