"""RCM in matrix-algebraic form (paper Algorithms 3 and 4), serial version.

This module is the paper's pseudocode transcribed primitive-for-primitive
against :mod:`repro.core.primitives`: the same `while` loops, the same
SELECT-by-unvisited, the same ``(select2nd, min)`` SpMSpV and the same
SORTPERM keys.  It exists (alongside the faster vectorized
:mod:`repro.core.rcm_serial`) because it is the executable specification
that the distributed implementation mirrors superstep-for-superstep.

All three implementations — vectorized serial, algebraic serial, and
distributed — are required by the test suite to return identical
orderings.
"""

from __future__ import annotations

import numpy as np

from ..semiring.semiring import SELECT2ND_MIN, Semiring
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.permute import invert_permutation
from ..sparse.spvector import SparseVector
from .ordering import Ordering
from .primitives import (
    read_dense,
    reduce_argmin,
    select,
    set_dense,
    sortperm,
    spmspv,
)

__all__ = ["rcm_order_component", "pseudo_peripheral_algebraic", "rcm_algebraic"]


def pseudo_peripheral_algebraic(
    A: CSCMatrix,
    degrees: np.ndarray,
    start: int,
    sr: Semiring = SELECT2ND_MIN,
) -> tuple[int, int, int]:
    """Algorithm 4: find a pseudo-peripheral vertex via repeated BFS.

    Returns ``(vertex, nlevels_of_final_bfs, bfs_count)``.
    """
    n = A.ncols
    r = int(start)
    ell, nlvl = 0, -1
    bfs_count = 0
    last_nlevels = 1
    while ell > nlvl:
        L = np.full(n, -1.0)  # BFS level of each vertex; -1 = unvisited
        Lcur = SparseVector.single(n, r, 0.0)
        nlvl = ell
        L[r] = 0.0
        ell = 0
        while True:
            Lcur = read_dense(Lcur, L)
            Lnext = spmspv(A, Lcur, sr)  # visit neighbors
            Lnext = select(Lnext, L, lambda vals: vals == -1.0)  # unvisited
            if Lnext.nnz == 0:
                break
            ell += 1
            set_dense(L, Lnext.with_values(np.full(Lnext.nnz, float(ell))))
            Lcur = Lnext
        bfs_count += 1
        last_nlevels = ell + 1
        # REDUCE(Lcur, D): min-degree vertex of the last nonempty level
        r = reduce_argmin(Lcur, degrees.astype(np.float64))
    return r, last_nlevels, bfs_count


def rcm_order_component(
    A: CSCMatrix,
    degrees: np.ndarray,
    root: int,
    R: np.ndarray,
    nv: int,
    sr: Semiring = SELECT2ND_MIN,
    sorted_levels: bool = True,
) -> int:
    """Algorithm 3: label ``root``'s component into dense ``R`` in place.

    ``R`` holds -1 for unvisited vertices; visited vertices receive their
    Cuthill-McKee labels starting at ``nv``.  Returns the updated label
    counter.
    """
    n = A.ncols
    Lcur = SparseVector.single(n, root, 0.0)
    R[root] = nv  # label of r (0 for the first component)
    nv += 1
    while Lcur.nnz != 0:
        Lcur = read_dense(Lcur, R)  # line 6: payloads <- labels
        Lnext = spmspv(A, Lcur, sr)  # line 7: visit neighbors
        Lnext = select(Lnext, R, lambda vals: vals == -1.0)  # line 8
        if sorted_levels:
            # line 9: lexicographic (parent label, degree, id) permutation
            Rnext = sortperm(Lnext, degrees.astype(np.float64))
        else:
            # the paper's future-work "not sorting at all" variant:
            # frontier labeled in vertex-index order
            Rnext = Lnext.with_values(
                np.arange(Lnext.nnz, dtype=np.float64)
            )
        # line 10: shift to the global labeling
        Rnext = Rnext.with_values(Rnext.values + nv)
        nv += Rnext.nnz  # line 11
        set_dense(R, Rnext)  # line 12
        Lcur = Lnext  # line 13
    return nv


def rcm_algebraic(
    A_csr: CSRMatrix,
    start: int | None = None,
    sr: Semiring = SELECT2ND_MIN,
    sorted_levels: bool = True,
) -> Ordering:
    """Full RCM via Algorithms 3 + 4 (serial algebraic version).

    The multi-component driver matches the distributed one: while
    unvisited vertices remain, take the smallest unvisited vertex as the
    arbitrary seed of Algorithm 4, then order its component with
    Algorithm 3; finally reverse (Algorithm 3 line 14).
    """
    if A_csr.nrows != A_csr.ncols:
        raise ValueError("RCM requires a square (symmetric) matrix")
    n = A_csr.nrows
    degrees = A_csr.degrees()
    # the algebraic algorithms consume CSC (the paper's local format);
    # symmetric input means the CSC of A equals the CSR reinterpreted.
    A = CSCMatrix(n, n, A_csr.indptr.copy(), A_csr.indices.copy(), A_csr.data.copy())

    R = np.full(n, -1.0)
    nv = 0
    roots: list[int] = []
    levels: list[int] = []
    bfs_total = 0
    cursor = 0
    first_component = True
    while nv < n:
        while R[cursor] != -1.0:
            cursor += 1
        seed = start if (first_component and start is not None) else cursor
        first_component = False
        r, nlevels, bfs_count = pseudo_peripheral_algebraic(A, degrees, seed, sr)
        roots.append(r)
        levels.append(nlevels)
        bfs_total += bfs_count
        nv = rcm_order_component(A, degrees, r, R, nv, sr, sorted_levels)
    cm_perm = invert_permutation(R.astype(np.int64))
    return Ordering(
        perm=cm_perm[::-1].copy(),  # line 14: return R in reverse order
        algorithm="rcm-algebraic" if sorted_levels else "rcm-algebraic-nosort",
        roots=roots,
        peripheral_bfs_count=bfs_total,
        levels_per_component=levels,
    )
