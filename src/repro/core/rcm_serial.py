"""Serial Reverse Cuthill-McKee (paper Algorithms 1 and 2).

Two independent implementations are provided:

* :func:`cuthill_mckee_queue` — the textbook vertex-at-a-time queue
  formulation of Algorithm 1, kept deliberately simple; it is the oracle
  against which everything else is tested.
* :func:`rcm_serial` — a vectorized level-at-a-time formulation whose
  per-level ordering key ``(parent label, degree, vertex id)`` is exactly
  the semantics of the paper's Algorithm 3, so its output must (and does,
  by test) coincide with both the queue version and the distributed
  algebraic version.

Both handle disconnected graphs by restarting from the smallest
unnumbered vertex and finding a pseudo-peripheral root of its component,
as the paper prescribes.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.permute import invert_permutation
from .bfs import gather_rows
from .ordering import Ordering
from .pseudo_peripheral import find_pseudo_peripheral

__all__ = ["cuthill_mckee_queue", "rcm_serial", "cm_serial"]


def _check_adjacency(A: CSRMatrix) -> None:
    if A.nrows != A.ncols:
        raise ValueError("RCM requires a square (symmetric) matrix")


def cuthill_mckee_queue(A: CSRMatrix, root: int, degrees: np.ndarray | None = None) -> np.ndarray:
    """Classic Algorithm 1 on ``root``'s component: CM labels, -1 outside.

    For each vertex in label order, its unnumbered neighbors are appended
    sorted by (degree, vertex id).  Returns the dense label array.
    """
    _check_adjacency(A)
    if degrees is None:
        degrees = A.degrees()
    n = A.nrows
    labels = np.full(n, -1, dtype=np.int64)
    order: list[int] = [int(root)]
    labels[root] = 0
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        neigh = A.row(v)
        fresh = neigh[labels[neigh] == -1]
        if fresh.size:
            key = np.lexsort((fresh, degrees[fresh]))
            for w in fresh[key]:
                labels[w] = len(order)
                order.append(int(w))
    return labels


#: Levels whose packed (parent rank, degree, id) key could reach this
#: bound sort with a stable argsort instead; tests lower it to force
#: that path.
_PACKED_KEY_LIMIT = 2**63


def _cm_component_levelwise(
    A: CSRMatrix,
    root: int,
    degrees: np.ndarray,
    max_degree: int,
    labels: np.ndarray,
    next_label: int,
) -> int:
    """Label ``root``'s component level-by-level; returns the next label.

    The per-level sort key (min parent label, degree, vertex id) is the
    lexicographic tuple of Algorithm 3 line 9.  Each frontier is stored
    in label order, so ``gather_rows`` emits candidates in ascending
    parent label and a parent's rank in the frontier stands in for its
    label.
    """
    n = A.nrows
    span = max_degree + 1
    labels[root] = next_label
    next_label += 1
    frontier = np.array([root], dtype=np.int64)
    while frontier.size:
        f = frontier.size
        lens = A.indptr[frontier + 1] - A.indptr[frontier]
        children = gather_rows(A, frontier)
        ranks = np.repeat(np.arange(f, dtype=np.int64), lens)
        fresh = labels[children] == -1
        children, ranks = children[fresh], ranks[fresh]
        if children.size == 0:
            break
        # keep each child's first parent, the lowest-ranked: that is the
        # (select2nd, min) semiring.  pairs < n*f, which fits int64 for
        # every n below 3e9.
        pairs = children * f + ranks
        pairs.sort()
        children = pairs // f
        first = np.empty(pairs.size, dtype=bool)
        first[0] = True
        np.not_equal(children[1:], children[:-1], out=first[1:])
        children = children[first]
        ranks = pairs[first] - children * f
        # Algorithm 3 line 9: lexicographic (parent label, degree, id),
        # packed into one int64 when it fits
        group = ranks * span + degrees[children]
        if f * span * n < _PACKED_KEY_LIMIT:
            packed = group * n + children
            packed.sort()
            ordered = packed % n
        else:
            ordered = children[np.argsort(group, kind="stable")]
        labels[ordered] = next_label + np.arange(ordered.size, dtype=np.int64)
        next_label += ordered.size
        frontier = ordered
    return next_label


def cm_serial(A: CSRMatrix, start: int | None = None) -> Ordering:
    """Cuthill-McKee ordering (not reversed) of all components.

    Components are processed in order of their smallest unnumbered vertex;
    each starts from a pseudo-peripheral root found by Algorithm 2/4 (or
    from ``start`` for the first component when given).
    """
    _check_adjacency(A)
    n = A.nrows
    degrees = A.degrees()
    max_degree = int(degrees.max()) if n else 0
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    roots: list[int] = []
    levels: list[int] = []
    bfs_total = 0
    cursor = 0
    first_component = True
    while next_label < n:
        while labels[cursor] != -1:
            cursor += 1
        seed = start if (first_component and start is not None) else cursor
        first_component = False
        pp = find_pseudo_peripheral(A, seed, degrees)
        roots.append(pp.vertex)
        levels.append(pp.nlevels)
        bfs_total += pp.bfs_count
        next_label = _cm_component_levelwise(A, pp.vertex, degrees, max_degree, labels, next_label)
    return Ordering(
        perm=invert_permutation(labels),
        algorithm="cm-serial",
        roots=roots,
        peripheral_bfs_count=bfs_total,
        levels_per_component=levels,
    )


def rcm_serial(A: CSRMatrix, start: int | None = None) -> Ordering:
    """Reverse Cuthill-McKee ordering of a symmetric sparse matrix.

    This is the library's serial reference implementation; see
    :func:`repro.rcm` for the user-facing entry point that can also run
    the distributed algorithm.
    """
    cm = cm_serial(A, start=start)
    rcm = cm.reversed()
    rcm.algorithm = "rcm-serial"
    return rcm
