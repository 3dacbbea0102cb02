"""Shared frontier-semantics helpers for the BFS kernels.

Every push backend (numpy, scipy, numba's gather path) and the batched
multi-source expansion reduce to the same step: given the multiset of
neighbor candidates gathered from the frontier's adjacency, keep only
the still-unvisited ones and deduplicate into a sorted unique vertex
set.  :func:`filtered_unique` is that one definition, shared so the
frontier semantics cannot drift between backends.  It filters *before*
the dedup (on dense graphs the multiset is dominated by backward
edges, so filtering first shrinks the sort), then sorts the survivors
in place and drops adjacent repeats.  Plain ``np.unique`` costs several
times more: numpy 2 dedups through a hash table before it sorts.

The pull kernels scan candidate rows in ascending order, so their hits
are already sorted and :func:`sorted_unique` alone dedups them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["filtered_unique", "sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Unique values of an ascending array: the first of each run of repeats."""
    if values.size < 2:
        return values
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def filtered_unique(candidates: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sorted unique ``candidates`` satisfying the dense boolean ``keep``.

    ``candidates`` is a (possibly duplicated, unsorted) int64 vertex
    multiset; ``keep`` is a dense boolean mask indexed by vertex id.
    Equivalent to ``np.unique(candidates[keep[candidates]])``.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    kept = candidates[keep[candidates]]  # a fresh array: safe to sort in place
    kept.sort()
    return sorted_unique(kept)
