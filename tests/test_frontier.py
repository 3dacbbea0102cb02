"""Frontier dedup helpers: sort-based dedup equals ``np.unique``.

``filtered_unique`` (push) and ``sorted_unique`` (pull, whose hits
arrive ascending) replace ``np.unique`` on every BFS level, so both are
pinned against it on the inputs where a hand-written dedup goes wrong:
empty, a single candidate, all duplicates, everything filtered out, and
ids at the top of the vertex range.
"""

import numpy as np
import pytest

from repro.backends.frontier import filtered_unique, sorted_unique
from repro.backends.numpy_backend import expand_frontier_pull_numpy
from repro.core.bfs_multi import _expand_pull_multi

N = 10

CASES = {
    "empty": (np.empty(0, dtype=np.int64), np.ones(N, dtype=bool)),
    "single": (np.array([4]), np.ones(N, dtype=bool)),
    "all-duplicate": (np.full(7, 3), np.ones(N, dtype=bool)),
    "all-filtered": (np.array([5, 1, 5, 8]), np.zeros(N, dtype=bool)),
    "ids-at-n-1": (np.array([N - 1, 0, N - 1, 2, N - 1]), np.ones(N, dtype=bool)),
    "mixed": (np.array([9, 2, 7, 2, 0, 9, 5, 7]), np.arange(N) % 3 != 1),
}


def reference(candidates, keep):
    return np.unique(candidates[keep[candidates]])


@pytest.mark.parametrize("name", sorted(CASES))
def test_filtered_unique_equals_np_unique(name):
    candidates, keep = CASES[name]
    before = candidates.copy()
    got = filtered_unique(candidates, keep)
    expected = reference(candidates, keep)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    assert np.array_equal(candidates, before)  # the input is not sorted in place


@pytest.mark.parametrize("name", sorted(CASES))
def test_sorted_unique_equals_np_unique(name):
    candidates, keep = CASES[name]
    ascending = np.sort(candidates).astype(np.int64)
    got = sorted_unique(ascending[keep[ascending]])
    assert got.dtype == np.int64
    assert np.array_equal(got, reference(candidates, keep))


def test_pull_kernels_reach_the_last_vertex():
    # path 0-1-...-(N-1): the frontier {N-2} pulls in N-1 (and nothing else)
    from repro.matrices import path_graph

    A = path_graph(N)
    unvisited = np.ones(N, dtype=bool)
    unvisited[: N - 1] = False
    got = expand_frontier_pull_numpy(A, np.array([N - 2]), unvisited)
    assert np.array_equal(got, [N - 1])
    multi = _expand_pull_multi(A, N, np.array([0]), np.array([N - 2]), unvisited, A.degrees())
    assert np.array_equal(multi, [N - 1])
    # everything visited: nothing to pull
    none = np.zeros(N, dtype=bool)
    assert expand_frontier_pull_numpy(A, np.array([N - 2]), none).size == 0
