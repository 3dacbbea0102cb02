"""Serial RCM tests: Algorithm 1 semantics, both implementations agree."""

import importlib

import numpy as np
import pytest

from repro.core import (
    bandwidth,
    bandwidth_of_permutation,
    cm_serial,
    cuthill_mckee_queue,
    find_pseudo_peripheral,
    rcm_serial,
)
from repro.matrices import PAPER_SUITE, path_graph, stencil_2d
from repro.sparse import invert_permutation, is_permutation
from tests.conftest import csr_from_edges


def test_returns_valid_permutation(grid8x8):
    o = rcm_serial(grid8x8)
    assert is_permutation(o.perm, grid8x8.nrows)


def test_path_gets_optimal_bandwidth(path5):
    o = rcm_serial(path5)
    assert bandwidth_of_permutation(path5, o.perm) == 1


def test_long_path_optimal():
    A = path_graph(100)
    o = rcm_serial(A)
    assert bandwidth_of_permutation(A, o.perm) == 1


def test_grid_bandwidth_near_optimal(grid8x8):
    o = rcm_serial(grid8x8)
    bw = bandwidth_of_permutation(grid8x8, o.perm)
    # an 8x8 5-point grid cannot beat its short dimension
    assert bw <= 2 * 8
    assert bw >= 8 - 1


def test_rcm_is_reverse_of_cm(grid8x8):
    cm = cm_serial(grid8x8)
    rcm = rcm_serial(grid8x8)
    assert np.array_equal(rcm.perm, cm.perm[::-1])


def test_queue_and_levelwise_agree(random_graph):
    pp = find_pseudo_peripheral(random_graph, 0)
    labels = cuthill_mckee_queue(random_graph, pp.vertex)
    cm = cm_serial(random_graph)
    assert np.array_equal(
        np.argsort(labels, kind="stable").astype(np.int64), cm.perm
    )


def test_queue_and_levelwise_agree_on_grid(grid8x8):
    pp = find_pseudo_peripheral(grid8x8, 0)
    labels = cuthill_mckee_queue(grid8x8, pp.vertex)
    cm = cm_serial(grid8x8)
    assert np.array_equal(
        np.argsort(labels, kind="stable").astype(np.int64), cm.perm
    )


def test_start_vertex_respected(grid8x8):
    o1 = rcm_serial(grid8x8, start=0)
    o2 = rcm_serial(grid8x8, start=63)
    assert is_permutation(o1.perm) and is_permutation(o2.perm)


def test_disconnected_graph_all_labeled(two_components):
    o = rcm_serial(two_components)
    assert is_permutation(o.perm, 6)
    assert len(o.roots) == 2
    assert len(o.levels_per_component) == 2


def test_isolated_vertices_handled(with_isolated):
    o = rcm_serial(with_isolated)
    assert is_permutation(o.perm, 4)


def test_empty_graph():
    A = csr_from_edges(3, np.empty((0, 2)))
    o = rcm_serial(A)
    assert is_permutation(o.perm, 3)
    assert len(o.roots) == 3  # every isolated vertex is its own component


def test_single_vertex():
    A = csr_from_edges(1, np.empty((0, 2)))
    o = rcm_serial(A)
    assert np.array_equal(o.perm, [0])


def test_deterministic(random_graph):
    o1 = rcm_serial(random_graph)
    o2 = rcm_serial(random_graph)
    assert np.array_equal(o1.perm, o2.perm)


def test_rectangular_rejected():
    from repro.sparse import COOMatrix, CSRMatrix

    with pytest.raises(ValueError):
        rcm_serial(CSRMatrix.from_coo(COOMatrix.empty(2, 3)))


def test_improves_scrambled_grid():
    from repro.sparse import random_symmetric_permutation

    A = stencil_2d(12, 12)
    scrambled, _ = random_symmetric_permutation(A, seed=3)
    o = rcm_serial(scrambled)
    assert bandwidth_of_permutation(scrambled, o.perm) < bandwidth(scrambled) / 3


def test_levels_within_level_sorted_by_degree(star7):
    """Algorithm 1 line 4: neighbors labeled in increasing degree order."""
    # star: all leaves have degree 1, hub degree 6; start from a leaf
    o = cm_serial(star7, start=1)
    labels = o.inverse()
    # the first labeled vertex is the pseudo-peripheral root (a leaf)
    root = o.roots[0]
    assert labels[root] == 0


def test_peripheral_bfs_count_recorded(grid8x8):
    o = rcm_serial(grid8x8)
    assert o.peripheral_bfs_count >= 1


def _sweep_case(name):
    if name == "star":
        return csr_from_edges(9, [(4, i) for i in range(9) if i != 4])
    if name == "path":
        return path_graph(40)
    return PAPER_SUITE[name].build(1.0)


@pytest.mark.parametrize("packed_limit", [None, 0], ids=["packed-key", "argsort-fallback"])
@pytest.mark.parametrize("name", [*PAPER_SUITE, "star", "path"])
def test_sweep_key_paths_match_queue(name, packed_limit, monkeypatch):
    """Both sort paths of the level sweep reproduce the queue oracle.

    A limit of 0 makes every level take the stable-argsort fallback
    that levels whose packed key would overflow int64 use.
    """
    if packed_limit is not None:
        # the package re-exports the function under the module's name
        module = importlib.import_module("repro.core.rcm_serial")
        monkeypatch.setattr(module, "_PACKED_KEY_LIMIT", packed_limit)
    A = _sweep_case(name)
    cm = cm_serial(A)
    labels = cuthill_mckee_queue(A, cm.roots[0])
    assert np.array_equal(cm.perm, invert_permutation(labels))
