"""Direction-optimized BFS: push/pull/adaptive equivalence + heuristic.

The direction contract (DESIGN.md §9): every BFS path returns
bit-identical results whatever the direction — forced ``"push"``,
forced ``"pull"``, or the adaptive Beamer-style switch — because the
pull kernels visit candidates in the same ascending order the push
kernels' dedup sort produces.  This suite pins the serial layer: the
semiring pull kernel against masked push, the BFS loops, the batched
multi-source sweep, the pseudo-peripheral finder, and the
DirectionPolicy edge cases (empty frontier, all-dense first level /
star graph, disconnected components, forced overrides).
"""

import numpy as np
import pytest

from repro.backends import numpy_backend
from repro.core.bfs import bfs_levels
from repro.core.bfs_multi import bfs_levels_multi, find_pseudo_peripheral_multi
from repro.core.direction import (
    ADAPTIVE,
    DIRECTION_MODES,
    PULL,
    PUSH,
    DirectionPolicy,
    resolve_direction,
)
from repro.core.pseudo_peripheral import find_pseudo_peripheral
from repro.matrices.random_graphs import disconnected_union, erdos_renyi, rmat
from repro.matrices.stencil import stencil_2d
from repro.semiring import MIN_PLUS, PLUS_TIMES, SELECT2ND_MIN
from repro.semiring.spmspv import (
    spmspv_csc,
    spmspv_pull,
    spmspv_pull_work,
)
from repro.sparse.csc import CSCMatrix
from repro.sparse.spvector import SparseVector

from .conftest import csr_from_edges

MODES = list(DIRECTION_MODES)


def graphs():
    yield "mesh", stencil_2d(12, 12)
    yield "er", erdos_renyi(400, 10.0, seed=3)
    yield "rmat", rmat(9, edge_factor=6, seed=5)
    yield "disconnected", disconnected_union([stencil_2d(5, 5), erdos_renyi(40, 4.0, seed=1)])


# ----------------------------------------------------------------------
# Policy mechanics
# ----------------------------------------------------------------------
def test_resolve_direction_accepts_modes_policies_and_none():
    assert resolve_direction(None).mode == ADAPTIVE
    for mode in MODES:
        assert resolve_direction(mode).mode == mode
    custom = DirectionPolicy(mode=ADAPTIVE, alpha=2.0, beta=8.0)
    assert resolve_direction(custom) is custom
    with pytest.raises(ValueError):
        resolve_direction("sideways")
    with pytest.raises(ValueError):
        DirectionPolicy(mode="sideways")
    with pytest.raises(ValueError):
        DirectionPolicy(alpha=0.0)


def test_forced_modes_always_answer_their_own_name():
    for mode in (PUSH, PULL):
        policy = DirectionPolicy(mode=mode)
        for current in (PUSH, PULL):
            assert (
                policy.choose(
                    frontier_nnz=1,
                    frontier_edges=1e9,
                    unvisited_edges=1,
                    n=10,
                    current=current,
                )
                == mode
            )


def test_adaptive_hysteresis_thresholds():
    p = DirectionPolicy(mode=ADAPTIVE, alpha=4.0, beta=24.0)

    def choose(current, fe, ue, nnz=10, n=1000):
        return p.choose(
            frontier_nnz=nnz,
            frontier_edges=fe,
            unvisited_edges=ue,
            n=n,
            current=current,
        )

    # push -> pull exactly when frontier_edges * alpha > unvisited_edges
    assert choose(PUSH, fe=30, ue=100) == PULL
    assert choose(PUSH, fe=25, ue=100) == PUSH
    # pull -> push exactly when frontier_nnz * beta < n
    assert choose(PULL, fe=1, ue=1000, n=241) == PUSH
    assert choose(PULL, fe=1, ue=1000, n=240) == PULL


# ----------------------------------------------------------------------
# Semiring pull kernel vs masked push
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,A", list(graphs()))
def test_spmspv_pull_matches_masked_push(name, A):
    Ac = CSCMatrix(A.nrows, A.ncols, A.indptr, A.indices, A.data)
    rng = np.random.default_rng(7)
    visited = rng.random(A.nrows) < 0.4
    idx = np.flatnonzero(rng.random(A.nrows) < 0.3).astype(np.int64)
    if idx.size == 0:
        idx = np.array([0], dtype=np.int64)
    x = SparseVector(A.nrows, idx, idx.astype(np.float64) + 1.0)
    for sr in (SELECT2ND_MIN, PLUS_TIMES, MIN_PLUS):
        y_push = spmspv_csc(Ac, x, sr, ~visited)
        y_pull = spmspv_pull(A, x, sr, ~visited)
        assert np.array_equal(y_push.indices, y_pull.indices), name
        assert np.array_equal(y_push.values, y_pull.values), name


def test_spmspv_pull_empty_frontier_and_empty_mask():
    A = stencil_2d(4, 4)
    empty = SparseVector.empty(A.nrows)
    assert spmspv_pull(A, empty, SELECT2ND_MIN, np.ones(A.nrows, bool)).nnz == 0
    x = SparseVector.single(A.nrows, 0, 1.0)
    assert spmspv_pull(A, x, SELECT2ND_MIN, np.zeros(A.nrows, bool)).nnz == 0
    # mask=None scans every row: equals unmasked push
    y_push = spmspv_csc(
        CSCMatrix(A.nrows, A.ncols, A.indptr, A.indices, A.data), x, SELECT2ND_MIN
    )
    y_pull = spmspv_pull(A, x, SELECT2ND_MIN, None)
    assert np.array_equal(y_push.indices, y_pull.indices)
    assert np.array_equal(y_push.values, y_pull.values)


def test_spmspv_pull_work_counts_masked_row_degrees():
    A = stencil_2d(5, 5)
    mask = np.zeros(A.nrows, bool)
    mask[[0, 7, 24]] = True
    assert spmspv_pull_work(A, mask) == int(A.degrees()[[0, 7, 24]].sum())
    assert spmspv_pull_work(A, None) == A.nnz


# ----------------------------------------------------------------------
# BFS loops: all modes, identical levels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,A", list(graphs()))
def test_bfs_levels_identical_across_directions(name, A):
    ref_levels, ref_n = bfs_levels(A, 0, direction=PUSH)
    for mode in (PULL, ADAPTIVE):
        levels, nlv = bfs_levels(A, 0, direction=mode)
        assert np.array_equal(levels, ref_levels), (name, mode)
        assert nlv == ref_n


def test_expand_frontier_pull_matches_push_per_level(grid8x8):
    A = grid8x8
    unvisited = np.ones(A.nrows, bool)
    unvisited[0] = False
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        neigh_push = numpy_backend.expand_frontier(A, frontier, unvisited)
        neigh_pull = numpy_backend.expand_frontier_pull(A, frontier, unvisited)
        assert np.array_equal(neigh_push, neigh_pull)
        unvisited[neigh_push] = False
        frontier = neigh_push


@pytest.mark.parametrize("mode", MODES)
def test_bfs_levels_multi_identical_across_directions(mode):
    A = erdos_renyi(300, 14.0, seed=9)
    roots = np.array([0, 5, 150, 5], dtype=np.int64)  # duplicates allowed
    ref, ref_n = bfs_levels_multi(A, roots, direction=PUSH)
    levels, nlv = bfs_levels_multi(A, roots, direction=mode)
    assert np.array_equal(levels, ref)
    assert np.array_equal(nlv, ref_n)
    for t, r in enumerate(roots):
        serial, _ = bfs_levels(A, int(r), direction=mode)
        assert np.array_equal(levels[t], serial)


@pytest.mark.parametrize("mode", MODES)
def test_finder_identical_across_directions(mode):
    A = stencil_2d(9, 9)
    starts = np.array([0, 40, 80], dtype=np.int64)
    ref = find_pseudo_peripheral_multi(A, starts, heuristic=False, direction=PUSH)
    got = find_pseudo_peripheral_multi(A, starts, heuristic=False, direction=mode)
    assert [(g.vertex, g.nlevels, g.bfs_count) for g in got] == [
        (r.vertex, r.nlevels, r.bfs_count) for r in ref
    ]
    one = find_pseudo_peripheral(A, 0, direction=mode)
    ref_one = find_pseudo_peripheral(A, 0, direction=PUSH)
    assert (one.vertex, one.nlevels, one.bfs_count) == (
        ref_one.vertex,
        ref_one.nlevels,
        ref_one.bfs_count,
    )


# ----------------------------------------------------------------------
# Heuristic edge cases (the ISSUE's checklist)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_empty_frontier_isolated_vertex(mode):
    """A root with no neighbors: the first expansion is empty."""
    A = disconnected_union([csr_from_edges(1, []), stencil_2d(3, 3)])
    levels, nlv = bfs_levels(A, 0, direction=mode)
    assert nlv == 1
    assert levels[0] == 0
    assert np.all(levels[1:] == -1)


@pytest.mark.parametrize("mode", MODES)
def test_star_graph_all_dense_first_level(star7, mode):
    """From the hub, level 1 is every other vertex — the first expansion
    is already dense, so adaptive pulls immediately; from a leaf, level 1
    is the hub alone."""
    levels_hub, nlv_hub = bfs_levels(star7, 0, direction=mode)
    assert nlv_hub == 2 and np.all(levels_hub[1:] == 1)
    levels_leaf, nlv_leaf = bfs_levels(star7, 3, direction=mode)
    assert nlv_leaf == 3
    assert levels_leaf[0] == 1 and levels_leaf[3] == 0
    ref_hub, _ = bfs_levels(star7, 0, direction=PUSH)
    assert np.array_equal(levels_hub, ref_hub)


def test_star_graph_adaptive_switches_to_pull(star7):
    """The all-dense first level actually crosses the alpha threshold."""
    policy = resolve_direction(ADAPTIVE)
    deg = star7.degrees()
    frontier_edges = int(deg[0])  # hub: 6 edges
    unvisited_edges = int(star7.nnz) - frontier_edges  # leaves: 6 edges
    assert (
        policy.choose(
            frontier_nnz=1,
            frontier_edges=frontier_edges,
            unvisited_edges=unvisited_edges,
            n=star7.nrows,
            current=PUSH,
        )
        == PULL
    )


@pytest.mark.parametrize("mode", MODES)
def test_disconnected_components_stay_unreached(mode):
    A = disconnected_union([stencil_2d(4, 4), stencil_2d(3, 3), csr_from_edges(2, [(0, 1)])])
    ref, ref_n = bfs_levels(A, 0, direction=PUSH)
    levels, nlv = bfs_levels(A, 0, direction=mode)
    assert np.array_equal(levels, ref) and nlv == ref_n
    assert np.all(levels[16:] == -1)  # other components untouched
    # pull's unvisited scan covers other components' rows; they must
    # never be discovered (no frontier neighbor exists there)
    levels2, _ = bfs_levels(A, 20, direction=mode)
    assert np.all(levels2[:16] == -1) and np.all(levels2[25:] == -1)


def test_forced_overrides_reach_both_kernels(monkeypatch):
    """direction='push'/'pull' really forces the respective kernel."""
    A = stencil_2d(6, 6)
    calls = {"push": 0, "pull": 0}
    orig_push = numpy_backend.expand_frontier
    orig_pull = numpy_backend.expand_frontier_pull

    def count_push(*a, **k):
        calls["push"] += 1
        return orig_push(*a, **k)

    def count_pull(*a, **k):
        calls["pull"] += 1
        return orig_pull(*a, **k)

    monkeypatch.setattr(numpy_backend, "expand_frontier", count_push)
    monkeypatch.setattr(numpy_backend, "expand_frontier_pull", count_pull)
    bfs_levels(A, 0, direction=PUSH)
    assert calls["pull"] == 0 and calls["push"] > 0
    calls["push"] = 0
    bfs_levels(A, 0, direction=PULL)
    assert calls["push"] == 0 and calls["pull"] > 0


def _suite_names():
    from repro.matrices.suite import PAPER_SUITE

    return list(PAPER_SUITE)


@pytest.mark.parametrize("name", _suite_names())
def test_paper_suite_levels_identical_across_directions(name):
    """Acceptance sweep: the full paper suite, every direction mode."""
    from repro.matrices.suite import PAPER_SUITE

    A = PAPER_SUITE[name].build(0.4)
    ref, ref_n = bfs_levels(A, 0, direction=PUSH)
    for mode in (PULL, ADAPTIVE):
        levels, nlv = bfs_levels(A, 0, direction=mode)
        assert np.array_equal(levels, ref), (name, mode)
        assert nlv == ref_n
