"""Batched multi-source BFS pinned against the serial oracles.

Every row of ``bfs_levels_multi`` must equal ``bfs_levels`` from that
root; ``find_pseudo_peripheral_multi`` must reproduce the serial
George-Liu finder field-for-field; ``masked_components`` must agree with
a reference per-cluster BFS.  Covered inputs: stencils, random graphs,
disconnected components, isolated vertices, duplicate roots, the whole
paper suite.
"""

import numpy as np
import pytest

from repro.core import (
    bfs_levels,
    bfs_levels_multi,
    find_pseudo_peripheral,
    find_pseudo_peripheral_multi,
    masked_components,
)
from repro.core.bfs import gather_rows
from repro.matrices import PAPER_SUITE, stencil_2d, stencil_3d
from tests.conftest import csr_from_edges


def _random_graph(n=60, extra=80, seed=3):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(extra):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((int(u), int(v)))
    return csr_from_edges(n, edges)


GRAPHS = {
    "stencil2d": stencil_2d(8, 11),
    "stencil3d": stencil_3d(4, 5, 3),
    "random": _random_graph(),
    "two_components": csr_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]),
    "with_isolated": csr_from_edges(4, [(0, 1), (1, 3)]),
    "path": csr_from_edges(7, [(i, i + 1) for i in range(6)]),
}


@pytest.mark.parametrize("graph", list(GRAPHS))
def test_levels_rows_match_serial_oracle(graph):
    A = GRAPHS[graph]
    roots = np.arange(A.nrows, dtype=np.int64)
    levels, nlevels = bfs_levels_multi(A, roots)
    assert levels.shape == (A.nrows, A.nrows)
    for r in roots:
        l1, n1 = bfs_levels(A, int(r))
        assert np.array_equal(levels[r], l1), (graph, r)
        assert nlevels[r] == n1, (graph, r)


def test_duplicate_and_unordered_roots():
    A = GRAPHS["random"]
    roots = np.array([7, 0, 7, 59, 0], dtype=np.int64)
    levels, nlevels = bfs_levels_multi(A, roots)
    for t, r in enumerate(roots):
        l1, n1 = bfs_levels(A, int(r))
        assert np.array_equal(levels[t], l1)
        assert nlevels[t] == n1


def test_empty_roots_and_range_check():
    A = GRAPHS["path"]
    levels, nlevels = bfs_levels_multi(A, np.empty(0, dtype=np.int64))
    assert levels.shape == (0, A.nrows) and nlevels.size == 0
    with pytest.raises(ValueError):
        bfs_levels_multi(A, np.array([A.nrows]))


def test_isolated_vertex_row():
    A = GRAPHS["with_isolated"]
    levels, nlevels = bfs_levels_multi(A, np.array([2]))
    assert nlevels[0] == 1
    assert levels[0, 2] == 0 and (levels[0, [0, 1, 3]] == -1).all()


@pytest.mark.parametrize("graph", list(GRAPHS))
def test_lockstep_finder_matches_serial_reference(graph):
    """Pin the batched finder against the INDEPENDENT one-root loop,
    find_pseudo_peripheral."""
    A = GRAPHS[graph]
    starts = np.arange(A.nrows, dtype=np.int64)
    batched = find_pseudo_peripheral_multi(A, starts)
    for s in starts:
        serial = find_pseudo_peripheral(A, int(s))
        b = batched[s]
        assert (b.vertex, b.nlevels, b.bfs_count) == (
            serial.vertex,
            serial.nlevels,
            serial.bfs_count,
        ), (graph, s)


def test_single_start_api_and_duplicate_batch_match_reference(two_components):
    """k=1 dispatches to the scalar loop; a duplicate pair [s, s] with the
    heuristic off forces the lockstep path — all must agree with it."""
    for s in range(two_components.nrows):
        ref = find_pseudo_peripheral(two_components, s)
        got = find_pseudo_peripheral_multi(two_components, np.array([s]))[0]
        dup = find_pseudo_peripheral_multi(
            two_components, np.array([s, s]), heuristic=False
        )
        for r in (got, *dup):
            assert (r.vertex, r.nlevels, r.bfs_count) == (
                ref.vertex,
                ref.nlevels,
                ref.bfs_count,
            )


def test_lockstep_finder_on_paper_suite():
    rng = np.random.default_rng(11)
    for name in PAPER_SUITE:
        A = PAPER_SUITE[name].build(0.35)
        starts = rng.choice(A.nrows, min(4, A.nrows), replace=False).astype(np.int64)
        batched = find_pseudo_peripheral_multi(A, starts)
        for s, b in zip(starts, batched):
            serial = find_pseudo_peripheral(A, int(s))
            assert (b.vertex, b.nlevels, b.bfs_count) == (
                serial.vertex,
                serial.nlevels,
                serial.bfs_count,
            ), name


def _reference_clusters(A, mask):
    """Per-cluster BFS reference (the pre-batching GPS implementation)."""
    labels = np.full(A.nrows, -1, dtype=np.int64)
    seen = np.zeros(A.nrows, dtype=bool)
    for v in np.flatnonzero(mask):
        if seen[v]:
            continue
        frontier = np.array([v], dtype=np.int64)
        seen[v] = True
        acc = [frontier]
        while frontier.size:
            neigh = np.unique(gather_rows(A, frontier))
            neigh = neigh[mask[neigh] & ~seen[neigh]]
            seen[neigh] = True
            if neigh.size:
                acc.append(neigh)
            frontier = neigh
        members = np.concatenate(acc)
        labels[members] = members.min()
    return labels


@pytest.mark.parametrize("graph", list(GRAPHS))
def test_masked_components_matches_bfs_reference(graph):
    A = GRAPHS[graph]
    rng = np.random.default_rng(2)
    for density in (0.0, 0.3, 0.7, 1.0):
        mask = rng.random(A.nrows) < density
        got = masked_components(A, mask)
        ref = _reference_clusters(A, mask)
        assert np.array_equal(got, ref), (graph, density)


def test_masked_components_long_path_converges():
    """Pointer jumping must converge on a worst-case path cluster."""
    n = 200
    A = csr_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    mask = np.ones(n, dtype=bool)
    labels = masked_components(A, mask)
    assert (labels == 0).all()


# ----------------------------------------------------------------------
# Frontier-density fallback heuristic (PR-3 satellite)
# ----------------------------------------------------------------------
def test_batching_decision_routes_dense_graph_to_scalar():
    from repro.core.bfs_multi import DENSE_DEGREE_THRESHOLD, batching_decision

    # li7nmax6 is the BENCH_PR1 counterexample: ~120 average degree,
    # 4-level BFS, batched lockstep measured at 0.56x there
    A = PAPER_SUITE["li7nmax6"].build(0.35)
    assert A.nnz / A.nrows >= DENSE_DEGREE_THRESHOLD
    decision = batching_decision(A)
    assert not decision.use_batched
    assert "dense" in decision.reason
    assert "scalar" in decision.describe()


def test_batching_decision_keeps_deep_sparse_graph_batched():
    from repro.core.bfs_multi import batching_decision

    A = stencil_2d(25, 25)
    decision = batching_decision(A, start=0)
    assert decision.use_batched
    assert decision.probe_levels is not None and decision.probe_levels >= 6


def test_batching_decision_probe_catches_shallow_sparse_graph(star7):
    from repro.core.bfs_multi import batching_decision

    decision = batching_decision(star7, start=1)
    assert not decision.use_batched
    assert "shallow" in decision.reason


def test_fallback_results_identical_to_batched():
    # the heuristic only changes execution strategy, never results
    A = PAPER_SUITE["li7nmax6"].build(0.35)
    starts = np.array([0, 7, 100, 311], dtype=np.int64)
    auto = find_pseudo_peripheral_multi(A, starts)  # dense -> scalar loop
    forced = find_pseudo_peripheral_multi(A, starts, heuristic=False)
    ref = [find_pseudo_peripheral(A, int(s)) for s in starts]
    for a, f, r in zip(auto, forced, ref):
        assert (a.vertex, a.nlevels, a.bfs_count) == (r.vertex, r.nlevels, r.bfs_count)
        assert (f.vertex, f.nlevels, f.bfs_count) == (r.vertex, r.nlevels, r.bfs_count)


def test_shallow_graph_routes_scalar_in_production(star7, monkeypatch):
    # production routing (heuristic on) must not enter the lockstep sweep
    # for a shallow graph — the probe gate runs, not just the density gate
    import repro.core.bfs_multi as mod

    def boom(*a, **k):
        raise AssertionError("lockstep sweep entered despite shallow probe")

    monkeypatch.setattr(mod, "bfs_levels_multi", boom)
    starts = np.array([1, 4], dtype=np.int64)
    out = mod.find_pseudo_peripheral_multi(star7, starts)
    ref = [find_pseudo_peripheral(star7, int(s)) for s in starts]
    for a, r in zip(out, ref):
        assert (a.vertex, a.nlevels, a.bfs_count) == (r.vertex, r.nlevels, r.bfs_count)
