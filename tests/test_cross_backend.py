"""Cross-implementation determinism: serial == algebraic == distributed.

This is the library's strongest guarantee and the paper's contribution #2
("the quality ... remains insensitive to the degree of concurrency" —
here strengthened to bit-identical orderings, which the paper's
deterministic (select2nd, min) + stable bucket sort design delivers).
"""

import numpy as np
import pytest

from repro.core import rcm_algebraic, rcm_serial
from repro.distributed import rcm_distributed
from repro.machine import zero_latency
from repro.matrices import PAPER_SUITE, disconnected_union, path_graph, stencil_2d, stencil_3d
from tests.conftest import csr_from_edges

GRIDS = [1, 4, 9, 16, 25]


def graphs():
    yield "path", path_graph(40)
    yield "grid2d", stencil_2d(7, 9)
    yield "grid3d", stencil_3d(4, 4, 4)
    yield "star", csr_from_edges(9, [(0, i) for i in range(1, 9)])
    rng = np.random.default_rng(13)
    edges = [(i, i + 1) for i in range(49)]
    edges += [
        (int(u), int(v))
        for u, v in rng.integers(0, 50, (60, 2))
        if u != v
    ]
    yield "random", csr_from_edges(50, edges)
    yield "disconnected", disconnected_union([path_graph(11), stencil_2d(3, 4)])


@pytest.mark.parametrize("name,A", list(graphs()), ids=lambda g: g if isinstance(g, str) else "")
def test_algebraic_equals_serial(name, A):
    assert np.array_equal(rcm_algebraic(A).perm, rcm_serial(A).perm)


def test_rcm_orderings_identical_across_paper_suite():
    """The acceptance bar: identical orderings on every suite surrogate."""
    for name in PAPER_SUITE:
        A = PAPER_SUITE[name].build(0.4)
        oracle = rcm_serial(A).perm
        assert np.array_equal(rcm_algebraic(A).perm, oracle), name


@pytest.mark.parametrize("p", GRIDS)
@pytest.mark.parametrize("name,A", list(graphs()), ids=lambda g: g if isinstance(g, str) else "")
def test_distributed_equals_serial_every_grid(name, A, p):
    serial = rcm_serial(A)
    dist = rcm_distributed(A, nprocs=p, machine=zero_latency())
    assert np.array_equal(dist.ordering.perm, serial.perm), (
        f"{name}: distributed RCM on p={p} diverged from serial"
    )


@pytest.mark.parametrize("p", [4, 16])
def test_distributed_metadata_matches_serial(p):
    A = stencil_2d(6, 8)
    serial = rcm_serial(A)
    dist = rcm_distributed(A, nprocs=p, machine=zero_latency())
    assert dist.ordering.roots == serial.roots
    assert dist.ordering.levels_per_component == serial.levels_per_component
    assert dist.ordering.peripheral_bfs_count == serial.peripheral_bfs_count


def test_distributed_ordering_identical_across_grids():
    """Concurrency-insensitivity: every grid size gives the same answer."""
    A = stencil_2d(9, 5)
    perms = [
        rcm_distributed(A, nprocs=p, machine=zero_latency()).ordering.perm
        for p in GRIDS
    ]
    for perm in perms[1:]:
        assert np.array_equal(perm, perms[0])


def test_random_permute_returns_original_labels():
    """With load-balancing relabeling on, the result is still a valid
    ordering of the ORIGINAL matrix with equivalent quality."""
    from repro.core.metrics import bandwidth_of_permutation
    from repro.sparse import is_permutation

    A = stencil_2d(10, 10)
    base_bw = bandwidth_of_permutation(A, rcm_serial(A).perm)
    res = rcm_distributed(A, nprocs=4, random_permute=7, machine=zero_latency())
    assert is_permutation(res.ordering.perm, A.nrows)
    bw = bandwidth_of_permutation(A, res.ordering.perm)
    assert bw <= base_bw * 1.5 + 3


def test_sample_sort_backend_identical():
    A = stencil_2d(6, 6)
    a = rcm_distributed(A, nprocs=4, machine=zero_latency(), sort_impl="bucket")
    b = rcm_distributed(A, nprocs=4, machine=zero_latency(), sort_impl="sample")
    assert np.array_equal(a.ordering.perm, b.ordering.perm)
