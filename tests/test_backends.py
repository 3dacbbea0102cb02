"""Kernel-backend equivalence: every backend must match the numpy oracle.

The contract (see ``repro.backends.base``): identical SparseVector
structure always; bit-identical payloads under order-insensitive
semiring adds (min/max); round-off-identical under (+, *).  RCM
orderings must be bit-identical under every backend on every paper
suite surrogate.
"""

import numpy as np
import pytest

from repro.backends import (
    available_backends,
    backend_scope,
    default_backend,
    resolve_backend,
)
from repro.core import bfs_levels, rcm_serial
from repro.core.rcm_algebraic import rcm_algebraic
from repro.matrices import PAPER_SUITE, stencil_2d
from repro.semiring import (
    MIN_PLUS,
    PLUS_TIMES,
    SELECT2ND_MIN,
    spmspv_csc,
    spmspv_csr,
    spmv_dense,
)
from repro.sparse import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.spvector import SparseVector
from tests.conftest import csr_from_edges

EXACT_SEMIRINGS = [SELECT2ND_MIN, MIN_PLUS]
OTHER_BACKENDS = [b for b in available_backends() if b != "numpy"]


def _csc_of(A: CSRMatrix) -> CSCMatrix:
    return CSCMatrix(A.nrows, A.ncols, A.indptr, A.indices, A.data)


def _frontiers(A: CSRMatrix):
    """Real BFS frontiers plus adversarial inputs (empty, singleton, full)."""
    levels, _ = bfs_levels(A, 0)
    out = [
        SparseVector.empty(A.nrows),
        SparseVector.single(A.nrows, A.nrows - 1, 3.0),
        SparseVector(
            A.nrows,
            np.arange(A.nrows, dtype=np.int64),
            np.arange(A.nrows, dtype=np.float64) + 1.0,
        ),
    ]
    for d in range(int(levels.max()) + 1):
        f = np.flatnonzero(levels == d).astype(np.int64)
        out.append(SparseVector(A.nrows, f, f.astype(np.float64) + 1.0))
    return out


def _graphs():
    rng = np.random.default_rng(5)
    n = 50
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(70):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((int(u), int(v)))
    return {
        "stencil": stencil_2d(9, 7),
        "random": csr_from_edges(n, edges),
        "disconnected": csr_from_edges(
            8, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (6, 7)]
        ),
    }


@pytest.mark.parametrize("backend", OTHER_BACKENDS)
@pytest.mark.parametrize("graph", list(_graphs()))
def test_spmspv_kernels_match_oracle(backend, graph):
    A = _graphs()[graph]
    Ac = _csc_of(A)
    mask = np.zeros(A.nrows, dtype=bool)
    mask[:: 2] = True
    for x in _frontiers(A):
        for sr in EXACT_SEMIRINGS:
            for m in (None, mask):
                y_oracle = spmspv_csc(Ac, x, sr, mask=m, backend="numpy")
                assert spmspv_csc(Ac, x, sr, mask=m, backend=backend) == y_oracle
                assert spmspv_csr(A, x, sr, mask=m, backend=backend) == y_oracle
        y_np = spmspv_csc(Ac, x, PLUS_TIMES, backend="numpy")
        y_b = spmspv_csc(Ac, x, PLUS_TIMES, backend=backend)
        assert np.array_equal(y_np.indices, y_b.indices)
        assert np.allclose(y_np.values, y_b.values)


@pytest.mark.parametrize("backend", OTHER_BACKENDS)
@pytest.mark.parametrize("graph", list(_graphs()))
def test_spmv_dense_matches_oracle(backend, graph):
    A = _graphs()[graph]
    x = np.linspace(-1.0, 2.0, A.ncols)
    for sr in (SELECT2ND_MIN, MIN_PLUS, PLUS_TIMES):
        y_np = spmv_dense(A, x, sr, backend="numpy")
        y_b = spmv_dense(A, x, sr, backend=backend)
        assert np.allclose(y_np, y_b, equal_nan=True)


@pytest.mark.parametrize("backend", OTHER_BACKENDS)
@pytest.mark.parametrize("graph", list(_graphs()))
def test_bfs_levels_match_oracle(backend, graph):
    A = _graphs()[graph]
    for root in (0, A.nrows // 2, A.nrows - 1):
        l_np, n_np = bfs_levels(A, root, backend="numpy")
        l_b, n_b = bfs_levels(A, root, backend=backend)
        assert np.array_equal(l_np, l_b)
        assert n_np == n_b


@pytest.mark.parametrize("backend", OTHER_BACKENDS)
def test_expand_frontier_empty_and_isolated(backend):
    A = csr_from_edges(4, [(0, 1), (1, 3)])  # vertex 2 isolated
    kernels = resolve_backend(backend)
    unvisited = np.ones(4, dtype=bool)
    assert kernels.expand_frontier(A, np.empty(0, dtype=np.int64), unvisited).size == 0
    assert kernels.expand_frontier(A, np.array([2]), unvisited).size == 0
    got = kernels.expand_frontier(A, np.array([1]), unvisited)
    assert np.array_equal(got, [0, 3])


@pytest.mark.parametrize("backend", OTHER_BACKENDS)
def test_rcm_orderings_identical_across_paper_suite(backend):
    """The acceptance bar: identical orderings on every suite surrogate."""
    for name in PAPER_SUITE:
        A = PAPER_SUITE[name].build(0.4)
        oracle = rcm_serial(A).perm
        with backend_scope(backend):
            assert np.array_equal(rcm_serial(A).perm, oracle), name
            assert np.array_equal(rcm_algebraic(A).perm, oracle), name


@pytest.mark.parametrize("backend", OTHER_BACKENDS)
def test_distributed_rcm_identical_under_backend(backend, grid8x8):
    from repro.distributed.rcm import rcm_distributed

    oracle = rcm_serial(grid8x8).perm
    res = rcm_distributed(grid8x8, nprocs=4, backend=backend)
    assert np.array_equal(res.ordering.perm, oracle)


def test_registry_roundtrip_and_errors():
    assert "numpy" in available_backends()
    prev = default_backend()
    with pytest.raises(KeyError):
        resolve_backend("no-such-backend")
    with pytest.raises(KeyError):
        with backend_scope("no-such-backend"):
            pass  # pragma: no cover
    with backend_scope("numpy"):
        assert default_backend() == "numpy"
        assert resolve_backend(None).name == "numpy"
    assert default_backend() == prev
    # instances pass through the resolver untouched
    b = resolve_backend("numpy")
    assert resolve_backend(b) is b


def test_scipy_backend_listed_when_scipy_importable():
    """If scipy imports, the scipy backend MUST be registered — otherwise
    a broken scipy_backend module would silently skip every equivalence
    test in this file."""
    pytest.importorskip("scipy")
    assert "scipy" in available_backends()

