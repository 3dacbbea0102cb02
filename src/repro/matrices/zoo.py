"""The graph zoo: named web-scale workload configurations.

The paper's whole point is ordering matrices too big and too irregular
for one node; the zoo is where those workloads live.  Every entry is a
named parameterization of a chunk-native generator
(:mod:`repro.matrices.random_graphs`), exposed two ways:

* ``entry.stream()`` — a re-iterable
  :class:`~repro.sparse.stream.EdgeStream` of mirrored edge chunks that
  feeds ``DistSparseMatrix.from_stream`` directly, so even the scale-22+
  entries ingest under an O(chunk) driver-memory budget;
* ``entry.build()`` — the monolithic CSR, for entries small enough to
  hold (guarded by ``entry.monolithic_ok``).

Both views generate identical edge sets (the chunked generator is the
single code path), so streamed and monolithic construction produce
bit-identical distributed matrices, orderings, and modeled ledgers.

``repro-bench run ingest --matrix zoo:<name>`` measures exactly that, plus
the peak-RSS gap the streamed path exists for; :func:`resolve_matrix`
is the shared ``zoo:``-spec parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.stream import UndirectedEdgeStream
from .random_graphs import (
    _assemble,
    bipartite_product_chunks,
    erdos_renyi_chunks,
    rmat_chunks,
    road_mesh_chunks,
)

__all__ = ["ZooEntry", "GRAPH_ZOO", "resolve_matrix", "zoo_entry"]


@dataclass(frozen=True)
class ZooEntry:
    """One named workload: chunk factory + regime description."""

    name: str
    description: str
    family: str  #: "rmat" | "road" | "bipartite" | "er"
    n: int  #: vertex count
    approx_edges: int  #: undirected edges before dedup (sizing guide)
    #: when False, ``build()`` refuses: the entry only makes sense streamed
    monolithic_ok: bool = True
    _chunks: Callable[[], Iterator[np.ndarray]] = field(repr=False, default=None)

    def chunks(self) -> Iterator[np.ndarray]:
        """A fresh iterator of ``(k, 2)`` undirected edge batches."""
        return self._chunks()

    def stream(self) -> UndirectedEdgeStream:
        """Re-iterable edge stream for ``DistSparseMatrix.from_stream``."""
        return UndirectedEdgeStream(self.n, self._chunks)

    def build(self) -> CSRMatrix:
        """Monolithic CSR (refuses on entries marked stream-only)."""
        if not self.monolithic_ok:
            raise MemoryError(
                f"zoo entry {self.name!r} (~{self.approx_edges:,} edges) is "
                "stream-only; use entry.stream() with "
                "DistSparseMatrix.from_stream"
            )
        return _assemble(self.n, self.chunks())


def _rmat_entry(scale: int, edge_factor: int = 8, seed: int = 7,
                monolithic_ok: bool = True) -> ZooEntry:
    n = 1 << scale
    return ZooEntry(
        name=f"rmat{scale}",
        description=(
            f"Graph500-style RMAT, scale {scale} (skewed degrees, "
            "low diameter: the dense-frontier pull regime)"
        ),
        family="rmat",
        n=n,
        approx_edges=n * edge_factor,
        monolithic_ok=monolithic_ok,
        _chunks=lambda: rmat_chunks(scale, edge_factor=edge_factor, seed=seed),
    )


def _road_entry(name: str, nx: int, ny: int, seed: int = 3,
                monolithic_ok: bool = True) -> ZooEntry:
    return ZooEntry(
        name=name,
        description=(
            f"road-style {nx}x{ny} mesh (diameter ~{nx + ny}: the "
            "latency-bound push regime, hundreds of BFS levels)"
        ),
        family="road",
        n=nx * ny,
        approx_edges=2 * nx * ny,
        monolithic_ok=monolithic_ok,
        _chunks=lambda: road_mesh_chunks(nx, ny, seed=seed),
    )


def _bipartite_entry(name: str, n_left: int, n_right: int, seed: int = 5,
                     monolithic_ok: bool = True) -> ZooEntry:
    return ZooEntry(
        name=name,
        description=(
            f"A.A^T of a random {n_left}x{n_right} bipartite incidence "
            "(rectangular input squared into the symmetric pipeline)"
        ),
        family="bipartite",
        n=n_left,
        approx_edges=n_right * 4,
        monolithic_ok=monolithic_ok,
        _chunks=lambda: bipartite_product_chunks(n_left, n_right, seed=seed),
    )


def _er_entry(name: str, n: int, avg_degree: float, seed: int = 11,
              monolithic_ok: bool = True) -> ZooEntry:
    return ZooEntry(
        name=name,
        description=(
            f"Erdos-Renyi n={n:,} avg degree {avg_degree:g} "
            "(uniform social-style graph, ~log n diameter)"
        ),
        family="er",
        n=n,
        approx_edges=int(n * avg_degree / 2),
        monolithic_ok=monolithic_ok,
        _chunks=lambda: erdos_renyi_chunks(n, avg_degree, seed=seed),
    )


#: The named workload registry, small to web-scale.  Entries above
#: ~50M edges are stream-only: the ingest path is the product, not a
#: convenience.
GRAPH_ZOO: dict[str, ZooEntry] = {
    entry.name: entry
    for entry in (
        _rmat_entry(14),
        _rmat_entry(16),
        _rmat_entry(18),
        _rmat_entry(20),
        _rmat_entry(22),
        _rmat_entry(24, monolithic_ok=False),
        _road_entry("road-512", 512, 512),
        _road_entry("road-2048", 2048, 2048),
        _road_entry("road-8192", 8192, 8192, monolithic_ok=False),
        _bipartite_entry("bipartite-aat-small", 1 << 14, 1 << 15),
        _bipartite_entry("bipartite-aat", 1 << 18, 1 << 19),
        _bipartite_entry("bipartite-aat-xl", 1 << 22, 1 << 23, monolithic_ok=False),
        _er_entry("er-social", 100_000, 32.0),
        _er_entry("er-social-xl", 4_000_000, 32.0, monolithic_ok=False),
    )
}


def zoo_entry(name: str) -> ZooEntry:
    """Look up a zoo entry by bare name (KeyError lists the registry)."""
    try:
        return GRAPH_ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown zoo entry {name!r}; have {sorted(GRAPH_ZOO)}"
        ) from None


def resolve_matrix(spec: str, scale: float = 1.0):
    """Resolve a ``--matrix`` spec to ``(name, stream, entry_or_None)``.

    ``zoo:<name>`` resolves through :data:`GRAPH_ZOO` and returns the
    entry's stream; a bare name resolves through the paper suite
    (:data:`repro.matrices.suite.PAPER_SUITE`) built monolithically at
    ``scale`` and wrapped in an in-memory stream — so every consumer of
    a matrix spec accepts both worlds through one call.
    """
    if spec.startswith("zoo:"):
        entry = zoo_entry(spec[len("zoo:") :])
        return entry.name, entry.stream(), entry
    from ..sparse.stream import ArrayEdgeStream
    from .suite import PAPER_SUITE

    if spec not in PAPER_SUITE:
        raise KeyError(
            f"unknown matrix spec {spec!r}: expected 'zoo:<name>' "
            f"({sorted(GRAPH_ZOO)}) or a suite name ({list(PAPER_SUITE)})"
        )
    A = PAPER_SUITE[spec].build(scale)
    return spec, ArrayEdgeStream.from_coo(A.to_coo()), None
