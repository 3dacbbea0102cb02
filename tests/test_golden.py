"""Golden orderings: ``rcm()`` pinned to committed permutation digests.

The equivalence suites compare implementations with each other, so a
change to a shared helper (the frontier dedup, the ordering key, the
final inverse) that moves every implementation together passes them
all.  These digests pin what the library actually outputs.  They are
the blake2b-128 digest of the int64 permutation bytes, the same digest
``perfbench`` pins for its road and rmat workloads.

Regenerate a digest only for a deliberate change of the ordering.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import rcm
from repro.matrices import PAPER_SUITE, disconnected_union, path_graph, stencil_2d
from repro.matrices.random_graphs import rmat, road_mesh
from tests.conftest import csr_from_edges

SUITE_DIGESTS = {
    "nd24k": "10469a52d704d5ec0779cff2058ac968",
    "ldoor": "43b05a9b3ae9d54f1491f8bed0b620ff",
    "serena": "eaf6a9084c6dff32f233b30172eca6e2",
    "audikw_1": "af3ec136111ad819f4ccd13443f98ed8",
    "dielFilterV3real": "ca03f9905f838504cfc441a51c7676c0",
    "flan_1565": "5df01b6ab9f73b700844533dccb7ff67",
    "li7nmax6": "f8920aa249e2f6900d782a49237242b8",
    "nm7": "a0fd9f93ca7945c4eb34da4bdb6ad01b",
    "nlpkkt240": "60f916c77d165d488003b720e7408153",
}


def _disconnected_with_isolated():
    """Five components plus isolated vertices at both ends and in between."""
    return disconnected_union(
        [
            csr_from_edges(3, []),
            stencil_2d(6, 5),
            csr_from_edges(1, []),
            path_graph(9),
            rmat(8, seed=5),
        ]
    )


ZOO_DIGESTS = {
    "rmat12": (lambda: rmat(12, seed=7), "97f0f0dcf96ddf96e647f6d31b5220ac"),
    "road256": (lambda: road_mesh(256, 256, seed=3), "d73137aed90992b28dd727a65c9814de"),
    "disconnected": (_disconnected_with_isolated, "eaa8e3ea667306943564cc42a7fb1028"),
}


def perm_digest(perm: np.ndarray) -> str:
    data = np.ascontiguousarray(perm, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def test_suite_is_covered():
    assert set(SUITE_DIGESTS) == set(PAPER_SUITE)


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_golden(name):
    A = PAPER_SUITE[name].build(1.0)
    assert perm_digest(rcm(A).perm) == SUITE_DIGESTS[name]
    assert perm_digest(rcm(A, nprocs=4).perm) == SUITE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ZOO_DIGESTS))
def test_zoo_golden(name):
    build, digest = ZOO_DIGESTS[name]
    assert perm_digest(rcm(build()).perm) == digest
