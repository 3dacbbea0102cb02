"""Golden outputs: orderings and p=16 modeled ledgers pinned to values.

The equivalence suites compare implementations with each other, so a
change to a shared helper (the frontier dedup, the ordering key, the
final inverse, a collective's charge formula) that moves every
implementation together passes them all.  These pins hold what the
library actually outputs.  Orderings are pinned as the blake2b-128
digest of the int64 permutation bytes, the same digest ``perfbench``
pins for its road and rmat workloads.  Modeled ledgers are pinned
exactly, per Fig. 4 region, for ``rcm_distributed`` at p=16.

Regenerate a pin only for a deliberate change of the ordering or of
the cost model.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import rcm
from repro.distributed.rcm import rcm_distributed
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


FIG4_REGIONS = (
    "peripheral:spmspv",
    "peripheral:other",
    "ordering:spmspv",
    "ordering:sort",
    "ordering:other",
)

#: ``rcm_distributed(A, nprocs=16, **kwargs)`` ledger, one row per Fig. 4
#: region in ``FIG4_REGIONS`` order: (compute_seconds, comm_seconds,
#: messages, words, operations).  The road and rmat runs cover push
#: supersteps and the bucket sort; the adaptive li7nmax6 run covers pull
#: supersteps, the mask Allgather and the degree-sum Allreduces; the
#: serena run covers the samplesort.
LEDGER_PINS = {
    "road256": (
        lambda: road_mesh(256, 256, seed=3),
        {},
        (
            (0.003937071875000003, 0.02113436799999999, 97920, 2637060, 1448138),
            (0.002423574999999997, 0.014767744000000109, 78656, 157952, 1119027),
            (0.0009970937499999986, 0.005409243999999998, 25120, 659704, 362244),
            (0.00042079773945884007, 0.03242881999999999, 170272, 402795, 196605),
            (0.0006183593750000005, 0.003773024000000008, 20096, 40192, 263590),
        ),
    ),
    "rmat12": (
        lambda: rmat(12, seed=7),
        {},
        (
            (0.00015473750000000004, 0.01756783800000006, 93520, 125784, 194156),
            (0.0009380687499999857, 0.04173233599999936, 222080, 738688, 4743355),
            (5.1790625000000014e-05, 0.01735223400000006, 92480, 45168, 64812),
            (6.640776042455887e-05, 0.0007273799999999999, 3808, 16415, 8841),
            (7.590625000000087e-06, 0.0138904960000001, 73984, 147968, 12652),
        ),
    ),
    "li7nmax6-adaptive": (
        lambda: PAPER_SUITE["li7nmax6"].build(1.0),
        {"direction": "adaptive"},
        (
            (0.0011962312500000002, 0.000162792, 800, 29992, 1021968),
            (7.762500000000002e-06, 0.00022835200000000003, 1216, 2816, 15310),
            (0.0005801531250000001, 7.865400000000001e-05, 384, 15226, 404317),
            (6.859534814148518e-05, 0.00032019000000000004, 1632, 8215, 4497),
            (3.4343749999999996e-06, 9.6128e-05, 512, 1024, 6298),
        ),
    ),
    "serena-sample": (
        lambda: PAPER_SUITE["serena"].build(1.0),
        {"sort_impl": "sample"},
        (
            (6.696249999999997e-05, 0.0014180959999999998, 7360, 50312, 37336),
            (1.5774999999999984e-05, 0.0011415679999999986, 6080, 12544, 21866),
            (3.348124999999998e-05, 0.0007090479999999998, 3680, 25156, 18668),
            (1.5864457154288277e-05, 0.005147015999999998, 27360, 98433, 17003),
            (7.646874999999996e-06, 0.000552736, 2944, 5888, 9717),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(LEDGER_PINS))
def test_p16_ledger_golden(name):
    build, kwargs, pinned = LEDGER_PINS[name]
    ledger = rcm_distributed(build(), nprocs=16, **kwargs).ledger
    assert ledger.region_names() == sorted(FIG4_REGIONS)
    for region, row in zip(FIG4_REGIONS, pinned):
        rc = ledger.region(region)
        got = (rc.compute_seconds, rc.comm_seconds, rc.messages, rc.words, rc.operations)
        assert got == row, region
