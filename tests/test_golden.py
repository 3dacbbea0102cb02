"""Golden outputs: orderings, layouts and p=16 modeled ledgers pinned to values.

The equivalence suites compare implementations with each other, so a
change to a shared helper (the frontier dedup, the ordering key, the
final inverse, a collective's charge formula) that moves every
implementation together passes them all.  These pins hold what the
library actually outputs.  Orderings are pinned as the blake2b-128
digest of the int64 permutation bytes, the same digest ``perfbench``
pins for its road and rmat workloads; the compressed layouts one
matrix is stored in (its CSR and its p=16 CSC blocks) are pinned the
same way, array by array.  On the suite surrogates and the zoo inputs
the pseudo-peripheral search is pinned too (roots, levels per
component, sweep count, for ``rcm()`` and for ``rcm(A, nprocs=4)`` or
``rcm(A, nprocs=16)``), with the ordering's bandwidth and profile.  Modeled ledgers are pinned exactly, per Fig. 4 region, for
``rcm_distributed`` at p=16.

Regenerate a pin only for a deliberate change of the ordering, the
storage layout or the cost model.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import bandwidth_of_permutation, profile_of_permutation, rcm
from repro.distributed import DistContext, DistSparseMatrix
from repro.distributed.rcm import rcm_distributed
from repro.machine import ProcessGrid
from repro.matrices import PAPER_SUITE, disconnected_union, path_graph, stencil_2d
from repro.matrices.random_graphs import rmat, road_mesh
from repro.matrices.zoo import zoo_entry
from tests.conftest import csr_from_edges

#: ``rcm(A)`` on each suite surrogate at scale 1.0: (permutation digest,
#: roots digest, levels-per-component digest, pseudo-peripheral BFS
#: sweeps, bandwidth, profile), digested as in ``ZOO_DIGESTS``.
SUITE_DIGESTS = {
    "nd24k": (
        "10469a52d704d5ec0779cff2058ac968",
        "1e2f81535aad40e59a25efa628139063",
        "fd0bf8a9a9ca3ecbf289eaea6cdaf22a",
        3,
        469,
        522132,
    ),
    "ldoor": (
        "43b05a9b3ae9d54f1491f8bed0b620ff",
        "fc8ba0ab654cd8c7c3afc988b29bdaea",
        "64c38acb74becec498744921283eaf5d",
        3,
        23,
        26481,
    ),
    "serena": (
        "eaf6a9084c6dff32f233b30172eca6e2",
        "c804ce198ec337e3dc762bdd1a09aece",
        "7aad9633adf149d874ef30183b8ea068",
        2,
        81,
        171177,
    ),
    "audikw_1": (
        "af3ec136111ad819f4ccd13443f98ed8",
        "1bd0836694b55d0d1ac1f2f47e018175",
        "cb4f0866e2539eb7401eeb6a0416d0ae",
        3,
        140,
        127060,
    ),
    "dielFilterV3real": (
        "ca03f9905f838504cfc441a51c7676c0",
        "d7810a7630c25f740f0128a4af9290e9",
        "6ce1eb763dc50824788de55794eaa57f",
        3,
        169,
        189851,
    ),
    "flan_1565": (
        "5df01b6ab9f73b700844533dccb7ff67",
        "c804ce198ec337e3dc762bdd1a09aece",
        "515376ac97cdf9e73c63458d1d01b5b3",
        2,
        20,
        39264,
    ),
    "li7nmax6": (
        "f8920aa249e2f6900d782a49237242b8",
        "c804ce198ec337e3dc762bdd1a09aece",
        "a4f5ced6668957bb2a9a954e7e50f5b5",
        2,
        1197,
        420521,
    ),
    "nm7": (
        "a0fd9f93ca7945c4eb34da4bdb6ad01b",
        "c804ce198ec337e3dc762bdd1a09aece",
        "a4f5ced6668957bb2a9a954e7e50f5b5",
        2,
        1648,
        1139721,
    ),
    "nlpkkt240": (
        "60f916c77d165d488003b720e7408153",
        "611317f396b3a1582a759eeb18e31a10",
        "5736a4d09bd520fc39c5cc2aa77d3e47",
        3,
        96,
        249145,
    ),
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


#: ``rcm(A)`` on each zoo input: (build, permutation digest, roots
#: digest, levels-per-component digest, pseudo-peripheral BFS sweeps,
#: bandwidth, profile).  Roots and levels are digested as int64 arrays.
ZOO_DIGESTS = {
    "rmat12": (
        lambda: rmat(12, seed=7),
        "97f0f0dcf96ddf96e647f6d31b5220ac",
        "77d3c0c3477a72e1eb9a6ea07a15ae0f",
        "810f6aee907b2bffd2f031c1599d08e1",
        1152,
        2275,
        1685046,
    ),
    "road256": (
        lambda: road_mesh(256, 256, seed=3),
        "d73137aed90992b28dd727a65c9814de",
        "74512d78b1adf3a9e20f21a5d1812d74",
        "82aaa78e2f711fa68ff8943b772a1326",
        4,
        631,
        16625144,
    ),
    "bipartite-aat-small": (
        lambda: zoo_entry("bipartite-aat-small").build(),
        "ff3bcd37b639e3e132d55546a2c7e173",
        "f5fe3627336c9c1fb07044b20a695e2e",
        "012c2e0610d3780461ae76e06d0f29b2",
        43,
        11465,
        91684588,
    ),
    "disconnected": (
        _disconnected_with_isolated,
        "eaa8e3ea667306943564cc42a7fb1028",
        "07b8835ed881ec29ae3015bce7c7c685",
        "3337eeffc164f44f41ef05ba167633c4",
        43,
        168,
        9912,
    ),
}


def perm_digest(perm: np.ndarray) -> str:
    return array_digest(np.asarray(perm, dtype=np.int64))


def array_digest(arr: np.ndarray) -> str:
    data = np.ascontiguousarray(arr).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def test_suite_is_covered():
    assert set(SUITE_DIGESTS) == set(PAPER_SUITE)


def search_digests(ordering) -> tuple[str, str, int]:
    """The roots and levels-per-component digests and the sweep count."""
    return (
        array_digest(np.asarray(ordering.roots, dtype=np.int64)),
        array_digest(np.asarray(ordering.levels_per_component, dtype=np.int64)),
        ordering.peripheral_bfs_count,
    )


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_golden(name):
    digest, roots, levels, sweeps, bandwidth, profile = SUITE_DIGESTS[name]
    A = PAPER_SUITE[name].build(1.0)
    ordering = rcm(A)
    assert perm_digest(ordering.perm) == digest
    assert search_digests(ordering) == (roots, levels, sweeps)
    assert bandwidth_of_permutation(A, ordering.perm) == bandwidth
    assert profile_of_permutation(A, ordering.perm) == profile
    dist = rcm(A, nprocs=4)
    assert perm_digest(dist.perm) == digest
    assert search_digests(dist) == (roots, levels, sweeps)


@pytest.mark.parametrize("name", sorted(ZOO_DIGESTS))
def test_zoo_golden(name):
    build, digest, roots, levels, sweeps, bandwidth, profile = ZOO_DIGESTS[name]
    A = build()
    ordering = rcm(A)
    assert perm_digest(ordering.perm) == digest
    assert search_digests(ordering) == (roots, levels, sweeps)
    assert bandwidth_of_permutation(A, ordering.perm) == bandwidth
    assert profile_of_permutation(A, ordering.perm) == profile
    dist = rcm(A, nprocs=16)
    assert perm_digest(dist.perm) == digest
    assert search_digests(dist) == (roots, levels, sweeps)


#: Digests of ``(indptr, indices, data)`` of ``rmat(12, seed=7)`` as CSR
#: and of each CSC block of ``DistSparseMatrix.from_csr`` on it at p=16, in
#: rank order.  The generator's duplicate edges sum to ``data`` values from
#: 1 to 33, so the ``data`` digests also pin the coalescing sum.
RMAT12_CSR_LAYOUT = (
    "39e05bdc59e5a62342df61db6d3b8fe2",
    "3aefecea74adc8e88495dc34b48fa9b4",
    "51756ca4ddd452a6dda2c9c905a9f266",
)

RMAT12_P16_BLOCK_LAYOUTS = (
    (
        "57a125d8a8072dde2777d7d541cee2df",
        "151064a7b45e5bec73b261806a4c8db7",
        "9a95c1128afbd622e98e23530030b29a",
    ),
    (
        "5303688e15bfb73fff96e5d6562c13da",
        "adc08d3579dbf6563f0ea566f4e8fbfe",
        "23c43f22898447d64cf9af9016967a60",
    ),
    (
        "b82792cb4f968614dbe9efaa95818521",
        "9e48680c3fc215880f24e42eefaa29e9",
        "5dbfb08db0314d8235540dbcdbdc5c10",
    ),
    (
        "8a0f951d8010f1ac64f94ef0817be26c",
        "5cc00e3b4f5ecc06382ca74d6eb63467",
        "bbd1857c80cba13f35844e2b155c9e88",
    ),
    (
        "2ec7575da0070c3f0c6c1d47ea3f201e",
        "ecd67bc8b5e03e3127c9027662a53d64",
        "a1884584cf54c02d5e863d8def878ded",
    ),
    (
        "5b1e897f6a3cb169658d0f5c512b3e86",
        "92898e342eea91756ce62b2f30179e42",
        "c4ec114f5d07f6c6fc4e4de4f9933ed6",
    ),
    (
        "651238dbe925eadf25fbc652298dee45",
        "2f8d985c843eaabcef76839f05353099",
        "d619e94f158e5000020b55027060157a",
    ),
    (
        "bf313fd0e13ea44282fc68a7490574e7",
        "4b3b2546aa2ad044635291323fc34b10",
        "5e8a0ad64e24174a24a22491ab034333",
    ),
    (
        "895567ddf38428e6fdb6f44f7757c10c",
        "18fed3199504be948f847e8b07d1f9bd",
        "d700e8ea34667b0a4c2641c366d9b9d5",
    ),
    (
        "3bff01b1febf2a8453eecade5c043160",
        "f5e1427043170cfc48315b2f18a58bd2",
        "6b0d1e8a77a12010d10e5221278735ff",
    ),
    (
        "cb9e31050e7e702318780149990c165a",
        "58915607ee1df4fb5086cc6615342716",
        "d33de20057a27cfe191dc5b357b409a8",
    ),
    (
        "180e4f56b530e8a2ab7007006275ddda",
        "c0dedd5b7e4a5157213a66df2799d2de",
        "ee04a1c1cb5f11e9dfbb2adf7e8e6ccd",
    ),
    (
        "e36918f46dac6bf35f3f1a3d34cf50ad",
        "4d6689ef5d573f2dbd99eebca2cecc2b",
        "259f81e1fe1ddeb072cc34d7ceba33b3",
    ),
    (
        "ce24fe8787e95db36717c030fd3b5e3c",
        "d7aa52f43a4c2fb37bb9cf737a689937",
        "1102e8f8e107bd73d294611dee01443f",
    ),
    (
        "39e9bf74c5f604b9fcf189381eb5531a",
        "ef1a7298b005852780ce3d57a988c4e4",
        "f797c8fd7ed0b758e81a50bbfb4641ba",
    ),
    (
        "251b326b6723e722e0d519247456d660",
        "5857fbcbb0e7b7f5283c5ca38b6dc6e9",
        "4a812d1bd9f06b36e572af2627dcad38",
    ),
)


def layout_digests(m) -> tuple[str, str, str]:
    return (array_digest(m.indptr), array_digest(m.indices), array_digest(m.data))


def test_rmat12_layout_golden():
    A = rmat(12, seed=7)
    assert (A.data.min(), A.data.max()) == (1.0, 33.0)
    assert layout_digests(A) == RMAT12_CSR_LAYOUT
    ctx = DistContext(ProcessGrid(4, 4))
    blocks = DistSparseMatrix.from_csr(ctx, A).blocks
    assert len(RMAT12_P16_BLOCK_LAYOUTS) == ctx.nprocs
    for r, pinned in enumerate(RMAT12_P16_BLOCK_LAYOUTS):
        assert layout_digests(blocks[ctx.grid.coords(r)]) == pinned, r


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
#: serena run covers the samplesort; the disconnected and
#: bipartite-aat-small runs (the latter has 41 components, 40 of them
#: isolated vertices) cover one pseudo-peripheral search and ordering
#: sweep per component, isolated vertices included.
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
    "bipartite-aat-small": (
        lambda: zoo_entry("bipartite-aat-small").build(),
        {},
        (
            (0.00019775312500000004, 0.0010662179999999981, 5040, 939316, 981590),
            (0.000177365625, 0.0017676959999999955, 9408, 29568, 895720),
            (6.695312500000001e-05, 0.0007611699999999995, 3840, 317314, 329249),
            (0.0001633529140789131, 0.0007434900000000001, 3808, 83395, 49029),
            (1.5565624999999933e-05, 0.000576768, 3072, 6144, 75537),
        ),
    ),
    "disconnected": (
        _disconnected_with_isolated,
        {},
        (
            (5.946875000000004e-06, 0.0013533499999999958, 7200, 10166, 10751),
            (4.368750000000012e-06, 0.0020680639999999936, 11008, 32512, 14719),
            (2.228125000000001e-06, 0.0009162739999999993, 4880, 3674, 3683),
            (3.1439068238461465e-06, 0.002245969999999999, 11968, 6580, 780),
            (8.343749999999994e-07, 0.000732976, 3904, 7808, 1074),
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
