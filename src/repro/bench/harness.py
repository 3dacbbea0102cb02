"""Experiment harness: one function per paper table/figure.

Every experiment builds and returns a structured
:class:`~repro.bench.schema.ExperimentResult` — named tables of JSON
scalars, the expected-shape notes, the machine/engine/scale params, and
git provenance — which prints the same rows or series the paper shows
(see DESIGN.md's per-experiment index) through the pure text view in
:mod:`repro.bench.reporting`, and serializes uniformly under
``repro-bench --json``.  All experiments accept a ``scale`` knob
(linear mesh-dimension multiplier of the suite surrogates) and a
``quick`` flag that trims the core-count axis for CI-speed runs.

EXPERIMENTS.md records the expectations each report is checked against.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..baselines.gather_rcm import gather_then_rcm
from ..baselines.natural import natural_ordering
from ..baselines.spmp import spmp_rcm
from ..core.metrics import bandwidth_of_permutation
from ..core.rcm_serial import rcm_serial
from ..distributed.context import DistContext
from ..distributed.distmatrix import DistSparseMatrix
from ..distributed.rcm import rcm_distributed
from ..machine.grid import ProcessGrid
from ..machine.params import MachineParams, edison
from ..machine.threading_model import (
    hybrid_configs_for_cores,
    paper_core_counts,
)
from ..matrices.suite import PAPER_SUITE, thermal2_like
from ..solvers.solve_model import model_cg_solve
from .schema import ExperimentResult, ResultTable, experiment_result
from .sweep import strong_scaling_rcm

__all__ = [
    "run_fig1",
    "run_fig3",
    "run_table2",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_gather",
    "run_sort_ablation",
    "run_csc_ablation",
    "run_backend_ablation",
    "run_driver_overhead",
    "run_direction",
    "run_balance_ablation",
    "run_semiring_ablation",
    "run_skyline",
    "run_service",
    "run_quality",
    "run_calibration",
    "EXPERIMENTS",
]


def _calibrated_machine(name: str, A) -> "MachineParams":
    """Edison-like machine with comm constants scaled to the surrogate size.

    See :meth:`repro.machine.params.MachineParams.scaled`: preserves the
    paper's communication/computation balance for the ~1/500-scale
    surrogate matrices, so scaling-curve shapes match the paper's at the
    paper's own core counts.
    """
    paper_nnz = PAPER_SUITE[name].paper.nnz
    return edison().scaled(A.nnz / paper_nnz)


#: Matrices small enough for the full scaling sweep in quick mode.
_QUICK_MATRICES = ["nd24k", "ldoor", "serena", "flan_1565"]


def _suite_names(quick: bool, names: list[str] | None) -> list[str]:
    if names:
        return names
    return _QUICK_MATRICES if quick else list(PAPER_SUITE)


def _params(scale: float, quick: bool, names=None, **extra) -> dict:
    """The standard ``params`` block every experiment records."""
    p: dict = {
        "scale": scale,
        "quick": quick,
        "names": list(names) if names else None,
    }
    p.update(extra)
    return p


# ----------------------------------------------------------------------
# Fig. 1 — CG + block Jacobi, natural vs RCM ordering
# ----------------------------------------------------------------------
def run_fig1(scale: float = 1.0, quick: bool = False) -> ExperimentResult:
    A = thermal2_like(scale * (0.6 if quick else 1.0))
    rcm = rcm_serial(A)
    nat = natural_ordering(A)
    core_axis = [1, 4, 16, 64] if quick else [1, 4, 16, 64, 256]
    rows = []
    for cores in core_axis:
        pn = model_cg_solve(A, nat, cores, tol=1e-6)
        pr = model_cg_solve(A, rcm, cores, tol=1e-6)
        rows.append(
            [
                cores,
                pn.iterations,
                pn.total_seconds,
                pr.iterations,
                pr.total_seconds,
                pn.total_seconds / max(pr.total_seconds, 1e-300),
            ]
        )
    q = rcm.quality(A)
    return experiment_result(
        "fig1",
        "Fig. 1 — CG/block-Jacobi solve time, natural vs RCM ordering "
        f"(thermal2 surrogate: n={A.nrows}, nnz={A.nnz}, "
        f"bw {q.bw_before} -> {q.bw_after}; paper: 1,226,000 -> 795)",
        [
            ResultTable(
                ["cores", "nat iters", "nat seconds", "rcm iters", "rcm seconds", "rcm speedup"],
                rows,
            )
        ],
        notes=[
            "Expected shape (paper): RCM is never slower, and its advantage "
            "grows with core count."
        ],
        params=_params(scale, quick),
        machine=edison(),
    )


# ----------------------------------------------------------------------
# Fig. 3 — matrix suite structural table
# ----------------------------------------------------------------------
def run_fig3(scale: float = 1.0, quick: bool = False, names=None) -> ExperimentResult:
    rows = []
    for name in _suite_names(quick, names):
        entry = PAPER_SUITE[name]
        A = entry.build(scale)
        o = rcm_serial(A)
        q = o.quality(A)
        rows.append(
            [
                name,
                A.nrows,
                A.nnz,
                q.bw_before,
                q.bw_after,
                o.pseudo_diameter(),
                f"{q.bw_reduction:.1f}x",
                f"{entry.paper.bw_pre / entry.paper.bw_post:.1f}x",
                entry.paper.pseudo_diameter,
            ]
        )
    return experiment_result(
        "fig3",
        "Fig. 3 — suite structural info (surrogates vs paper)",
        [
            ResultTable(
                [
                    "matrix",
                    "n",
                    "nnz",
                    "bw pre",
                    "bw post",
                    "pseudo-diam",
                    "bw ratio",
                    "paper ratio",
                    "paper pd",
                ],
                rows,
            )
        ],
        params=_params(scale, quick, names),
    )


# ----------------------------------------------------------------------
# Table II — shared-memory SpMP vs distributed RCM on one node
# ----------------------------------------------------------------------
def run_table2(scale: float = 1.0, quick: bool = False, names=None) -> ExperimentResult:
    rows = []
    for name in _suite_names(quick, names):
        A = PAPER_SUITE[name].build(scale)
        machine = _calibrated_machine(name, A)
        sp = spmp_rcm(A)
        sp_bw = bandwidth_of_permutation(A, sp.ordering.perm)
        ours = rcm_serial(A)
        our_bw = bandwidth_of_permutation(A, ours.perm)
        sp_times = [sp.runtime(machine, t) for t in (1, 6, 24)]
        dist_times = []
        for cores in (1, 6, 24):
            cfg = hybrid_configs_for_cores(cores, threads_per_process=6)
            ctx = DistContext(cfg.grid, machine.with_threads(cfg.threads_per_process))
            res = rcm_distributed(A, ctx=ctx, random_permute=0)
            dist_times.append(res.modeled_seconds)
        rows.append([name, sp_bw, our_bw] + sp_times + dist_times)
    return experiment_result(
        "table2",
        "Table II — SpMP-like shared-memory RCM vs distributed RCM "
        "(single node; modeled seconds)",
        [
            ResultTable(
                [
                    "matrix",
                    "SpMP bw",
                    "our bw",
                    "SpMP 1t",
                    "SpMP 6t",
                    "SpMP 24t",
                    "dist 1c",
                    "dist 6c",
                    "dist 24c",
                ],
                rows,
            )
        ],
        notes=[
            "Expected shape (paper): SpMP is faster on one node (no "
            "distribution overhead); bandwidth quality is comparable either way."
        ],
        params=_params(
            scale, quick, names,
            machine_scaling="edison().scaled(A.nnz / paper_nnz) per matrix",
        ),
        machine=edison(),
    )


# ----------------------------------------------------------------------
# Fig. 4 — strong scaling with runtime breakdown
# ----------------------------------------------------------------------
def _scaling_cores(quick: bool) -> list[int]:
    return [1, 6, 24, 54] if quick else paper_core_counts(1014)


#: Fig. 4 legend order — the five stacked regions of the breakdown.
_FIG4_SEGMENTS = [
    "periph spmspv",
    "periph other",
    "order spmspv",
    "order sort",
    "order other",
]


def run_fig4(
    scale: float = 1.0, quick: bool = False, names=None, direction: str = "push"
) -> ExperimentResult:
    tables = []
    for name in _suite_names(quick, names):
        A = PAPER_SUITE[name].build(scale)
        cores = _scaling_cores(quick)
        if name in ("nm7", "nlpkkt240") and not quick:
            cores = [c for c in paper_core_counts(4056) if c >= 54]
        points = strong_scaling_rcm(
            A, cores, machine=_calibrated_machine(name, A), direction=direction
        )
        base = points[0]
        rows = []
        for p in points:
            b = p.breakdown
            rows.append(
                [
                    p.cores,
                    b.peripheral_spmspv,
                    b.peripheral_other,
                    b.ordering_spmspv,
                    b.ordering_sort,
                    b.ordering_other,
                    b.total,
                    f"{p.speedup_vs(base):.1f}x",
                ]
            )
        tables.append(
            ResultTable(
                ["cores"] + _FIG4_SEGMENTS + ["total s", "speedup"],
                rows,
                title=f"[{name}] n={A.nrows} nnz={A.nnz}",
                stacked=list(_FIG4_SEGMENTS),
            )
        )
    return experiment_result(
        "fig4",
        "Fig. 4 — distributed RCM strong scaling, runtime breakdown",
        tables,
        notes=[
            "Expected shape (paper): scales to ~1K cores; SpMSpV dominates at low "
            "concurrency, SORTPERM's alltoall latency grows at high concurrency; "
            "low-diameter matrices scale best."
        ],
        params=_params(
            scale, quick, names,
            machine_scaling="edison().scaled(A.nnz / paper_nnz) per matrix",
            direction=direction,
        ),
        machine=edison(),
    )


# ----------------------------------------------------------------------
# Fig. 5 — SpMSpV computation vs communication
# ----------------------------------------------------------------------
def run_fig5(
    scale: float = 1.0, quick: bool = False, names=None, direction: str = "push"
) -> ExperimentResult:
    tables = []
    for name in _suite_names(quick, names):
        A = PAPER_SUITE[name].build(scale)
        cores = [c for c in _scaling_cores(quick) if c >= 6]
        points = strong_scaling_rcm(
            A, cores, machine=_calibrated_machine(name, A), direction=direction
        )
        rows = []
        crossover = None
        for p in points:
            b = p.breakdown
            if crossover is None and b.spmspv_comm > b.spmspv_compute:
                crossover = p.cores
            rows.append([p.cores, b.spmspv_compute, b.spmspv_comm])
        title = f"[{name}]"
        if crossover is not None:
            title += f" comm overtakes compute at ~{crossover} cores"
        tables.append(
            ResultTable(["cores", "computation s", "communication s"], rows, title=title)
        )
    return experiment_result(
        "fig5",
        "Fig. 5 — SpMSpV computation vs communication split",
        tables,
        notes=[
            "Expected shape (paper): compute-bound at low concurrency; "
            "communication overtakes earlier for high-diameter matrices."
        ],
        params=_params(
            scale, quick, names,
            machine_scaling="edison().scaled(A.nnz / paper_nnz) per matrix",
            direction=direction,
        ),
        machine=edison(),
    )


# ----------------------------------------------------------------------
# Fig. 6 — flat MPI vs hybrid for ldoor
# ----------------------------------------------------------------------
def run_fig6(
    scale: float = 1.0, quick: bool = False, direction: str = "push"
) -> ExperimentResult:
    A = PAPER_SUITE["ldoor"].build(scale)
    # the full paper axis runs to 4096 cores: flat MPI at 4096 cores is
    # 4096 simulated ranks, which the rank-vectorized engine executes as
    # flat segment operations (one fused numpy pass per superstep, not a
    # Python loop per rank), so the whole sweep takes minutes — the old
    # per-rank driver capped this axis at 256
    cores = [1, 4, 16, 64] if quick else paper_core_counts(4096, small=True)
    machine = _calibrated_machine("ldoor", A)
    flat = strong_scaling_rcm(
        A, cores, threads_per_process=1, machine=machine, direction=direction
    )
    hybrid = strong_scaling_rcm(
        A, cores, threads_per_process=6, machine=machine, direction=direction
    )
    rows = []
    for f, h in zip(flat, hybrid):
        rows.append(
            [
                f.cores,
                f.total_seconds,
                h.total_seconds,
                f"{f.total_seconds / max(h.total_seconds, 1e-300):.1f}x",
            ]
        )
    return experiment_result(
        "fig6",
        "Fig. 6 — flat MPI vs hybrid (6 threads/process), ldoor surrogate",
        [ResultTable(["cores", "flat MPI s", "hybrid s", "flat/hybrid"], rows)],
        notes=[
            "Expected shape (paper): flat MPI degrades at high core counts "
            "(~5x slower at 4096 cores) because sqrt(p) grows 2.4x and the "
            "alltoall latency term grows with it."
        ],
        params=_params(
            scale, quick,
            machine_scaling="edison().scaled(A.nnz / paper_nnz) per matrix",
            direction=direction,
        ),
        machine=edison(),
    )


# ----------------------------------------------------------------------
# Section V.C — gather-to-root baseline
# ----------------------------------------------------------------------
def run_gather(scale: float = 1.0, quick: bool = False) -> ExperimentResult:
    name = "nlpkkt240"
    A = PAPER_SUITE[name].build(scale)
    cores = 64 if quick else 1024
    cfg = hybrid_configs_for_cores(cores, threads_per_process=6)
    machine = _calibrated_machine(name, A).with_threads(cfg.threads_per_process)
    ctx = DistContext(cfg.grid, machine)
    dA = DistSparseMatrix.from_csr(ctx, A)
    g = gather_then_rcm(dA)
    ctx2 = DistContext(cfg.grid, machine)
    dist = rcm_distributed(A, ctx=ctx2, random_permute=0)
    rows = [
        ["gather matrix to root", g.gather_seconds],
        ["shared-memory RCM at root", g.order_seconds],
        ["scatter permutation", g.scatter_seconds],
        ["gather pipeline total", g.total_seconds],
        ["distributed RCM total", dist.modeled_seconds],
        ["pipeline / distributed", g.total_seconds / max(dist.modeled_seconds, 1e-300)],
    ]

    # analytic check at the paper's own scale: shipping nlpkkt240's
    # structure (n = 78M, nnz = 760M) into one node on the unscaled
    # Edison machine -- the paper measured "over 9 seconds"
    from ..distributed.gather import matrix_wire_words

    paper = PAPER_SUITE[name].paper
    unscaled = edison()
    words = matrix_wire_words(paper.n, paper.nnz)
    engine_cost = unscaled.alpha * (1024 - 1) + unscaled.beta_node * words
    extra = ResultTable(
        ["quantity", "value"],
        [
            ["paper-scale gather volume (words)", words],
            ["modeled paper-scale gather seconds", engine_cost],
            ["paper-reported gather seconds", "over 9"],
            ["paper-reported ratio vs distributed RCM", "~3x"],
        ],
        title="Paper-scale analytic check (unscaled Edison constants):",
    )
    return experiment_result(
        "gather",
        f"Section V.C — gather baseline vs distributed RCM "
        f"({name} surrogate, {cores} cores)",
        [ResultTable(["phase", "seconds (surrogate scale)"], rows), extra],
        notes=[
            "Expected shape (paper): the gather step alone costs a multiple of "
            "distributed RCM at scale, and the whole gather pipeline loses; the "
            "paper-scale analytic line validates the machine model against the "
            "paper's measured 9 s."
        ],
        params=_params(
            scale, quick, cores=cores,
            machine_scaling="edison().scaled(A.nnz / paper_nnz) per matrix",
        ),
        machine=edison(),
    )


# ----------------------------------------------------------------------
# Ablations (DESIGN.md Section 5)
# ----------------------------------------------------------------------
def run_sort_ablation(
    scale: float = 1.0, quick: bool = False, names=None
) -> ExperimentResult:
    rows = []
    for name in _suite_names(quick, names):
        A = PAPER_SUITE[name].build(scale)
        cores = 54 if quick else 216
        cfg = hybrid_configs_for_cores(cores, 6)
        machine = _calibrated_machine(name, A).with_threads(cfg.threads_per_process)
        res_b = rcm_distributed(
            A, ctx=DistContext(cfg.grid, machine), random_permute=0, sort_impl="bucket"
        )
        res_s = rcm_distributed(
            A, ctx=DistContext(cfg.grid, machine), random_permute=0, sort_impl="sample"
        )
        res_n = rcm_distributed(
            A, ctx=DistContext(cfg.grid, machine), random_permute=0, sort_impl="none"
        )
        same = bool(np.array_equal(res_b.ordering.perm, res_s.ordering.perm))
        tb = res_b.ledger.prefix("ordering:sort").total_seconds
        ts = res_s.ledger.prefix("ordering:sort").total_seconds
        tn = res_n.ledger.prefix("ordering:sort").total_seconds
        bw_sorted = bandwidth_of_permutation(A, res_b.ordering.perm)
        bw_nosort = bandwidth_of_permutation(A, res_n.ordering.perm)
        rows.append(
            [name, tb, ts, f"{ts / max(tb, 1e-300):.2f}x", same, tn, bw_sorted, bw_nosort]
        )
    return experiment_result(
        "sort-ablation",
        "Ablation — SORTPERM implementations: specialized bucket sort vs "
        "general samplesort vs no sorting (paper Section IV.B + future work)",
        [
            ResultTable(
                [
                    "matrix",
                    "bucket s",
                    "samplesort s",
                    "sample/bucket",
                    "same ordering",
                    "no-sort s",
                    "bw sorted",
                    "bw no-sort",
                ],
                rows,
            )
        ],
        notes=[
            "Expected shape (paper Section IV.B): the specialized bucket sort "
            "beats general sorting; orderings are identical.  The no-sort "
            "variant (paper future work) is cheaper still but gives up some "
            "bandwidth quality."
        ],
        params=_params(
            scale, quick, names,
            machine_scaling="edison().scaled(A.nnz / paper_nnz) per matrix",
        ),
        machine=edison(),
    )


def run_csc_ablation(
    scale: float = 1.0, quick: bool = False, names=None
) -> ExperimentResult:
    """CSC vs CSR SpMSpV kernels: measured wall time on real frontiers."""
    from ..semiring.semiring import SELECT2ND_MIN
    from ..semiring.spmspv import spmspv_csc, spmspv_csr
    from ..sparse.csc import CSCMatrix

    rows = []
    for name in _suite_names(quick, names):
        A = PAPER_SUITE[name].build(scale)
        Ac = CSCMatrix(A.nrows, A.ncols, A.indptr, A.indices, A.data)
        t_csc = t_csr = 0.0
        for x in bfs_frontiers(A):
            t0 = time.perf_counter()
            y1 = spmspv_csc(Ac, x, SELECT2ND_MIN)
            t1 = time.perf_counter()
            y2 = spmspv_csr(A, x, SELECT2ND_MIN)
            t2 = time.perf_counter()
            t_csc += t1 - t0
            t_csr += t2 - t1
            assert y1 == y2
        rows.append([name, t_csc, t_csr, f"{t_csr / max(t_csc, 1e-300):.2f}x"])
    return experiment_result(
        "csc-ablation",
        "Ablation — CSC vs CSR local SpMSpV kernel (measured wall time)",
        [ResultTable(["matrix", "CSC s", "CSR s", "CSR/CSC"], rows)],
        notes=[
            "Expected shape (paper Section IV.A): CSC wins for very sparse "
            "frontiers because it touches only the frontier's columns."
        ],
        params=_params(scale, quick, names),
    )


def best_of(repeats: int, fn, *args, **kwargs):
    """Minimum wall time over ``repeats`` calls; ``(seconds, result)``.

    The one timing protocol every kernel measurement shares (ablation
    experiments and the BENCH snapshot), so they cannot drift apart.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bfs_frontiers(A):
    """The real frontier vectors of a full BFS from vertex 0."""
    from ..core.bfs import bfs_levels, level_sets
    from ..sparse.spvector import SparseVector

    levels, _ = bfs_levels(A, 0)
    return [
        SparseVector(A.nrows, f, f.astype(np.float64)) for f in level_sets(levels)
    ]


def measure_spmspv_csc(A, repeats: int = 1) -> float:
    """Best-of-``repeats`` CSC SpMSpV wall time over one full BFS's
    frontiers.

    Shared by the backend-ablation experiment and the BENCH snapshot so
    both always measure the same thing.
    """
    from ..semiring.semiring import SELECT2ND_MIN
    from ..semiring.spmspv import spmspv_csc
    from ..sparse.csc import CSCMatrix

    Ac = CSCMatrix(A.nrows, A.ncols, A.indptr, A.indices, A.data)
    frontiers = bfs_frontiers(A)
    seconds, _ = best_of(repeats, lambda: [spmspv_csc(Ac, x, SELECT2ND_MIN) for x in frontiers])
    return seconds


def measure_finder_batching(A, starts, repeats: int = 1):
    """Best-of-``repeats`` looped-vs-batched pseudo-peripheral timing.

    The looped baseline is the independent one-root-at-a-time
    implementation.  The batched side forces
    ``heuristic=False`` — this function measures batching itself, so the
    frontier-density fallback must not silently route dense graphs back
    to the scalar loop it is being compared against.  Returns
    ``(looped_seconds, batched_seconds, identical)``.
    """
    from ..core.bfs_multi import find_pseudo_peripheral_multi
    from ..core.pseudo_peripheral import find_pseudo_peripheral

    starts = np.asarray(starts, dtype=np.int64)
    looped_s, looped = best_of(
        repeats,
        lambda: [find_pseudo_peripheral(A, int(s)) for s in starts],
    )
    batched_s, batched = best_of(
        repeats,
        lambda: find_pseudo_peripheral_multi(A, starts, heuristic=False),
    )
    identical = all(
        (a.vertex, a.nlevels, a.bfs_count) == (b.vertex, b.nlevels, b.bfs_count)
        for a, b in zip(looped, batched)
    )
    return looped_s, batched_s, identical


def measure_driver_overhead(
    A,
    rank_counts,
    *,
    machine: MachineParams | None = None,
    baseline_max_ranks: int = 256,
):
    """Wall-clock of the rank-vectorized driver vs the per-rank baseline.

    Runs flat-MPI distributed RCM (one rank per core) once per entry of
    ``rank_counts`` on the default rank-vectorized engine and once on
    the per-rank reference driver (``rank_vectorized=False`` — the
    pre-vectorization oracle), asserting identical orderings.  The
    baseline is skipped above ``baseline_max_ranks`` (its per-rank
    Python loops make thousands of ranks take hours — the reason the
    old Fig. 6 axis stopped at 256 cores).

    Returns a list of dicts, one per rank count, with total driver
    seconds, driver milliseconds per SpMSpV superstep, and the
    baseline/vectorized speedup where both sides ran.  Shared by the
    ``driver-overhead`` experiment and the BENCH snapshot so both
    always measure the same thing.
    """
    m = (machine or edison()).with_threads(1)
    rows = []
    ref_perm = None
    for p in rank_counts:
        grid = ProcessGrid.square(p)
        t0 = time.perf_counter()
        vec = rcm_distributed(A, ctx=DistContext(grid, m), random_permute=0)
        vec_s = time.perf_counter() - t0
        if ref_perm is None:
            ref_perm = vec.ordering.perm
        elif not np.array_equal(vec.ordering.perm, ref_perm):
            raise AssertionError(f"ordering changed at {p} ranks")
        supersteps = max(vec.spmspv_calls, 1)
        base_s = None
        if p <= baseline_max_ranks:
            t0 = time.perf_counter()
            base = rcm_distributed(
                A,
                ctx=DistContext(grid, m, rank_vectorized=False),
                random_permute=0,
            )
            base_s = time.perf_counter() - t0
            if not np.array_equal(base.ordering.perm, vec.ordering.perm):
                raise AssertionError(f"per-rank oracle diverged at {p} ranks")
        rows.append(
            {
                "ranks": int(p),
                "supersteps": int(vec.spmspv_calls),
                "vectorized_seconds": vec_s,
                "vectorized_ms_per_superstep": 1e3 * vec_s / supersteps,
                "baseline_seconds": base_s,
                "baseline_ms_per_superstep": (
                    1e3 * base_s / supersteps if base_s is not None else None
                ),
                "speedup": (
                    base_s / max(vec_s, 1e-300) if base_s is not None else None
                ),
            }
        )
    return rows


#: Dense-frontier graphs the direction experiment adds to the suite
#: names: social-style synthetic inputs whose BFS frontiers saturate in
#: 3-5 levels — the regime direction optimization targets.
def _direction_extra_graphs(scale: float, quick: bool) -> dict:
    from ..matrices.random_graphs import erdos_renyi, rmat

    er_n = int(24000 * scale) if quick else int(48000 * scale)
    return {
        "er-social": erdos_renyi(max(er_n, 64), 32.0, seed=11),
        "rmat": rmat(14 if quick else 15, edge_factor=8, seed=7),
    }


def measure_direction_serial(A, repeats: int = 1):
    """Best-of-``repeats`` serial BFS wall time per direction mode.

    Runs :func:`repro.core.bfs.bfs_levels` from vertex 0 under forced
    push, forced pull, and the adaptive switch, asserting bit-identical
    levels.  Returns ``(seconds_by_mode, identical)``.  Shared by the
    ``direction`` experiment and the BENCH snapshot so both always
    measure the same thing.
    """
    from ..core.bfs import bfs_levels

    seconds: dict[str, float] = {}
    outputs = {}
    for mode in ("push", "pull", "adaptive"):
        seconds[mode], outputs[mode] = best_of(
            repeats, bfs_levels, A, 0, direction=mode
        )
    identical = all(
        np.array_equal(outputs[m][0], outputs["push"][0])
        and outputs[m][1] == outputs["push"][1]
        for m in ("pull", "adaptive")
    )
    return seconds, identical


def measure_direction_dist(A, cores: int, *, machine: MachineParams | None = None):
    """Distributed RCM with the direction switch off vs on (flat MPI).

    Runs ``rcm_distributed`` once with ``direction="push"`` (the paper's
    original supersteps) and once with ``direction="adaptive"``,
    asserting bit-identical orderings, and reports modeled seconds, wall
    seconds and wall milliseconds per SpMSpV superstep for both.  Shared
    by the ``direction`` experiment and the BENCH snapshot.
    """
    m = (machine or edison()).with_threads(1)
    grid = ProcessGrid.square(cores)
    rows = {}
    perms = {}
    for mode in ("push", "adaptive"):
        t0 = time.perf_counter()
        res = rcm_distributed(
            A, ctx=DistContext(grid, m), random_permute=0, direction=mode
        )
        wall = time.perf_counter() - t0
        perms[mode] = res.ordering.perm
        rows[mode] = {
            "modeled_seconds": res.modeled_seconds,
            "wall_seconds": wall,
            "supersteps": res.spmspv_calls,
            "ms_per_superstep": 1e3 * wall / max(res.spmspv_calls, 1),
        }
    if not np.array_equal(perms["push"], perms["adaptive"]):
        raise AssertionError("direction-optimized ordering diverged from push")
    return rows


def run_direction(
    scale: float = 1.0, quick: bool = False, names=None
) -> ExperimentResult:
    """Direction-optimization experiment: push vs pull vs adaptive BFS.

    Serial side: measured BFS wall time per direction on the suite
    matrices plus two dense social-style graphs (ER, RMAT) — the
    Beamer-style win shows on the dense-frontier inputs and the adaptive
    switch must never lose badly on the meshes.  Distributed side:
    modeled and wall cost of distributed RCM with the switch off vs on,
    orderings asserted bit-identical.
    """
    serial_rows = []
    inputs = {
        name: PAPER_SUITE[name].build(scale) for name in _suite_names(quick, names)
    }
    inputs.update(_direction_extra_graphs(scale, quick))
    for name, A in inputs.items():
        seconds, identical = measure_direction_serial(A)
        serial_rows.append(
            [
                name,
                A.nrows,
                A.nnz,
                seconds["push"],
                seconds["pull"],
                seconds["adaptive"],
                f"{seconds['push'] / max(seconds['adaptive'], 1e-300):.2f}x",
                identical,
            ]
        )
    serial_table = ResultTable(
        [
            "matrix",
            "n",
            "nnz",
            "push s",
            "pull s",
            "adaptive s",
            "push/adaptive",
            "identical",
        ],
        serial_rows,
        title="Serial BFS wall time by direction (vertex 0):",
    )

    dist_rows = []
    cores = 16 if quick else 64
    # one dense-frontier + one mesh matrix by default; an explicit
    # --matrices restriction overrides both (like every suite experiment)
    dist_names = (
        [n for n in names if n in PAPER_SUITE] if names else ["li7nmax6", "ldoor"]
    )
    for name in dist_names:
        A = PAPER_SUITE[name].build(scale)
        rows = measure_direction_dist(
            A, cores, machine=_calibrated_machine(name, A)
        )
        for mode in ("push", "adaptive"):
            r = rows[mode]
            dist_rows.append(
                [
                    name,
                    mode,
                    r["supersteps"],
                    r["modeled_seconds"],
                    r["wall_seconds"],
                    f"{r['ms_per_superstep']:.2f}",
                ]
            )
    dist_table = ResultTable(
        ["matrix", "direction", "supersteps", "modeled s", "wall s", "ms/superstep"],
        dist_rows,
        title=f"Distributed RCM, switch off vs on ({cores} ranks, flat MPI):",
    )
    return experiment_result(
        "direction",
        "Direction optimization — push vs pull vs adaptive BFS "
        "(Beamer-style switch; results bit-identical by contract)",
        [serial_table, dist_table],
        notes=[
            "Expected shape: on dense-frontier inputs (li7nmax6, er-social, "
            "rmat) the adaptive switch beats forced push because the middle "
            "levels scan the few unvisited rows instead of the huge frontier; "
            "on high-diameter meshes every frontier is sparse, the switch "
            "stays in push, and adaptive tracks push to bookkeeping noise.  "
            "Forced pull loses on meshes (it scans all unvisited rows every "
            "level) — that asymmetry is WHY the switch is adaptive.  Levels "
            "and distributed orderings are asserted identical across modes."
        ],
        params=_params(scale, quick, names, dist_cores=cores),
        machine=edison(),
    )


def run_driver_overhead(
    scale: float = 1.0, quick: bool = False, names=None
) -> ExperimentResult:
    """Driver-overhead experiment: seconds of *Python* per superstep.

    The modeled machine charges the same ledger either way; what this
    experiment measures is the simulation driver itself — the wall-clock
    cost of executing one bulk-synchronous superstep over ``p`` simulated
    ranks, per-rank loops (the pre-PR3 baseline) vs the rank-vectorized
    flat-SoA engine.  This is the optimization that extends ``fig6`` to
    the paper's full 4096-core axis.
    """
    name = names[0] if names else "ldoor"
    A = PAPER_SUITE[name].build(scale)
    ranks = [16, 64] if quick else [16, 64, 256, 1024, 4096]
    baseline_cap = 64 if quick else 256
    rows = measure_driver_overhead(
        A, ranks, machine=_calibrated_machine(name, A), baseline_max_ranks=baseline_cap
    )
    table_rows = []
    for r in rows:
        table_rows.append(
            [
                r["ranks"],
                r["supersteps"],
                r["vectorized_seconds"],
                f"{r['vectorized_ms_per_superstep']:.2f}",
                "skipped" if r["baseline_seconds"] is None else r["baseline_seconds"],
                "-" if r["speedup"] is None else f"{r['speedup']:.1f}x",
            ]
        )
    return experiment_result(
        "driver-overhead",
        f"Driver overhead — rank-vectorized vs per-rank simulation driver "
        f"({name} surrogate, flat MPI, wall-clock)",
        [
            ResultTable(
                [
                    "ranks",
                    "supersteps",
                    "vectorized s",
                    "vec ms/superstep",
                    "per-rank baseline s",
                    "speedup",
                ],
                table_rows,
            )
        ],
        notes=[
            "Expected shape: the per-rank baseline grows linearly with the rank "
            "count (a Python loop iteration per rank per superstep) while the "
            "rank-vectorized driver stays near-flat, so the speedup grows with "
            "p (>=5x from 256 ranks; the baseline is skipped beyond "
            f"{baseline_cap} ranks where it would take hours).  Orderings are "
            "asserted bit-identical between the two drivers at every point."
        ],
        params=_params(
            scale, quick, names, baseline_max_ranks=baseline_cap,
            machine_scaling="edison().scaled(A.nnz / paper_nnz) per matrix",
        ),
        machine=edison(),
    )


def run_backend_ablation(
    scale: float = 1.0, quick: bool = False, names=None
) -> ExperimentResult:
    """Kernel ablation: CSC SpMSpV, looped vs batched pseudo-peripheral
    finder."""
    from ..core.bfs_multi import batching_decision

    kernel_rows = []
    finder_rows = []
    n_starts = 4 if quick else 8
    for name in _suite_names(quick, names):
        A = PAPER_SUITE[name].build(scale)
        kernel_rows.append([name, measure_spmspv_csc(A)])

        rng = np.random.default_rng(7)
        starts = rng.choice(A.nrows, min(n_starts, A.nrows), replace=False).astype(
            np.int64
        )
        looped_s, batched_s, identical = measure_finder_batching(A, starts)
        decision = batching_decision(A, int(starts[0]))
        finder_rows.append(
            [
                name,
                starts.size,
                looped_s,
                batched_s,
                f"{looped_s / max(batched_s, 1e-300):.2f}x",
                identical,
                decision.describe(),
            ]
        )
    kernel_table = ResultTable(
        ["matrix", "SpMSpV s"],
        kernel_rows,
        title="SpMSpV (CSC) over one full BFS's frontiers:",
    )
    finder_table = ResultTable(
        ["matrix", "starts", "looped s", "batched s", "speedup", "identical", "heuristic"],
        finder_rows,
        title="Pseudo-peripheral finder, looped vs batched lockstep:",
    )
    return experiment_result(
        "backend-ablation",
        "Ablation — CSC SpMSpV kernel and batched multi-source BFS",
        [kernel_table, finder_table],
        notes=[
            "Expected shape: the batched finder returns identical vertices "
            "to the looped one; it amortizes per-level sweep overhead across "
            "starts, so its win grows with pseudo-diameter and can dip below "
            "1x on dense low-diameter graphs.  The 'heuristic' column records "
            "the frontier-density fallback's decision (default production "
            "routing): batches on dense or shallow graphs run the scalar "
            "loop instead."
        ],
        params=_params(scale, quick, names),
    )


def run_balance_ablation(
    scale: float = 1.0, quick: bool = False, names=None
) -> ExperimentResult:
    """Random input permutation on/off: 2D block load balance."""
    from ..sparse.permute import random_symmetric_permutation

    rows = []
    for name in _suite_names(quick, names):
        A = PAPER_SUITE[name].build(scale)
        cores = 54 if quick else 216
        cfg = hybrid_configs_for_cores(cores, 6)
        ctx = DistContext(cfg.grid, edison().with_threads(cfg.threads_per_process))
        imb_nat = DistSparseMatrix.from_csr(ctx, A).load_imbalance()
        Ap, _ = random_symmetric_permutation(A, 0)
        imb_rand = DistSparseMatrix.from_csr(ctx, Ap).load_imbalance()
        rows.append([name, f"{imb_nat:.2f}", f"{imb_rand:.2f}"])
    return experiment_result(
        "balance-ablation",
        "Ablation — random symmetric permutation for load balance "
        "(max/mean nnz per rank; 1.0 = perfect)",
        [ResultTable(["matrix", "natural order", "random permuted"], rows)],
        notes=[
            "Expected shape (paper Section IV.A): banded/natural orders "
            "concentrate nnz near the diagonal blocks; random permutation "
            "flattens the imbalance toward 1."
        ],
        params=_params(scale, quick, names),
        machine=edison(),
    )


def run_semiring_ablation(
    scale: float = 1.0, quick: bool = False, names=None
) -> ExperimentResult:
    """(select2nd, min) vs (select2nd, max): determinism/quality effect."""
    from ..core.rcm_algebraic import rcm_algebraic
    from ..semiring.semiring import SELECT2ND_MAX

    rows = []
    for name in _suite_names(quick, names):
        A = PAPER_SUITE[name].build(scale)
        o_min = rcm_serial(A)
        o_max = rcm_algebraic(A, sr=SELECT2ND_MAX)
        rows.append(
            [
                name,
                bandwidth_of_permutation(A, o_min.perm),
                bandwidth_of_permutation(A, o_max.perm),
            ]
        )
    return experiment_result(
        "semiring-ablation",
        "Ablation — parent-selection semiring: (select2nd, min) vs "
        "(select2nd, max) bandwidth",
        [ResultTable(["matrix", "bw (min parent)", "bw (max parent)"], rows)],
        notes=[
            "The min-parent rule is the paper's deterministic choice; other "
            "rules give valid but usually slightly different/worse orderings "
            "(relevant to the paper's 'not sorting at all' future work)."
        ],
        params=_params(scale, quick, names),
    )


def run_quality(scale: float = 1.0, quick: bool = False, names=None) -> ExperimentResult:
    """Extension — ordering-quality comparison across all baselines."""
    from ..baselines.gps import gps_ordering
    from ..baselines.scipy_rcm import scipy_rcm
    from ..baselines.sloan import sloan_ordering
    from ..core.metrics import profile_of_permutation
    from ..core.rcm_algebraic import rcm_algebraic

    rows = []
    for name in _suite_names(quick, names):
        A = PAPER_SUITE[name].build(scale)
        candidates = {
            "natural": natural_ordering(A).perm,
            "RCM (ours)": rcm_serial(A).perm,
            "RCM (scipy)": scipy_rcm(A).perm,
            "SpMP-like": spmp_rcm(A).ordering.perm,
            "no-sort": rcm_algebraic(A, sorted_levels=False).perm,
            "Sloan": sloan_ordering(A).perm,
            "GPS": gps_ordering(A).perm,
        }
        for label, perm in candidates.items():
            rows.append(
                [
                    name,
                    label,
                    bandwidth_of_permutation(A, perm),
                    profile_of_permutation(A, perm),
                ]
            )
    return experiment_result(
        "quality",
        "Extension — bandwidth/profile across ordering algorithms",
        [ResultTable(["matrix", "algorithm", "bandwidth", "profile"], rows)],
        notes=[
            "Expected shape: all RCM variants land close together; Sloan/GPS "
            "are competitive on profile; natural order is far worse on the "
            "scrambled matrices and unbeatable on the pre-banded ones."
        ],
        params=_params(scale, quick, names),
    )


def run_calibration(
    scale: float = 1.0,
    quick: bool = False,
    names=None,
    engine: str = "processes",
    procs: int | None = None,
) -> ExperimentResult:
    """Modeled-vs-measured calibration of the machine model (processes engine).

    Runs distributed RCM twice per suite matrix — once on the simulated
    engine (the oracle), once on ``procs`` real worker processes — then:

    * **enforces** that the orderings are bit-identical (any mismatch
      raises, it is the engine contract, not a soft expectation);
    * reports, per Fig. 4 phase, the Edison-modeled seconds next to the
      wall-clock the worker pool actually took, and their ratio.

    See EXPERIMENTS.md ("Calibration") for how to read the ratios.
    """
    from ..runtime.calibration import calibration_rows

    if engine not in ("simulated", "processes"):
        raise ValueError(f"unknown engine {engine!r}")
    nworkers = procs if procs is not None else 4
    grid = ProcessGrid.fitting(nworkers)
    machine = edison()
    headers = ["phase", "modeled s", "measured s", "measured/modeled"]
    tables = []
    # one pool for the whole sweep: per-matrix forking would both waste
    # startup time and bill cold-worker effects to the first supersteps
    # (rcm_distributed frees each matrix's worker-resident blocks itself)
    pool = None
    if engine == "processes":
        from ..runtime.pool import WorkerPool

        pool = WorkerPool(nworkers)
        pool.ping()  # warm the dispatch path before anything is measured
    try:
        for name in _suite_names(quick, names):
            A = PAPER_SUITE[name].build(scale)
            sim = rcm_distributed(A, ctx=DistContext(grid, machine), random_permute=0)
            if engine == "simulated":
                tables.append(
                    ResultTable(
                        headers,
                        calibration_rows(sim.ledger, sim.ctx.measured),
                        title=f"[{name}] simulated engine only (no measurements):",
                    )
                )
                continue
            pctx = DistContext(grid, machine, engine="processes", pool=pool)
            res = rcm_distributed(A, ctx=pctx, random_permute=0)
            if not np.array_equal(res.ordering.perm, sim.ordering.perm):
                raise AssertionError(
                    f"[{name}] processes engine diverged from the simulated oracle"
                )
            tables.append(
                ResultTable(
                    headers,
                    calibration_rows(res.ledger, pctx.measured),
                    title=(
                        f"[{name}] n={A.nrows} nnz={A.nnz} — ordering bit-identical "
                        "to simulated engine: True (enforced)"
                    ),
                )
            )
    finally:
        if pool is not None:
            pool.close()
    return experiment_result(
        "calibration",
        f"Calibration — modeled (Edison constants) vs measured wall-clock, "
        f"{grid.pr}x{grid.pc} grid on {nworkers} worker processes",
        tables,
        notes=[
            "Reading the table: a flat measured/modeled ratio across phases would "
            "mean the alpha-beta-gamma model has the right *shape* for this "
            "runtime; divergent ratios localize where the runtime and the model "
            "disagree.  Expected shape at surrogate scale: the allreduce-bound "
            "'other' phases track the model closest (a pipe round trip stands in "
            "for alpha), 'sort' next, while the SpMSpV phases inflate the most — "
            "each SpMSpV is several supersteps whose dispatch/staging floor "
            "(the ':host' rows) has no counterpart in the model.  The gap closes "
            "as matrices grow and per-superstep work amortizes the floor; see "
            "EXPERIMENTS.md, 'Calibration'."
        ],
        params=_params(scale, quick, names, engine=engine, procs=nworkers),
        machine=machine,
    )


# ----------------------------------------------------------------------
# Ingestion — streamed sharded construction vs the monolithic path
# ----------------------------------------------------------------------
#: Child process of one ingest measurement.  A subprocess (not a fork)
#: so ``resource.getrusage`` high-water marks start from a clean
#: interpreter: ru_maxrss never decreases, so measuring both paths in
#: one process would let the first path's peak mask the second's.
_INGEST_CHILD = """
import json, resource, sys, time

spec, mode, pr, pc, scale = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), float(sys.argv[5])
)
from repro.distributed.context import DistContext
from repro.distributed.distmatrix import DistSparseMatrix
from repro.machine.grid import ProcessGrid
from repro.machine.params import MachineParams
from repro.matrices.zoo import resolve_matrix

name, stream, entry = resolve_matrix(spec, scale=scale)
ctx = DistContext(ProcessGrid(pr, pc), MachineParams(threads_per_process=1))
kb = 1024 * 1024 if sys.platform == "darwin" else 1024  # ru_maxrss unit -> MB
base_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb
t0 = time.perf_counter()
if mode == "streamed":
    M = DistSparseMatrix.from_stream(ctx, stream, spill=True)
elif mode == "monolithic":
    if entry is not None:
        A = entry.build()
    else:
        from repro.matrices.suite import PAPER_SUITE

        A = PAPER_SUITE[name].build(scale)
    M = DistSparseMatrix.from_csr(ctx, A)
else:
    raise ValueError(f"unknown ingest mode {mode!r}")
seconds = time.perf_counter() - t0
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb - base_mb
json.dump(
    {
        "name": name,
        "mode": mode,
        "seconds": seconds,
        "peak_rss_mb": peak_mb,
        "n": M.n,
        "nnz": M.nnz,
        "per_block_nnz": M.local_nnz(),
    },
    sys.stdout,
)
"""


def measure_ingest(
    matrix: str = "zoo:rmat18",
    grid: tuple[int, int] = (2, 2),
    scale: float = 1.0,
    modes: tuple[str, ...] = ("streamed", "monolithic"),
) -> dict[str, dict]:
    """Construction wall time + peak-RSS delta per ingest mode.

    Each mode runs in its own subprocess (see ``_INGEST_CHILD``); the
    returned dicts carry ``seconds``, ``peak_rss_mb`` (high-water RSS
    minus the post-import baseline), and ``per_block_nnz``.  When both
    modes run, their per-block nnz are **enforced** identical — a
    memory number for a wrong matrix is worthless.
    """
    import json
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    results: dict[str, dict] = {}
    for mode in modes:
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _INGEST_CHILD,
                matrix,
                mode,
                str(grid[0]),
                str(grid[1]),
                repr(float(scale)),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"ingest child ({matrix}, {mode}) failed:\n{proc.stderr}"
            )
        results[mode] = json.loads(proc.stdout)
    if "streamed" in results and "monolithic" in results:
        if (
            results["streamed"]["per_block_nnz"]
            != results["monolithic"]["per_block_nnz"]
        ):
            raise AssertionError(
                f"streamed ingest of {matrix} diverged from the monolithic "
                "path (per-block nnz mismatch)"
            )
    return results


def run_ingest(
    scale: float = 1.0,
    quick: bool = False,
    matrix: str | None = None,
) -> ExperimentResult:
    """Streamed sharded ingestion vs the monolithic construction path.

    Builds the same distributed matrix twice — ``from_stream`` over the
    chunked generator with spill-to-disk shards, and ``from_csr`` over
    the monolithically assembled CSR — in separate subprocesses, and
    reports wall seconds and peak-RSS-above-baseline for each.
    Per-block nnz equality between the two paths is enforced.
    """
    spec = matrix or ("zoo:rmat16" if quick else "zoo:rmat18")
    grid = (2, 2)
    results = measure_ingest(spec, grid=grid, scale=scale)
    s, m = results["streamed"], results["monolithic"]
    rows = [
        ["streamed", s["seconds"], s["peak_rss_mb"], s["nnz"]],
        ["monolithic", m["seconds"], m["peak_rss_mb"], m["nnz"]],
        [
            "streamed/monolithic",
            s["seconds"] / max(m["seconds"], 1e-300),
            s["peak_rss_mb"] / max(m["peak_rss_mb"], 1e-300),
            "",
        ],
    ]
    return experiment_result(
        "ingest",
        f"Ingestion — streamed sharded vs monolithic construction "
        f"({spec}, n={s['n']:,}, {grid[0]}x{grid[1]} grid; per-block nnz "
        "bit-identical, enforced)",
        [ResultTable(["path", "seconds", "peak RSS above baseline (MB)", "nnz"], rows)],
        notes=[
            "Expected shape: the streamed path's construction peak RSS sits "
            "below 0.5x the monolithic path's — the monolithic pipeline holds "
            "the edge list, the COO expansion, the global CSR, and the "
            "partition scatter simultaneously, while from_stream holds one "
            "chunk plus memmap shard buffers plus one block under "
            "compression.  Streamed wall time may be moderately higher "
            "(shard I/O); the memory headroom is what opens scale 20+ zoo "
            "entries on a laptop.  RSS is measured per subprocess as the "
            "getrusage high-water mark minus the post-import baseline."
        ],
        params=_params(scale, quick, matrix=spec, grid=list(grid)),
    )


def run_skyline(scale: float = 1.0, quick: bool = False) -> ExperimentResult:
    """Extension — envelope Cholesky storage/flops under each ordering.

    Reproduces the paper's *motivating* claim (Introduction: profile
    reduction enables the simple skyline data structure in direct
    methods) with a real envelope factorization.
    """
    from ..baselines.sloan import sloan_ordering
    from ..matrices.stencil import stencil_2d
    from ..solvers.skyline import SkylineCholesky
    from ..solvers.solve_model import laplacian_like_values
    from ..sparse.permute import permute_symmetric, random_symmetric_permutation

    side = int(18 * scale) if quick else int(24 * scale)
    A, _ = random_symmetric_permutation(stencil_2d(side, side), seed=11)
    orderings = {
        "scrambled input": np.arange(A.nrows, dtype=np.int64),
        "RCM": rcm_serial(A).perm,
        "Sloan": sloan_ordering(A).perm,
    }
    rows = []
    for label, perm in orderings.items():
        spd = laplacian_like_values(permute_symmetric(A, perm))
        chol = SkylineCholesky(spd)
        rows.append([label, chol.storage, chol.flops])
    return experiment_result(
        "skyline",
        f"Extension — envelope (skyline) Cholesky cost by ordering "
        f"(scrambled {side}x{side} mesh Laplacian)",
        [ResultTable(["ordering", "factor storage", "factor flops"], rows)],
        notes=[
            "Expected shape (paper Introduction): profile reduction collapses "
            "skyline storage and factorization work by orders of magnitude."
        ],
        params=_params(scale, quick),
    )


# ----------------------------------------------------------------------
# Service — the async reordering server under concurrent load
# ----------------------------------------------------------------------
def measure_service(
    workers: int = 2,
    submissions: int = 64,
    unique: int = 8,
    scale: float = 1.0,
) -> dict:
    """Throughput/latency/hit-rate of the reordering service under load.

    Starts a fresh service (:mod:`repro.service`) on ``workers`` warmed
    workers, fires ``submissions`` *concurrent* spec-string requests
    cycling over ``unique`` suite matrices (so the duplicate ratio is
    ``(submissions - unique) / submissions`` by construction), then
    resubmits each unique spec against the warm cache.  Every duplicate
    must be served by single-flight coalescing or the cache — the
    measured first-wave hit rate is **enforced** equal to the duplicate
    ratio — and every warm resubmission must be a cache hit.
    """
    import asyncio

    from ..service import ReorderingService, ServiceConfig

    if unique < 1 or unique > len(PAPER_SUITE):
        raise ValueError(f"unique must be in 1..{len(PAPER_SUITE)}, got {unique}")
    specs = list(PAPER_SUITE)[:unique]
    workload = [specs[i % unique] for i in range(submissions)]

    async def drive() -> dict:
        config = ServiceConfig(
            workers=workers,
            max_pending=max(submissions, 1),
            cache_capacity=max(2 * unique, 8),
            scale=scale,
        )
        async with ReorderingService(config) as svc:
            t0 = time.perf_counter()
            results = await asyncio.gather(*(svc.submit(s) for s in workload))
            wall = time.perf_counter() - t0
            first_wave = svc.stats.to_dict()
            hits = await asyncio.gather(*(svc.submit(s) for s in specs))
            stats = svc.stats.to_dict()
        if not all(h.cache_hit for h in hits):
            raise AssertionError("warm resubmission missed the result cache")
        served = first_wave["cache_hits"] + first_wave["coalesced"]
        hit_rate = served / first_wave["submitted"]
        duplicate_ratio = (submissions - unique) / submissions
        if first_wave["rejected"] or abs(hit_rate - duplicate_ratio) > 1e-12:
            raise AssertionError(
                f"dedup hit rate {hit_rate:.4f} != duplicate ratio "
                f"{duplicate_ratio:.4f} (rejected={first_wave['rejected']})"
            )
        latencies = sorted(r.latency_ms for r in results)
        return {
            "workers": workers,
            "submissions": submissions,
            "unique": unique,
            "wall_seconds": wall,
            "throughput_rps": submissions / max(wall, 1e-300),
            "latency_ms_mean": sum(latencies) / len(latencies),
            "latency_ms_p50": latencies[len(latencies) // 2],
            "latency_ms_max": latencies[-1],
            "cache_hit_latency_ms": sum(h.latency_ms for h in hits) / len(hits),
            "hit_rate": hit_rate,
            "duplicate_ratio": duplicate_ratio,
            "cost_seconds": stats["cost_seconds"],
            "stats": stats,
        }

    return asyncio.run(drive())


def measure_disk_cache(
    workers: int = 2, unique: int = 4, scale: float = 1.0
) -> dict:
    """Persistent-tier recovery: populate, restart, serve all from disk.

    Phase 1 computes ``unique`` suite orderings on a service with the
    disk tier enabled and stops it (results persisted).  Phase 2 starts
    a *fresh* service on the same directory and resubmits every spec:
    each must be a verified disk hit (``disk_hits == unique``,
    ``computed == 0`` — enforced).  ``recovery_seconds`` is the full
    phase-2 wall including the service restart — the "warm state
    survives a process death" number — and ``hit_latency_ms`` the mean
    per-request disk-hit latency (read + checksum verify + unpickle).
    """
    import asyncio
    import shutil
    import tempfile

    from ..service import ReorderingService, ServiceConfig

    if unique < 1 or unique > len(PAPER_SUITE):
        raise ValueError(f"unique must be in 1..{len(PAPER_SUITE)}, got {unique}")
    specs = list(PAPER_SUITE)[:unique]
    root = tempfile.mkdtemp(prefix="repro-bench-disk-cache-")

    def config() -> ServiceConfig:
        return ServiceConfig(
            workers=workers,
            cache_capacity=max(2 * unique, 8),
            disk_cache_dir=root,
            scale=scale,
        )

    async def populate() -> float:
        t0 = time.perf_counter()
        async with ReorderingService(config()) as svc:
            for spec in specs:
                await svc.submit(spec)
        return time.perf_counter() - t0

    async def recover() -> tuple[float, float, dict]:
        t0 = time.perf_counter()
        async with ReorderingService(config()) as svc:
            latencies = []
            for spec in specs:
                r = await svc.submit(spec)
                latencies.append(r.latency_ms)
            stats = svc.stats.to_dict()
            disk = svc.disk.stats()
        recovery = time.perf_counter() - t0
        if stats["disk_hits"] != unique or stats["computed"] != 0:
            raise AssertionError(
                f"restart must serve everything from disk: disk_hits="
                f"{stats['disk_hits']}, computed={stats['computed']} "
                f"(expected {unique}, 0)"
            )
        if disk["corrupt"]:
            raise AssertionError(f"disk entries failed verification: {disk}")
        return recovery, sum(latencies) / len(latencies), disk

    try:
        compute_seconds = asyncio.run(populate())
        recovery_seconds, hit_latency_ms, disk = asyncio.run(recover())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "workers": workers,
        "unique": unique,
        "compute_seconds": compute_seconds,
        "recovery_seconds": recovery_seconds,
        "hit_latency_ms": hit_latency_ms,
        "disk_stats": disk,
    }


def run_service(scale: float = 1.0, quick: bool = False) -> ExperimentResult:
    """Extension — ordering-as-a-service under concurrent load.

    Exercises the async reordering server end to end: concurrent
    submissions over a known-duplicate workload on a 2-worker pool, with
    single-flight dedup and warm-cache hit latency measured and the
    dedup hit rate enforced against the duplicate ratio.
    """
    submissions, unique = (32, 4) if quick else (64, 8)
    m = measure_service(
        workers=2, submissions=submissions, unique=unique, scale=scale
    )
    stats = m["stats"]
    disk = measure_disk_cache(
        workers=2, unique=4 if quick else unique, scale=scale
    )
    headline = [
        ["throughput (req/s)", m["throughput_rps"]],
        ["first-wave wall (s)", m["wall_seconds"]],
        ["latency mean (ms)", m["latency_ms_mean"]],
        ["latency p50 (ms)", m["latency_ms_p50"]],
        ["latency max (ms)", m["latency_ms_max"]],
        ["warm cache-hit latency (ms)", m["cache_hit_latency_ms"]],
        ["dedup hit rate", m["hit_rate"]],
        ["duplicate ratio", m["duplicate_ratio"]],
        ["accounted cost (s)", m["cost_seconds"]],
    ]
    counters = [[k, v] for k, v in stats.items()]
    disk_rows = [
        ["unique matrices persisted", disk["unique"]],
        ["cold compute+persist (s)", disk["compute_seconds"]],
        ["restart recovery, all from disk (s)", disk["recovery_seconds"]],
        ["disk-hit latency mean (ms)", disk["hit_latency_ms"]],
        ["entries verified", disk["disk_stats"]["hits"]],
        ["entries corrupt", disk["disk_stats"]["corrupt"]],
    ]
    return experiment_result(
        "service",
        f"Extension — reordering service: {submissions} concurrent "
        f"submissions over {unique} unique suite matrices, 2 workers",
        [
            ResultTable(["measure", "value"], headline, title="service load"),
            ResultTable(["counter", "value"], counters, title="service counters"),
            ResultTable(
                ["measure", "value"],
                disk_rows,
                title="disk cache: restart recovery",
            ),
        ],
        notes=[
            "Expected shape: the dedup hit rate equals the duplicate ratio "
            "exactly (every duplicate submission is served by single-flight "
            "coalescing or the content-hash cache — enforced), warm cache "
            "hits resolve in well under a millisecond, and throughput "
            "reflects unique computes only.  Orderings are bit-identical "
            "to direct repro.rcm calls (see tests/test_service.py).",
            "Disk-cache recovery restarts the service on a populated "
            "directory and serves every spec from checksum-verified disk "
            "entries (disk_hits == unique, computed == 0 — enforced): the "
            "restart wall is the cost of surviving a process death with "
            "warm state, versus recomputing every ordering.",
        ],
        params=_params(
            scale, quick, submissions=submissions, unique=unique, workers=2
        ),
    )


#: Experiment registry for the CLI.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": run_fig1,
    "fig3": run_fig3,
    "table2": run_table2,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "gather": run_gather,
    "sort-ablation": run_sort_ablation,
    "csc-ablation": run_csc_ablation,
    "backend-ablation": run_backend_ablation,
    "driver-overhead": run_driver_overhead,
    "direction": run_direction,
    "balance-ablation": run_balance_ablation,
    "semiring-ablation": run_semiring_ablation,
    "skyline": run_skyline,
    "ingest": run_ingest,
    "service": run_service,
    "quality": run_quality,
    "calibration": run_calibration,
}
