"""Smoke tests of the experiment harness: every experiment runs,
returns a structured ExperimentResult, and renders the expected
headline shape at tiny scale."""

import pytest

from repro.bench.harness import (
    EXPERIMENTS,
    run_balance_ablation,
    run_csc_ablation,
    run_fig1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_gather,
    run_semiring_ablation,
    run_sort_ablation,
    run_table2,
)
from repro.bench.schema import ExperimentResult

TINY = dict(scale=0.45, quick=True, names=["ldoor", "serena"])


def test_registry_complete():
    assert set(EXPERIMENTS) == {
        "fig1",
        "fig3",
        "table2",
        "fig4",
        "fig5",
        "fig6",
        "gather",
        "sort-ablation",
        "csc-ablation",
        "backend-ablation",
        "driver-overhead",
        "direction",
        "balance-ablation",
        "semiring-ablation",
        "skyline",
        "ingest",
        "service",
        "quality",
        "calibration",
    }


def test_ingest_result_shape():
    from repro.bench.harness import run_ingest

    res = run_ingest(quick=True, matrix="zoo:rmat14")
    assert isinstance(res, ExperimentResult)
    assert res.name == "ingest"
    assert res.params["matrix"] == "zoo:rmat14"
    paths = res.table().column("path")
    assert paths[:2] == ["streamed", "monolithic"]
    secs = res.table().column("seconds")
    assert all(s > 0 for s in secs)
    # deltas above the post-import baseline: a tiny quick-mode workload
    # can legitimately round to 0.0 (ru_maxrss is a high-water mark), so
    # only non-negativity is asserted here — the enforced budget lives in
    # tests/test_ingest_rss.py at scale 18
    rss = res.table().column("peak RSS above baseline (MB)")
    assert all(r >= 0 for r in rss)


def test_measure_ingest_rejects_unknown_matrix():
    from repro.bench.harness import measure_ingest

    with pytest.raises(RuntimeError, match="ingest child"):
        measure_ingest("zoo:nope", modes=("streamed",))


def test_fig1_result_shape():
    res = run_fig1(scale=0.5, quick=True)
    assert isinstance(res, ExperimentResult)
    assert res.name == "fig1"
    assert "Fig. 1" in res.title
    # last speedup should exceed the first (advantage grows with cores)
    speedups = res.table().column("rcm speedup")
    assert speedups[-1] >= speedups[0]
    assert "Fig. 1" in res.render()


def test_fig3_contains_paper_columns():
    res = run_fig3(**TINY)
    assert "paper ratio" in res.table().headers
    assert "ldoor" in res.table().column("matrix")


def test_table2_runs():
    out = run_table2(**TINY).render()
    assert "SpMP" in out and "dist" in out


def test_fig4_reports_five_regions():
    res = run_fig4(**TINY)
    for col in ("periph spmspv", "periph other", "order spmspv", "order sort", "order other"):
        assert col in res.tables[0].headers
    # the stacked-bar figure is declared on (and derived from) the table
    assert res.tables[0].stacked == [
        "periph spmspv",
        "periph other",
        "order spmspv",
        "order sort",
        "order other",
    ]
    assert "legend:" in res.render()


def test_fig5_reports_split():
    res = run_fig5(**TINY)
    assert res.tables[0].headers == ["cores", "computation s", "communication s"]


def test_fig6_flat_vs_hybrid():
    out = run_fig6(scale=0.45, quick=True).render()
    assert "flat MPI" in out and "hybrid" in out


def test_gather_result():
    res = run_gather(scale=0.45, quick=True)
    phases = res.table().column("phase")
    assert "gather pipeline total" in phases
    assert "distributed RCM total" in phases
    assert len(res.tables) == 2  # surrogate table + paper-scale check


def test_sort_ablation_identical_orderings():
    res = run_sort_ablation(scale=0.45, quick=True, names=["serena"])
    assert res.table().column("same ordering") == [True]


def test_csc_ablation_runs():
    out = run_csc_ablation(scale=0.45, quick=True, names=["serena"]).render()
    assert "CSR/CSC" in out


def test_backend_ablation_runs():
    from repro.bench.harness import run_backend_ablation

    out = run_backend_ablation(scale=0.45, quick=True, names=["serena"]).render()
    assert "batched" in out and "True" in out


def test_results_record_params_and_provenance():
    res = run_fig3(scale=0.45, quick=True, names=["serena"])
    assert res.params["scale"] == 0.45
    assert res.params["quick"] is True
    assert res.params["names"] == ["serena"]
    assert "git" in res.environment and "commit" in res.environment["git"]


def test_cli_json_and_backend_flags(capsys):
    import json

    from repro.bench.cli import main

    assert (
        main(
            [
                "run",
                "fig3",
                "--quick",
                "--scale",
                "0.45",
                "--matrices",
                "serena",
                "--backend",
                "numpy",
                "--json",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["backend"] == "numpy"
    entry = doc["experiments"][0]
    assert entry["experiment"] == "fig3"
    # the uniform ExperimentResult document, not ad-hoc per-command JSON
    result = ExperimentResult.from_dict(entry["result"])
    assert result.name == "fig3"
    assert "Fig. 3" in result.title
    assert result.params["backend"] == "numpy"


def test_calibration_simulated_mode_reports_model_only():
    from repro.bench.harness import run_calibration

    out = run_calibration(
        scale=0.45, quick=True, names=["serena"], engine="simulated", procs=2
    ).render()
    assert "modeled s" in out and "no measurements" in out


def test_calibration_processes_mode_enforces_identical_orderings():
    from repro.bench.harness import run_calibration

    out = run_calibration(scale=0.45, quick=True, names=["serena"], procs=2).render()
    assert "bit-identical to simulated engine: True (enforced)" in out
    assert "measured/modeled" in out


def test_cli_engine_flag_reaches_calibration(capsys):
    from repro.bench.cli import main

    assert (
        main(
            [
                "run",
                "calibration",
                "--quick",
                "--scale",
                "0.45",
                "--matrices",
                "serena",
                "--engine",
                "processes",
                "--procs",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "2 worker processes" in out


def test_cli_warns_when_engine_flag_is_ignored(capsys):
    from repro.bench.cli import main

    argv = ["run", "fig3", "--quick", "--scale", "0.45", "--matrices", "serena"]
    assert main(argv + ["--engine", "processes"]) == 0
    assert "ignored" in capsys.readouterr().err


def test_balance_ablation_runs():
    out = run_balance_ablation(scale=0.45, quick=True, names=["serena"]).render()
    assert "random permuted" in out


def test_semiring_ablation_runs():
    out = run_semiring_ablation(scale=0.45, quick=True, names=["serena"]).render()
    assert "bw (min parent)" in out


def test_cli_main():
    from repro.bench.cli import main

    assert main(["run", "fig3", "--quick", "--scale", "0.45", "--matrices", "serena"]) == 0


def test_cli_rejects_unknown_experiment():
    from repro.bench.cli import main

    with pytest.raises(SystemExit):
        main(["not-an-experiment"])


def test_skyline_extension_runs():
    from repro.bench.harness import run_skyline

    out = run_skyline(scale=0.8, quick=True).render()
    assert "factor storage" in out


def test_quality_extension_runs():
    out = EXPERIMENTS["quality"](scale=0.5, quick=True, names=["serena"]).render()
    assert "GPS" in out and "Sloan" in out


def test_disk_cache_measurement_enforces_full_recovery():
    # the measurement itself asserts disk_hits == unique and computed ==
    # 0 on the restarted service — a returned dict is a persistence proof
    from repro.bench.harness import measure_disk_cache

    m = measure_disk_cache(workers=2, unique=2, scale=0.45)
    assert m["unique"] == 2
    assert m["recovery_seconds"] > 0
    assert m["hit_latency_ms"] > 0
    assert m["disk_stats"]["hits"] == 2
    assert m["disk_stats"]["corrupt"] == 0
