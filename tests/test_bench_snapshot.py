"""Snapshot subsystem tests.

A micro-config exercise of ``repro.bench.snapshot`` runs in tier-1 (the
curated measurement set at tiny scale), plus ``bench``-marked wall-clock
runs of the real ``--quick`` protocol (excluded from tier-1 by
pytest.ini; run with ``pytest -m bench``)."""

import json
import time

import pytest

from repro.bench.history import compare_docs, gate_failures, load_snapshot_file
from repro.bench.snapshot import (
    FULL_CONFIG,
    QUICK_CONFIG,
    SnapshotConfig,
    build_snapshot,
    machine_score,
    validate_snapshot,
    write_snapshot,
)

#: Tiny protocol for tier-1: one matrix, one repeat, vectorized-only
#: driver point, 2 worker processes for the calibration metrics.
MICRO = SnapshotConfig(
    quick=True,
    scale=0.45,
    repeats=1,
    serial_matrices=("serena",),
    road_side=128,
    driver_ranks=(16,),
    driver_baseline_max_ranks=0,
    calibration_matrix="serena",
    calibration_procs=2,
)


@pytest.fixture(scope="module")
def micro_doc():
    return build_snapshot(MICRO, label="micro")


def test_snapshot_is_schema_valid_and_json_serializable(micro_doc):
    validate_snapshot(micro_doc)  # build_snapshot validates too; be explicit
    round_tripped = json.loads(json.dumps(micro_doc))
    validate_snapshot(round_tripped)
    assert round_tripped["label"] == "micro"
    assert round_tripped["machine_score_seconds"] > 0


def test_snapshot_covers_the_curated_metric_set(micro_doc):
    names = set(micro_doc["metrics"])
    assert "serial.bfs.serena.seconds" in names  # serial BFS hot path
    assert "serial.rcm.serena.seconds" in names  # serial RCM hot path
    assert "serial.rcm.road-128.seconds" in names  # deep-mesh sweep
    assert "spmspv.csc.serena.numpy.seconds" in names  # kernel timing
    assert "finder.batched_speedup.serena" in names  # batched finder
    assert "driver.ldoor.ms_per_superstep.r16" in names  # driver overhead
    # processes-engine calibration: per-phase SpMSpV measured time + ratio
    assert "calibration.measured.ordering:spmspv.seconds" in names
    assert "calibration.ratio.total" in names
    # direction optimization: serial BFS on dense-frontier inputs + the
    # distributed ms/superstep with the push/pull switch on
    assert "direction.serial_bfs.li7nmax6.speedup" in names
    assert "direction.serial_bfs.rmat15.adaptive.seconds" in names
    assert "direction.dist.li7nmax6.ms_per_superstep.r16" in names
    # service disk tier: verified-hit latency + restart recovery wall
    assert "service.disk_cache.hit.latency_ms" in names
    assert "service.disk_cache.recovery.seconds" in names
    assert micro_doc["metrics"]["service.disk_cache.recovery.seconds"]["gate"] is False
    for m in micro_doc["metrics"].values():
        assert m["value"] >= 0
        assert m["params"]["scale"] == 0.45


def test_snapshot_records_provenance(micro_doc):
    assert tuple(micro_doc["config"]["serial_matrices"]) == ("serena",)
    assert "git" in micro_doc["environment"]
    assert micro_doc["environment"]["machine"] is not None  # edison constants


def test_snapshot_file_round_trips_through_history_loader(tmp_path, micro_doc):
    path = write_snapshot(micro_doc, tmp_path / "BENCH.json")
    doc = load_snapshot_file(path)
    assert doc["metrics"] == micro_doc["metrics"]


def test_snapshot_self_compare_is_clean(micro_doc):
    # a snapshot diffed against itself can never gate
    comparisons = compare_docs(micro_doc, micro_doc, tolerance=1.5)
    assert comparisons and gate_failures(comparisons) == []
    assert {c.status for c in comparisons} == {"flat"}


def test_machine_score_is_positive_and_stable():
    a = machine_score(repeats=2)
    b = machine_score(repeats=2)
    assert a > 0 and b > 0
    assert max(a, b) / min(a, b) < 10  # same host: same ballpark


def test_quick_and_full_configs_share_metric_naming():
    # quick snapshots must stay comparable with full ones on the shared
    # subset: same scale (metric params) and a matrix subset
    assert QUICK_CONFIG.scale == FULL_CONFIG.scale
    assert set(QUICK_CONFIG.serial_matrices) <= set(FULL_CONFIG.serial_matrices)
    assert QUICK_CONFIG.driver_ranks == FULL_CONFIG.driver_ranks
    # quick skips the per-rank driver baseline entirely (it alone would
    # blow the ~90 s budget)
    assert QUICK_CONFIG.driver_baseline_max_ranks == 0


def test_snapshot_cli_writes_named_output(tmp_path, capsys, monkeypatch):
    from repro.bench.cli import main

    monkeypatch.setattr(
        "repro.bench.snapshot.QUICK_CONFIG", MICRO, raising=True
    )
    out = tmp_path / "BENCH_test.json"
    assert main(["snapshot", "--quick", "--out", str(out), "--label", "cli"]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = load_snapshot_file(out)
    assert doc["label"] == "cli"


@pytest.mark.bench
def test_quick_snapshot_meets_the_ci_budget(tmp_path):
    t0 = time.perf_counter()
    doc = build_snapshot(QUICK_CONFIG, label="bench-test")
    elapsed = time.perf_counter() - t0
    validate_snapshot(doc)
    assert elapsed < 90.0, f"snapshot --quick took {elapsed:.0f}s (budget 90s)"
    # the PR-3 acceptance metric stays visible in the curated set
    assert "driver.ldoor.ms_per_superstep.r1024" in doc["metrics"]


@pytest.mark.bench
def test_quick_snapshot_is_flat_against_itself_with_ci_tolerance():
    a = build_snapshot(QUICK_CONFIG)
    b = build_snapshot(QUICK_CONFIG)
    comparisons = compare_docs(a, b, tolerance=2.5)
    assert gate_failures(comparisons) == []
