"""History/comparator tests: snapshot schema validation, the metric
classifier's edge cases (missing/new metrics, zero baselines, tolerance
boundaries, schema-version mismatch), machine-score normalization, the
committed BENCH_PR1/BENCH_PR3 history, the trend's file set, and the CLI
regression gate."""

import json
import pathlib

import pytest

from repro.bench.history import (
    DEFAULT_TOLERANCE,
    MetricComparison,
    classify,
    compare_docs,
    format_comparison,
    gate_failures,
    load_snapshot_file,
    main as compare_main,
    trend_table,
)
from repro.bench.schema import SCHEMA_VERSION, SchemaError
from repro.bench.snapshot import SNAPSHOT_KIND, validate_snapshot

ROOT = pathlib.Path(__file__).resolve().parent.parent


def metric(value, direction="lower", normalize=True, scale=1.0, unit="s"):
    return {
        "value": float(value),
        "unit": unit,
        "direction": direction,
        "normalize": normalize,
        "params": {"scale": scale},
    }


def snapshot_doc(metrics, score=0.01, label=None):
    return {
        "kind": SNAPSHOT_KIND,
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "quick": True,
        "environment": {},
        "machine_score_seconds": score,
        "metrics": metrics,
    }


def by_name(comparisons):
    return {c.name: c for c in comparisons}


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def test_flat_improved_regressed_lower_is_better():
    old = snapshot_doc({"m": metric(1.0)})

    def status_against(value):
        return by_name(compare_docs(old, snapshot_doc({"m": metric(value)}), 1.5))["m"].status

    assert status_against(1.1) == "flat"
    assert status_against(2.0) == "regressed"
    assert status_against(0.5) == "improved"


def test_higher_is_better_direction_flips():
    old = snapshot_doc({"s": metric(10.0, direction="higher", normalize=False)})
    worse = snapshot_doc({"s": metric(2.0, direction="higher", normalize=False)})
    better = snapshot_doc({"s": metric(40.0, direction="higher", normalize=False)})
    assert by_name(compare_docs(old, worse, 1.5))["s"].status == "regressed"
    assert by_name(compare_docs(old, better, 1.5))["s"].status == "improved"


def test_tolerance_boundary_is_flat_strictly_beyond_regresses():
    # normalize=False so the raw values are the normalized values
    old = snapshot_doc({"m": metric(1.0, normalize=False)})
    exactly = snapshot_doc({"m": metric(2.5, normalize=False)})
    beyond = snapshot_doc({"m": metric(2.5 + 1e-9, normalize=False)})
    assert by_name(compare_docs(old, exactly, 2.5))["m"].status == "flat"
    assert by_name(compare_docs(old, beyond, 2.5))["m"].status == "regressed"


def test_zero_and_near_zero_baselines_do_not_crash():
    old = snapshot_doc({"z": metric(0.0, normalize=False)})
    both_zero = snapshot_doc({"z": metric(0.0, normalize=False)})
    grew = snapshot_doc({"z": metric(1.0, normalize=False)})
    assert by_name(compare_docs(old, both_zero, 1.5))["z"].status == "flat"
    c = by_name(compare_docs(old, grew, 1.5))["z"]
    assert c.status == "regressed" and c.ratio > 1e6  # floored, finite
    # and a metric dropping to ~0 is an improvement, not a divide error
    shrunk = compare_docs(snapshot_doc({"z": metric(1.0, normalize=False)}), old, 1.5)
    assert by_name(shrunk)["z"].status == "improved"


def test_classify_is_exposed_and_symmetric():
    status, ratio = classify(1.0, 3.0, "lower", 2.0)
    assert status == "regressed" and ratio == pytest.approx(3.0)
    status, _ = classify(3.0, 1.0, "higher", 2.0)
    assert status == "regressed"


def test_missing_and_new_metrics():
    old = snapshot_doc({"kept": metric(1.0), "dropped": metric(1.0)})
    new = snapshot_doc({"kept": metric(1.0), "added": metric(1.0)})
    cmp = by_name(compare_docs(old, new))
    assert cmp["dropped"].status == "missing"
    assert cmp["added"].status == "new"
    assert cmp["kept"].status == "flat"
    # missing gates by default; --allow-missing waives it; new never gates
    assert [c.name for c in gate_failures(list(cmp.values()))] == ["dropped"]
    assert gate_failures(list(cmp.values()), allow_missing=True) == []


def test_params_mismatch_is_skipped_not_compared():
    old = snapshot_doc({"m": metric(1.0, scale=1.0)})
    new = snapshot_doc({"m": metric(100.0, scale=0.5)})
    c = by_name(compare_docs(old, new))["m"]
    assert c.status == "skipped"
    assert "params differ" in c.detail
    assert gate_failures([c]) == []


def test_informational_metrics_trend_but_never_gate():
    # "gate": false marks a metric informational — it is still classified
    # (so the trend/compare tables show it) but can never fail CI.  Used
    # for host-environment-sensitive measurements like absolute peak RSS.
    info = metric(1.0, normalize=False)
    info["gate"] = False
    worse = dict(info, value=100.0)
    c = by_name(compare_docs(snapshot_doc({"rss": info}), snapshot_doc({"rss": worse})))[
        "rss"
    ]
    assert c.status == "regressed"  # classification is unchanged
    assert not c.gates
    assert "informational" in c.detail
    assert gate_failures([c]) == []
    # one side declaring gate=false is enough to stop gating — otherwise
    # flipping the flag in a PR would itself fail the gate
    c2 = by_name(
        compare_docs(
            snapshot_doc({"rss": metric(1.0, normalize=False)}),
            snapshot_doc({"rss": worse}),
        )
    )["rss"]
    assert not c2.gates
    # and an ordinary metric still gates
    c3 = by_name(
        compare_docs(
            snapshot_doc({"t": metric(1.0, normalize=False)}),
            snapshot_doc({"t": metric(100.0, normalize=False)}),
        )
    )["t"]
    assert c3.gates
    assert gate_failures([c3]) == [c3]


def test_validate_snapshot_accepts_and_rejects_gate_flag():
    good = snapshot_doc({"m": dict(metric(1.0), gate=False)})
    validate_snapshot(good)
    bad = snapshot_doc({"m": dict(metric(1.0), gate="no")})
    with pytest.raises(SchemaError, match="'gate' must be a boolean"):
        validate_snapshot(bad)


def test_metric_definition_mismatch_is_skipped_not_compared():
    # normalizing one side but not the other would be nonsense — a
    # metric whose definition changed between snapshot versions is
    # reported, never classified
    old = snapshot_doc({"m": metric(1.0, normalize=False)})
    new = snapshot_doc({"m": metric(100.0, normalize=True)})
    c = by_name(compare_docs(old, new))["m"]
    assert c.status == "skipped"
    assert "definition differs" in c.detail


def test_machine_score_normalization_absorbs_host_speed():
    # same workload measured on a 3x slower host: raw value 3x worse,
    # but the machine score grew 3x too -> normalized flat
    old = snapshot_doc({"m": metric(1.0)}, score=0.01)
    new = snapshot_doc({"m": metric(3.0)}, score=0.03)
    assert by_name(compare_docs(old, new, 1.5))["m"].status == "flat"
    # without normalize, the same values regress
    old_raw = snapshot_doc({"m": metric(1.0, normalize=False)}, score=0.01)
    new_raw = snapshot_doc({"m": metric(3.0, normalize=False)}, score=0.03)
    assert by_name(compare_docs(old_raw, new_raw, 1.5))["m"].status == "regressed"


def test_normalization_needs_scores_on_both_sides():
    old = snapshot_doc({"m": metric(1.0)}, score=None)
    new = snapshot_doc({"m": metric(3.0)}, score=0.03)
    assert by_name(compare_docs(old, new, 1.5))["m"].status == "regressed"


def test_tolerance_must_be_multiplicative():
    old = snapshot_doc({"m": metric(1.0)})
    with pytest.raises(ValueError):
        compare_docs(old, old, tolerance=0.5)
    assert DEFAULT_TOLERANCE > 1.0


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
def test_schema_version_mismatch_is_a_clear_error(tmp_path):
    doc = snapshot_doc({"m": metric(1.0)})
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(SchemaError, match="schema_version"):
        validate_snapshot(doc)
    path = tmp_path / "BENCH_future.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="schema_version"):
        load_snapshot_file(path)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.update(kind="wrong"), "kind"),
        (lambda d: d.update(metrics={}), "metrics"),
        (lambda d: d.update(machine_score_seconds=-1.0), "machine_score"),
        (lambda d: d["metrics"]["m"].update(value="fast"), "number"),
        (lambda d: d["metrics"]["m"].update(value=float("nan")), "finite"),
        (lambda d: d["metrics"]["m"].update(direction="sideways"), "direction"),
        (lambda d: d["metrics"]["m"].pop("normalize"), "normalize"),
        (lambda d: d["metrics"]["m"].pop("params"), "params"),
    ],
)
def test_validate_snapshot_rejects_malformed_documents(mutate, match):
    doc = snapshot_doc({"m": metric(1.0)})
    mutate(doc)
    with pytest.raises(SchemaError, match=match):
        validate_snapshot(doc)


def test_load_rejects_garbage_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SchemaError, match="not found"):
        load_snapshot_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError, match="JSON"):
        load_snapshot_file(bad)


# ----------------------------------------------------------------------
# Committed history + trend
# ----------------------------------------------------------------------
def test_legacy_pr1_and_pr3_snapshots_adapt_into_the_schema():
    # the PR 1/PR 3 ad-hoc documents are committed as schema-v1 snapshots
    pr1 = load_snapshot_file(ROOT / "BENCH_PR1.json")
    assert pr1["label"] == "PR1" and "legacy" not in pr1
    assert any(k.startswith("spmspv.csc.") for k in pr1["metrics"])
    assert any(k.startswith("finder.batched_speedup.") for k in pr1["metrics"])
    pr3 = load_snapshot_file(ROOT / "BENCH_PR3.json")
    assert pr3["label"] == "PR3"
    assert "driver.ldoor.ms_per_superstep.r256" in pr3["metrics"]
    assert "driver.ldoor.speedup.r256" in pr3["metrics"]
    validate_snapshot(pr1)
    validate_snapshot(pr3)


def test_trend_table_spans_legacy_and_current(tmp_path):
    current = snapshot_doc(
        {"driver.ldoor.ms_per_superstep.r256": metric(0.4, unit="ms")},
        label="PR4",
    )
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(current))
    out = trend_table([ROOT / "BENCH_PR1.json", ROOT / "BENCH_PR3.json", path])
    lines = out.splitlines()
    assert "PR1" in lines[1] and "PR3" in lines[1] and "PR4" in lines[1]
    # PR labels order the columns
    assert lines[1].index("PR1") < lines[1].index("PR3") < lines[1].index("PR4")
    assert any("driver.ldoor.ms_per_superstep.r256" in l for l in lines)


def test_trend_ignores_non_snapshots_named_like_bench(tmp_path, monkeypatch, capsys):
    write(tmp_path, "BENCH.json", snapshot_doc({"m": metric(1.0)}))
    write(tmp_path, "BENCHMARK.json", {"command": ["python3", "run.py"]})
    monkeypatch.chdir(tmp_path)
    assert compare_main(["--trend"]) == 0
    captured = capsys.readouterr()
    assert "Trend across 1 snapshots" in captured.out
    assert captured.err == ""


def test_format_comparison_summarizes_counts():
    out = format_comparison(
        [MetricComparison("a", "flat", 1.0, 1.0, 1.0)], tolerance=1.5
    )
    assert "1 flat" in out and "a" in out


# ----------------------------------------------------------------------
# CLI gate (the acceptance criterion: injected regression -> non-zero)
# ----------------------------------------------------------------------
def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_compare_cli_passes_on_flat_and_fails_on_injected_regression(tmp_path, capsys):
    old = write(tmp_path, "BENCH.json", snapshot_doc({"m": metric(1.0)}, label="old"))
    flat = write(tmp_path, "BENCH_flat.json", snapshot_doc({"m": metric(1.2)}, label="flat"))
    assert compare_main([str(old), str(flat), "--tolerance", "2.5"]) == 0
    assert "OK: no regressions" in capsys.readouterr().out

    # inject a synthetic 10x regression: the gate must exit non-zero
    bad = write(tmp_path, "BENCH_bad.json", snapshot_doc({"m": metric(10.0)}, label="bad"))
    assert compare_main([str(old), str(bad), "--tolerance", "2.5"]) == 1
    captured = capsys.readouterr()
    assert "regressed" in captured.out
    assert "FAIL" in captured.err


def test_compare_cli_schema_violation_exits_2(tmp_path, capsys):
    old = write(tmp_path, "BENCH.json", snapshot_doc({"m": metric(1.0)}))
    future = snapshot_doc({"m": metric(1.0)})
    future["schema_version"] = SCHEMA_VERSION + 1
    new = write(tmp_path, "BENCH_future.json", future)
    assert compare_main([str(old), str(new)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_compare_cli_allow_missing_and_trend(tmp_path, capsys):
    old = write(
        tmp_path, "BENCH.json", snapshot_doc({"m": metric(1.0), "d": metric(1.0)})
    )
    new = write(tmp_path, "BENCH_new.json", snapshot_doc({"m": metric(1.0)}))
    assert compare_main([str(old), str(new)]) == 1
    capsys.readouterr()
    assert (
        compare_main([str(old), str(new), "--allow-missing", "--no-trend"]) == 0
    )
    out = capsys.readouterr().out
    assert "missing" in out
    assert "Trend" not in out  # --no-trend suppressed the table


def test_compare_cli_via_repro_bench_entry_point(tmp_path, capsys):
    from repro.bench.cli import main

    old = write(tmp_path, "BENCH.json", snapshot_doc({"m": metric(1.0)}))
    new = write(tmp_path, "BENCH_new.json", snapshot_doc({"m": metric(1.1)}))
    assert main(["compare", str(old), str(new), "--tolerance", "2.5"]) == 0
    assert "Comparison at tolerance" in capsys.readouterr().out
