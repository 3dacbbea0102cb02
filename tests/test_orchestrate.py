"""Campaign orchestration: config validation, expansion, resume, faults."""

import json
import time

import pytest

import repro.bench.harness as harness
import repro.faults as faults
from repro.bench.orchestrate import expand_runs, load_config, orchestrate
from repro.bench.schema import (
    CampaignConfig,
    ResultTable,
    SchemaError,
    experiment_result,
)


def _stub_factory(calls=None, fail_names=()):
    def fn(scale=1.0, quick=False, names=None):
        if calls is not None:
            calls.append(names)
        if names and names[0] in fail_names:
            raise ValueError(f"poisoned input {names[0]}")
        return experiment_result(
            "fig3",
            "stub fig3",
            [ResultTable(["k", "v"], [["cell", 1.0]])],
            params={"scale": scale, "quick": quick, "names": names},
        )

    return fn


def _config(**over):
    doc = {
        "experiments": ["fig3"],
        "matrices": ["nd24k"],
        "quick": True,
        "workers": 0,
    }
    doc.update(over)
    return doc


# ----------------------------------------------------------------------
# Config schema
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"experiments": ["figgy"]}, "unknown experiment 'figgy'"),
        ({"experiments": []}, "must be non-empty"),
        ({}, "missing required key 'experiments'"),
        (
            {"experiments": ["fig3"], "matrices": ["huge_matrix"]},
            "unknown matrix 'huge_matrix'",
        ),
        (
            {"experiments": ["fig3"], "matrices": ["zoo:nope"]},
            "unknown zoo matrix 'zoo:nope'",
        ),
        (
            {"experiments": ["fig3"], "backends": ["cuda"]},
            "unknown campaign config keys ['backends']",
        ),
        (
            {"experiments": ["calibration"], "engines": ["mpi"]},
            "unknown engine 'mpi'",
        ),
        (
            {"experiments": ["fig4"], "directions": ["sideways"]},
            "unknown direction 'sideways'",
        ),
        ({"experiments": ["fig3"], "typo_key": 1}, "unknown campaign config keys"),
        ({"experiments": ["fig3"], "retries": -1}, "retries"),
        ({"experiments": ["fig3"], "scale": 0}, "scale"),
        (
            {"experiments": ["fig3"], "engines": ["processes"]},
            "no requested experiment is engine-aware",
        ),
        (
            {"experiments": ["fig3"], "directions": ["pull"]},
            "no requested experiment has a direction switch",
        ),
        (
            {"experiments": ["fig3"], "backends": ["numpy"]},
            "unknown campaign config keys ['backends']",
        ),
    ],
)
def test_config_validation_messages_are_actionable(doc, fragment):
    with pytest.raises(SchemaError) as exc:
        CampaignConfig.from_dict(doc)
    assert fragment in str(exc.value)


def test_config_loads_json_and_toml(tmp_path):
    (tmp_path / "c.json").write_text(
        json.dumps({"experiments": ["fig3"], "matrices": ["nd24k"]})
    )
    (tmp_path / "c.toml").write_text(
        'experiments = ["fig3"]\nmatrices = ["nd24k"]\nquick = true\n'
    )
    assert load_config(tmp_path / "c.json").matrices == ["nd24k"]
    config = load_config(tmp_path / "c.toml")
    assert config.quick is True and config.experiments == ["fig3"]


def test_config_parse_errors_are_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_config(bad)
    with pytest.raises(SchemaError, match="cannot read"):
        load_config(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# Run-matrix expansion
# ----------------------------------------------------------------------
def test_expansion_normalizes_and_dedups_engine_unaware_cells():
    config = CampaignConfig.from_dict(
        {
            "experiments": ["fig3", "calibration"],
            "matrices": ["nd24k"],
            "engines": ["simulated", "processes"],
            "quick": True,
        }
    )
    runs = expand_runs(config)
    by_experiment = {}
    for run in runs:
        by_experiment.setdefault(run["experiment"], []).append(run)
    # fig3 has no engine knob: both engine cells collapse into one run
    assert len(by_experiment["fig3"]) == 1
    assert len(by_experiment["calibration"]) == 2
    assert {r["kwargs"].get("engine") for r in by_experiment["calibration"]} == {
        "simulated",
        "processes",
    }


def test_expansion_skips_zoo_matrices_for_suite_experiments():
    config = CampaignConfig.from_dict(
        {"experiments": ["fig3", "ingest"], "matrices": ["zoo:rmat16"]}
    )
    runs = expand_runs(config)
    assert [r["experiment"] for r in runs] == ["ingest"]
    assert runs[0]["kwargs"]["matrix"] == "zoo:rmat16"


def test_run_hashes_are_stable_across_expansions():
    config = CampaignConfig.from_dict(_config())
    first = [r["hash"] for r in expand_runs(config)]
    second = [r["hash"] for r in expand_runs(config)]
    assert first == second


# ----------------------------------------------------------------------
# Execution + resume (inline workers=0: no fork, deterministic counters)
# ----------------------------------------------------------------------
def test_campaign_persists_results_and_manifest(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", _stub_factory())
    outcome = orchestrate(
        _config(matrices=["nd24k", "ldoor"]), out=tmp_path
    )
    assert outcome.executed == 2 and outcome.failed == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["kind"] == "repro-bench-campaign-manifest"
    assert len(manifest["runs"]) == 2
    for entry in manifest["runs"].values():
        assert entry["status"] == "done"
        doc = json.loads((tmp_path / entry["file"]).read_text())
        assert doc["kind"] == "repro-bench-result"


def test_resume_skips_completed_runs(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", _stub_factory(calls))
    config = _config(matrices=["nd24k", "ldoor"])
    first = orchestrate(config, out=tmp_path)
    assert (first.executed, first.skipped) == (2, 0)
    assert len(calls) == 2
    second = orchestrate(config, out=tmp_path)
    assert (second.executed, second.skipped) == (0, 2)
    assert len(calls) == 2  # zero new runs
    # a deleted result file invalidates just that run
    done = next(iter(second.manifest["runs"].values()))
    (tmp_path / done["file"]).unlink()
    third = orchestrate(config, out=tmp_path)
    assert (third.executed, third.skipped) == (1, 1)


def test_inband_failure_cannot_abort_the_campaign(tmp_path, monkeypatch):
    monkeypatch.setitem(
        harness.EXPERIMENTS, "fig3", _stub_factory(fail_names=("ldoor",))
    )
    outcome = orchestrate(_config(matrices=["nd24k", "ldoor"]), out=tmp_path)
    assert outcome.executed == 2 and outcome.failed == 1
    assert not outcome.ok
    statuses = {
        e["run_id"]: e["status"] for e in outcome.manifest["runs"].values()
    }
    assert sorted(statuses.values()) == ["done", "failed"]
    failed = [
        e
        for e in outcome.manifest["runs"].values()
        if e["status"] == "failed"
    ]
    assert "poisoned input ldoor" in failed[0]["error"]


def test_raising_run_fails_alone_on_pooled_workers(tmp_path, monkeypatch):
    monkeypatch.setitem(
        harness.EXPERIMENTS, "fig3", _stub_factory(fail_names=("ldoor",))
    )
    outcome = orchestrate(
        _config(matrices=["nd24k", "ldoor"], workers=2, deadline_seconds=30),
        out=tmp_path,
    )
    assert outcome.executed == 2 and outcome.failed == 1
    by_matrix = {
        e["params"]["names"][0]: e for e in outcome.manifest["runs"].values()
    }
    assert by_matrix["nd24k"]["status"] == "done"
    assert by_matrix["ldoor"]["status"] == "failed"
    assert "poisoned input ldoor" in by_matrix["ldoor"]["error"]


# ----------------------------------------------------------------------
# Crash/hang injection on the pooled path (repro.faults, PR 8 machinery)
# ----------------------------------------------------------------------
@pytest.mark.faults
@pytest.mark.parametrize("retries", [0, 1])
@pytest.mark.parametrize(
    "spec, deadline", [("worker.crash:hit=1", 30), ("worker.hang:hit=1", 3)]
)
def test_crash_or_hang_counts_against_its_own_run_only(
    tmp_path, monkeypatch, spec, deadline, retries
):
    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", _stub_factory())
    faults.arm(spec)
    outcome = orchestrate(
        _config(
            matrices=["nd24k", "ldoor"],
            workers=2,
            retries=retries,
            deadline_seconds=deadline,
        ),
        out=tmp_path,
    )
    # which run takes hit 1 depends on which thread sends first
    settled = sorted((e["status"], e["attempts"]) for e in outcome.manifest["runs"].values())
    hit = ("failed", 1) if retries == 0 else ("done", 2)
    assert settled == sorted([hit, ("done", 1)])


@pytest.mark.faults
def test_crashed_run_is_retried_after_pool_repair(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", _stub_factory())
    faults.arm("worker.crash:hit=1")
    outcome = orchestrate(
        _config(workers=1, retries=1, deadline_seconds=30), out=tmp_path
    )
    assert outcome.failed == 0 and outcome.executed == 1
    (entry,) = outcome.manifest["runs"].values()
    assert entry["status"] == "done"
    assert entry["attempts"] == 2


@pytest.mark.faults
def test_unbounded_crash_fails_cleanly_at_the_retry_bound(
    tmp_path, monkeypatch
):
    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", _stub_factory())
    faults.arm("worker.crash:count=0")
    outcome = orchestrate(
        _config(workers=1, retries=1, deadline_seconds=30), out=tmp_path
    )
    assert outcome.failed == 1 and outcome.executed == 1
    (entry,) = outcome.manifest["runs"].values()
    assert entry["status"] == "failed"
    assert entry["attempts"] == 2
    assert "retry bound reached" in entry["error"]
    # the campaign completed and checkpointed despite the poisoned run
    assert json.loads((tmp_path / "manifest.json").read_text())["runs"]


@pytest.mark.faults
def test_hung_run_hits_the_deadline_and_is_retried(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", _stub_factory())
    faults.arm("worker.hang:hit=1")
    outcome = orchestrate(
        _config(workers=1, retries=1, deadline_seconds=3), out=tmp_path
    )
    assert outcome.failed == 0
    (entry,) = outcome.manifest["runs"].values()
    assert entry["attempts"] == 2


def test_driver_error_closes_the_pool_before_joining_its_threads(tmp_path, monkeypatch):
    stub = _stub_factory()

    def slow_on_ldoor(scale=1.0, quick=False, names=None):
        if names[0] == "ldoor":
            time.sleep(30)
        return stub(scale, quick, names)

    def echo(line):
        if " done " in line:
            raise BrokenPipeError("stdout closed")

    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", slow_on_ldoor)
    t0 = time.monotonic()
    with pytest.raises(BrokenPipeError):
        orchestrate(
            _config(matrices=["nd24k", "ldoor"], workers=2, deadline_seconds=None),
            out=tmp_path,
            echo=echo,
        )
    # nd24k's echo raised while ldoor's worker was busy: closing the pool
    # ends that call, so the thread pool's join does not wait out the run
    assert time.monotonic() - t0 < 15


def test_pooled_campaign_runs_real_experiment(tmp_path):
    """End-to-end over real workers: one real quick fig3 cell."""
    outcome = orchestrate(
        _config(workers=2, scale=0.45, deadline_seconds=120), out=tmp_path
    )
    assert outcome.ok and outcome.executed == 1
    (entry,) = outcome.manifest["runs"].values()
    doc = json.loads((tmp_path / entry["file"]).read_text())
    assert doc["name"] == "fig3"
    assert "backend" not in doc["params"]
