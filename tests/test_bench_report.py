"""The static HTML report: trend plots, drilldowns, escaping, history."""

import pathlib

import pytest

import repro.bench.harness as harness
from repro.bench.orchestrate import orchestrate
from repro.bench.report import render_report
from repro.bench.schema import (
    ResultTable,
    SchemaError,
    experiment_result,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _stub(title="stub fig3"):
    def fn(scale=1.0, quick=False, names=None):
        return experiment_result(
            "fig3",
            title,
            [
                ResultTable(
                    ["cores", "total s"],
                    [[1, 1.25], [4, 0.5]],
                    title=f"[{(names or ['suite'])[0]}]",
                )
            ],
            notes=["Expected shape: <monotone> decrease."],
            params={"scale": scale, "quick": quick, "names": names},
        )

    return fn


@pytest.fixture
def campaign_dir(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", _stub())
    orchestrate(
        {
            "experiments": ["fig3"],
            "matrices": ["nd24k", "ldoor"],
            "quick": True,
            "workers": 0,
        },
        out=tmp_path / "results",
    )
    return tmp_path / "results"


def test_report_renders_index_and_drilldowns(campaign_dir):
    index = render_report(
        campaign_dir, history=[ROOT / "BENCH_PR1.json", ROOT / "BENCH.json"]
    )
    assert index == campaign_dir / "report" / "index.html"
    text = index.read_text()
    assert "<svg" in text  # at least one trend plot
    # the PR1 -> HEAD spanning metrics drive the trend section
    assert "finder.batched_speedup.nd24k" in text
    assert ">PR1<" in text and ">HEAD<" in text
    assert "fig3-nd24k" in text and "fig3-ldoor" in text
    for matrix in ("nd24k", "ldoor"):
        page = (campaign_dir / "report" / f"matrix-{matrix}.html").read_text()
        assert "total s" in page
    # data tables accompany every plot (no-JS accessibility path)
    assert text.count("<details>") >= text.count("<svg")


def test_report_escapes_html_in_results(campaign_dir):
    text = render_report(campaign_dir, history=[]).read_text()
    assert "&lt;monotone&gt;" in text
    assert "<monotone>" not in text


def test_report_without_history_renders_no_plots(campaign_dir):
    text = render_report(campaign_dir, history=[]).read_text()
    assert "<svg" not in text
    assert "fig3" in text


def test_report_default_history_globs_cwd(campaign_dir, monkeypatch):
    monkeypatch.chdir(ROOT)  # the BENCH snapshots live in the repo root
    text = render_report(campaign_dir).read_text()
    assert "<svg" in text
    assert "finder.batched_speedup.nd24k" in text


def test_report_rejects_missing_directory(tmp_path):
    with pytest.raises(SchemaError, match="does not exist"):
        render_report(tmp_path / "nope")


def test_report_over_bare_result_files(tmp_path, monkeypatch):
    """A directory of result JSONs renders even without a manifest."""
    import json

    doc = _stub()(names=["nd24k"]).to_dict()
    (tmp_path / "one.json").write_text(json.dumps(doc))
    text = render_report(tmp_path, history=[]).read_text()
    assert "stub fig3" in text


def test_failed_runs_render_their_error(tmp_path, monkeypatch):
    def bad(scale=1.0, quick=False, names=None):
        raise RuntimeError("kernel exploded")

    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", bad)
    orchestrate(
        {"experiments": ["fig3"], "matrices": ["nd24k"], "workers": 0},
        out=tmp_path / "results",
    )
    text = render_report(tmp_path / "results", history=[]).read_text()
    assert "kernel exploded" in text
    assert "status-failed" in text
