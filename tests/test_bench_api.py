"""The public programmatic API: repro.bench.run + kwarg normalization.

An experiment's signature is the one declaration of its knobs; these
tests pin how :func:`repro.bench.api.normalize_kwargs` reads it.
"""

import pytest

import repro.bench as bench
from repro.bench.api import (
    KNOWN_DIRECTIONS,
    KNOWN_ENGINES,
    normalize_kwargs,
)
from repro.bench.schema import ExperimentResult, ResultTable, experiment_result


def _stub(name="fig3"):
    def fn(scale=1.0, quick=False, names=None):
        return experiment_result(
            name,
            f"stub {name}",
            [ResultTable(["k", "v"], [["cell", 1.0]])],
            params={"scale": scale, "quick": quick, "names": names},
        )

    return fn


def test_experiments_mapping_is_read_only():
    with pytest.raises(TypeError):
        bench.EXPERIMENTS["fig3"] = None


# ----------------------------------------------------------------------
# normalize_kwargs
# ----------------------------------------------------------------------
def test_normalize_passes_extra_knobs_where_implemented():
    kwargs, ignored = normalize_kwargs(
        "calibration", engine="processes", procs=2
    )
    assert kwargs["engine"] == "processes" and kwargs["procs"] == 2
    assert ignored == []
    kwargs, ignored = normalize_kwargs("fig4", direction="pull")
    assert kwargs["direction"] == "pull"
    assert ignored == []
    kwargs, ignored = normalize_kwargs("ingest", matrix="zoo:rmat16")
    assert kwargs["matrix"] == "zoo:rmat16"
    assert ignored == []
    assert normalize_kwargs("fig3", names=["nd24k"])[0]["names"] == ["nd24k"]
    # only suite experiments take names; the others run a fixed input
    assert "names" not in normalize_kwargs("fig1", names=["nd24k"])[0]


def test_normalize_drops_inapplicable_knobs_with_reasons():
    kwargs, ignored = normalize_kwargs(
        "fig3", engine="processes", procs=2, matrix="nd24k", direction="pull"
    )
    assert "engine" not in kwargs and "matrix" not in kwargs
    assert "direction" not in kwargs
    assert dict(ignored) == {
        "matrix": "experiment runs the paper suite",
        "engine/procs": "experiment is simulated-machine only",
        "direction": "experiment has no direction switch",
    }


def test_normalize_rejects_unknown_experiment_with_the_registry():
    with pytest.raises(ValueError, match="expected one of"):
        normalize_kwargs("not-an-experiment")


@pytest.mark.parametrize(
    "bad",
    [
        dict(engine="mpi"),
        dict(direction="sideways"),
        dict(procs=0),
        dict(names=["not-a-matrix"]),
    ],
)
def test_normalize_rejects_invalid_values(bad):
    with pytest.raises(ValueError):
        normalize_kwargs("fig4", **bad)


def test_known_value_sets():
    assert "simulated" in KNOWN_ENGINES and "processes" in KNOWN_ENGINES
    assert set(KNOWN_DIRECTIONS) == {"push", "pull", "adaptive"}


# ----------------------------------------------------------------------
# run()
# ----------------------------------------------------------------------
def test_run_dispatches_and_records_backend(monkeypatch):
    import repro.bench.harness as harness

    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", _stub())
    result = bench.run("fig3", quick=True, names=["serena"], scale=0.45)
    assert isinstance(result, ExperimentResult)
    assert result.params["names"] == ["serena"]
    assert result.params["backend"] == "numpy"


def test_run_silently_drops_inapplicable_knobs(monkeypatch):
    import repro.bench.harness as harness

    seen = {}

    def fn(scale=1.0, quick=False, names=None):
        seen.update(scale=scale, quick=quick, names=names)
        return _stub()(scale, quick, names)

    monkeypatch.setitem(harness.EXPERIMENTS, "fig3", fn)
    bench.run("fig3", engine="processes", procs=2, direction="pull")
    assert seen == {"scale": 1.0, "quick": False, "names": None}


def test_run_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        bench.run("fig3", backend="cuda")


def test_run_direction_reaches_the_scaling_sweep():
    push = bench.run("fig4", quick=True, names=["nd24k"], scale=0.45)
    pull = bench.run(
        "fig4", quick=True, names=["nd24k"], scale=0.45, direction="pull"
    )
    assert push.params["direction"] == "push"
    assert pull.params["direction"] == "pull"
    # same experiment shape either way; the knob is recorded provenance
    assert push.table().headers == pull.table().headers
