"""Reporting/schema tests: the pure text view, the ExperimentResult
schema, and the satellite guarantee that EVERY registered experiment
round-trips through JSON with its tables and expected-shape notes
preserved (``--json`` must never drop what the text view shows)."""

import json

import pytest

from repro.bench import (
    ExperimentResult,
    RCMBreakdown,
    ResultTable,
    SchemaError,
    banner,
    breakdown_from_ledger,
    format_kv,
    format_table,
    render_result,
)
from repro.bench.api import normalize_kwargs
from repro.bench.harness import EXPERIMENTS
from repro.machine import CostLedger


def test_format_table_aligns():
    out = format_table(["a", "bbb"], [[1, 2.5], [10, 0.25]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(len(l) == len(lines[0]) for l in lines[1:])


def test_format_table_title():
    out = format_table(["x"], [[1]], title="T")
    assert out.splitlines()[0] == "T"


def test_format_table_scientific_for_extremes():
    out = format_table(["x"], [[1.5e-7]])
    assert "e-07" in out


def test_format_kv():
    out = format_kv({"alpha": 1, "bb": 2.0}, title="K")
    lines = out.splitlines()
    assert lines[0] == "K"
    assert lines[1].startswith("alpha")


def test_banner():
    out = banner("hello")
    lines = out.splitlines()
    assert lines[0] == "=" * 10 and lines[1] == "hello"


def test_breakdown_from_ledger_maps_regions():
    ledger = CostLedger()
    ledger.charge_compute("peripheral:spmspv", 1.0)
    ledger.charge_comm("peripheral:spmspv", 0.5)
    ledger.charge_compute("ordering:sort", 2.0)
    ledger.charge_comm("ordering:spmspv", 0.25)
    b = breakdown_from_ledger(ledger)
    assert b.peripheral_spmspv == 1.5
    assert b.ordering_sort == 2.0
    assert b.ordering_spmspv == 0.25
    assert b.total == pytest.approx(3.75)


def test_breakdown_comm_split():
    ledger = CostLedger()
    ledger.charge_compute("ordering:spmspv", 1.0)
    ledger.charge_comm("ordering:spmspv", 2.0)
    ledger.charge_compute("peripheral:spmspv", 0.5)
    b = breakdown_from_ledger(ledger)
    assert b.spmspv_compute == 1.5
    assert b.spmspv_comm == 2.0


def test_breakdown_as_row_order():
    b = RCMBreakdown(1, 2, 3, 4, 5, 0, 0)
    assert b.as_row() == [1, 2, 3, 4, 5]
    assert b.total == 15


# ----------------------------------------------------------------------
# ExperimentResult schema
# ----------------------------------------------------------------------
def test_result_table_coerces_numpy_scalars():
    import numpy as np

    t = ResultTable(["a", "b"], [[np.int64(3), np.float64(0.5)]])
    assert t.rows == [[3, 0.5]]
    assert all(type(c) in (int, float) for c in t.rows[0])


def test_result_table_rejects_non_scalars():
    import numpy as np

    with pytest.raises(SchemaError):
        ResultTable(["a"], [[np.arange(3)]])
    with pytest.raises(SchemaError):
        ResultTable(["a"], [[{"nested": 1}]])


def test_result_table_rejects_ragged_rows():
    with pytest.raises(SchemaError):
        ResultTable(["a", "b"], [[1]])


def test_result_table_rejects_unknown_stacked_column():
    with pytest.raises(SchemaError):
        ResultTable(["a", "b"], [[1, 2]], stacked=["c"])


def test_from_dict_rejects_wrong_kind_and_version():
    res = ExperimentResult("x", "X", [ResultTable(["a"], [[1]])])
    doc = res.to_dict()
    bad_kind = dict(doc, kind="nope")
    with pytest.raises(SchemaError):
        ExperimentResult.from_dict(bad_kind)
    bad_version = dict(doc, schema_version=999)
    with pytest.raises(SchemaError):
        ExperimentResult.from_dict(bad_version)


def test_render_result_includes_stacked_bars_and_notes():
    res = ExperimentResult(
        "x",
        "The Title",
        [ResultTable(["label", "v1", "v2"], [["a", 1.0, 2.0]], stacked=["v1", "v2"])],
        notes=["the expected shape"],
    )
    out = render_result(res)
    assert "The Title" in out
    assert "legend:" in out  # the stacked-bar figure
    assert out.rstrip().endswith("the expected shape")
    assert res.render() == out


# ----------------------------------------------------------------------
# Satellite: every registered experiment round-trips through JSON with
# notes (and everything else the text view shows) preserved.
# ----------------------------------------------------------------------
_TINY_KWARGS = {
    "skyline": dict(scale=0.8, quick=True),
    "calibration": dict(scale=0.45, quick=True, names=["serena"], procs=2),
}
_DEFAULT_KWARGS = dict(scale=0.45, quick=True, names=["serena"])


@pytest.fixture(scope="module")
def tiny_results():
    # normalize_kwargs passes names only to the suite experiments
    return {
        name: fn(**normalize_kwargs(name, **_TINY_KWARGS.get(name, _DEFAULT_KWARGS))[0])
        for name, fn in EXPERIMENTS.items()
    }


def test_every_experiment_returns_structured_result(tiny_results):
    for name, res in tiny_results.items():
        assert isinstance(res, ExperimentResult), name
        assert res.name == name
        assert res.tables, name
        assert res.params["scale"] == pytest.approx(
            _TINY_KWARGS.get(name, _DEFAULT_KWARGS)["scale"]
        ), name


def test_every_experiment_round_trips_through_json(tiny_results):
    for name, res in tiny_results.items():
        wire = json.dumps(res.to_dict())  # must not raise: scalars only
        back = ExperimentResult.from_dict(json.loads(wire))
        assert back.render() == res.render(), name
        assert back.notes == res.notes, name
        assert [t.to_dict() for t in back.tables] == [
            t.to_dict() for t in res.tables
        ], name


def test_expected_shape_notes_survive_json(tiny_results):
    # the regression the satellite pins: --json used to drop table notes
    # (e.g. fig6's expected-shape paragraph) that the text view printed
    noted = [n for n, r in tiny_results.items() if r.notes]
    assert "fig6" in noted and len(noted) >= 12
    for name in noted:
        res = tiny_results[name]
        back = ExperimentResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert back.notes[0] in back.render()
        assert back.notes == res.notes
