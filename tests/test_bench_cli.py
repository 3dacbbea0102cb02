"""The unified repro-bench CLI: subcommands and doc round-trips.

Every ``repro-bench ...`` invocation documented in README.md and
EXPERIMENTS.md must parse and dispatch through the one subcommand
parser.
"""

import json
import pathlib
import re
import shlex

import pytest

from repro.bench import cli
from repro.bench.schema import ResultTable, experiment_result

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _fake_result(name):
    return experiment_result(
        name, f"stub {name}", [ResultTable(["k", "v"], [["cell", 1.0]])]
    )


@pytest.fixture
def dispatches(monkeypatch):
    """Record every dispatch instead of running anything real."""
    calls = []
    monkeypatch.setattr(
        "repro.bench.api.run",
        lambda name, **kwargs: calls.append(("run", name, kwargs))
        or _fake_result(name),
    )
    monkeypatch.setattr(
        "repro.bench.snapshot.run",
        lambda args: calls.append(("snapshot", vars(args))) or 0,
    )
    monkeypatch.setattr(
        "repro.bench.history.run",
        lambda args: calls.append(("compare", vars(args))) or 0,
    )
    monkeypatch.setattr(
        "repro.bench.cli._orchestrate_command",
        lambda args: calls.append(("orchestrate", vars(args))) or 0,
    )
    monkeypatch.setattr(
        "repro.bench.cli._report_command",
        lambda args: calls.append(("report", vars(args))) or 0,
    )
    return calls


def _doc_invocations() -> list[list[str]]:
    """Every concrete ``repro-bench ...`` command in the user docs."""
    commands = set()
    for fname in ("README.md", "EXPERIMENTS.md"):
        text = (ROOT / fname).read_text()
        for m in re.finditer(r"`(repro-bench [^`]*)`", text):
            commands.add(m.group(1))
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("repro-bench "):
                commands.add(line.split("#")[0].strip())
    def _placeholder(arg: str) -> bool:
        # `<name>`, `[--quick]`, `OLD`, `N`, ... are schematic, not runnable
        return "<" in arg or "[" in arg or arg.strip("-.").isupper()

    out = []
    for command in sorted(commands):
        argv = shlex.split(command)[1:]
        if not argv or any(_placeholder(a) for a in argv):
            continue
        out.append(argv)
    return out


def test_docs_mention_invocations_at_all():
    assert len(_doc_invocations()) >= 10


@pytest.mark.parametrize(
    "argv",
    _doc_invocations(),
    # an experiment run is named by the experiment and its flags, without
    # the 'run' keyword every one of them takes
    ids=lambda a: " ".join(a[1:] if a[0] == "run" else a),
)
def test_every_documented_invocation_parses_and_dispatches(argv, dispatches):
    assert cli.main(argv) == 0
    assert dispatches, argv


def test_json_envelope_shape_is_stable(dispatches, capsys):
    assert cli.main(["run", "fig3", "--quick", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["backend", "experiments", "quick", "scale"]
    (record,) = doc["experiments"]
    assert sorted(record) == ["experiment", "result", "seconds"]
    assert record["experiment"] == "fig3"
    assert record["result"]["kind"] == "repro-bench-result"


def test_ignored_knob_notes_keep_legacy_wording(dispatches, capsys):
    assert cli.main(["run", "fig3", "--quick", "--engine", "processes"]) == 0
    err = capsys.readouterr().err
    assert (
        "[fig3] note: --engine/--procs ignored "
        "(experiment is simulated-machine only)" in err
    )
    assert cli.main(["run", "fig3", "--quick", "--matrix", "nd24k"]) == 0
    err = capsys.readouterr().err
    assert (
        "[fig3] note: --matrix ignored (experiment runs the paper suite)"
        in err
    )


def test_direction_flag_reaches_dispatch(dispatches):
    assert cli.main(["run", "fig5", "--quick", "--direction", "pull"]) == 0
    kind, name, kwargs = dispatches[-1]
    assert (kind, name, kwargs["direction"]) == ("run", "fig5", "pull")


def test_usage_errors_exit_2(dispatches):
    for argv in (
        [],
        ["not-an-experiment"],
        ["fig3"],  # experiments run only under the 'run' subcommand
        ["run"],
        ["run", "not-an-experiment"],
        ["run", "fig3", "--direction", "sideways"],
        ["orchestrate"],
        ["report"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


def test_orchestrate_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["orchestrate", str(tmp_path / "nope.json")]) == 2
    assert "campaign error" in capsys.readouterr().err


def test_report_missing_dir_exits_2(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "nope")]) == 2
    assert "report error" in capsys.readouterr().err
