"""Command-line entry point: ``repro-bench`` / ``python -m repro.bench``.

One subcommand parser over the whole benchmark surface:

``repro-bench run EXPERIMENT``
    Regenerate one paper table/figure (or ``all``)::

        repro-bench run fig1
        repro-bench run fig4 --quick --matrices nd24k ldoor
        repro-bench run backend-ablation --quick --backend scipy --json
        repro-bench run calibration --engine processes --procs 4

``repro-bench snapshot`` / ``repro-bench compare``
    The perf-gate subsystem::

        repro-bench snapshot --quick
        repro-bench compare BENCH.json BENCH_NEW.json --tolerance 2.5

``repro-bench orchestrate CONFIG`` / ``repro-bench report DIR``
    Declarative campaigns (experiments x matrices x engines x backends
    x directions from a JSON/TOML config) fanned out over a worker
    pool, with a resumable manifest and a static HTML report::

        repro-bench orchestrate examples/campaign-quick.json --report
        repro-bench report campaign-out

Programmatic access is :func:`repro.bench.run`,
:func:`repro.bench.orchestrate`, and :func:`repro.bench.render_report`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .harness import EXPERIMENTS

__all__ = ["main", "build_parser"]


def _backend_spec(text: str) -> str:
    """argparse type for ``--backend``: validate and canonicalize a spec."""
    from .api import resolve_backend_spec

    try:
        return resolve_backend_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    from ..backends import available_backends, default_backend

    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate ('all' runs every one)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="linear mesh-dimension multiplier of the suite surrogates",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="trim the matrix list and core-count axis (CI-speed run)",
    )
    parser.add_argument(
        "--matrices",
        nargs="*",
        default=None,
        metavar="NAME",
        help="restrict suite experiments to these matrices",
    )
    parser.add_argument(
        "--backend",
        type=_backend_spec,
        default=default_backend(),
        metavar="SPEC",
        help=(
            "kernel backend spec for every SpMSpV/BFS hot kernel: a "
            f"registered name ({', '.join(available_backends())}) "
            "optionally with knobs, e.g. numba:threads=4"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=["simulated", "processes"],
        default=None,
        help=(
            "execution engine for engine-aware experiments (currently "
            "'calibration'): 'simulated' charges modeled time only, "
            "'processes' runs supersteps and collectives on a real "
            "worker-process pool and measures wall-clock"
        ),
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        metavar="N",
        help="worker-process count for --engine processes (default 4)",
    )
    parser.add_argument(
        "--matrix",
        default=None,
        metavar="SPEC",
        help=(
            "matrix spec for matrix-aware experiments (currently "
            "'ingest'): 'zoo:<name>' streams a graph-zoo workload "
            "(e.g. zoo:rmat18, zoo:road-2048), a bare name builds a "
            "paper-suite surrogate"
        ),
    )
    parser.add_argument(
        "--direction",
        choices=["push", "pull", "adaptive"],
        default=None,
        help=(
            "SpMSpV traversal for the strong-scaling sweeps "
            "(fig4/fig5/fig6); default is the paper's push"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the structured ExperimentResult documents as one JSON "
            "object instead of plain-text reports (uniform across every "
            "experiment; tables and expected-shape notes included)"
        ),
    )


#: Flag spelling of each ignorable knob group in the ignored-knob notes.
_KNOB_FLAGS = {
    "matrix": "--matrix",
    "engine/procs": "--engine/--procs",
    "direction": "--direction",
}


def _run_command(args: argparse.Namespace) -> int:
    from .api import normalize_kwargs, run

    chosen = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    records = []
    for name in chosen:
        _, ignored = normalize_kwargs(
            name,
            names=args.matrices,
            engine=args.engine,
            procs=args.procs,
            matrix=args.matrix,
            direction=args.direction,
        )
        for knob, reason in ignored:
            flag = _KNOB_FLAGS.get(knob, f"--{knob}")
            print(f"[{name}] note: {flag} ignored ({reason})", file=sys.stderr)
        t0 = time.perf_counter()
        result = run(
            name,
            scale=args.scale,
            quick=args.quick,
            names=args.matrices,
            engine=args.engine,
            procs=args.procs,
            backend=args.backend,
            direction=args.direction,
            matrix=args.matrix,
        )
        elapsed = time.perf_counter() - t0
        if args.json:
            records.append(
                {
                    "experiment": name,
                    "seconds": elapsed,
                    "result": result.to_dict(),
                }
            )
        else:
            print(result.render())
            print(f"[{name}] harness wall time: {elapsed:.1f}s\n")
    if args.json:
        print(
            json.dumps(
                {
                    "backend": args.backend,
                    "scale": args.scale,
                    "quick": args.quick,
                    "experiments": records,
                },
                indent=2,
            )
        )
    return 0


def _orchestrate_command(args: argparse.Namespace) -> int:
    from .orchestrate import orchestrate

    try:
        outcome = orchestrate(
            args.config,
            out=args.out,
            report=args.report,
            echo=lambda line: print(line, file=sys.stderr),
        )
    except (ValueError, OSError) as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    print(outcome.summary())
    if outcome.report_path is not None:
        print(f"report: {outcome.report_path}")
    return 0 if outcome.ok else 1


def _report_command(args: argparse.Namespace) -> int:
    from .report import render_report

    try:
        index = render_report(args.results_dir, out=args.out)
    except (ValueError, OSError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    print(f"report: {index}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The one parser behind every ``repro-bench`` invocation."""
    from . import history, snapshot

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the tables and figures of 'The Reverse "
            "Cuthill-McKee Algorithm in Distributed-Memory' (IPDPS 2017) "
            "on the simulated distributed machine, manage the perf "
            "history, and orchestrate benchmark campaigns."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    run_p = sub.add_parser(
        "run",
        help="run one experiment (or 'all') and print/serialize its result",
        description="Regenerate one paper table/figure.",
    )
    _add_run_arguments(run_p)
    run_p.set_defaults(_dispatch=_run_command)

    snap_p = sub.add_parser(
        "snapshot",
        help="measure the perf-metric set and write a BENCH.json snapshot",
        description=snapshot.DESCRIPTION,
    )
    snapshot.add_arguments(snap_p)
    snap_p.set_defaults(_dispatch=snapshot.run)

    cmp_p = sub.add_parser(
        "compare",
        help="diff two BENCH.json snapshots and gate on regressions",
        description=history.DESCRIPTION,
    )
    history.add_arguments(cmp_p)
    cmp_p.set_defaults(_dispatch=history.run)

    orch_p = sub.add_parser(
        "orchestrate",
        help="run a declarative benchmark campaign from a JSON/TOML config",
        description=(
            "Expand a campaign config (experiments x matrices x engines x "
            "backends x directions) into a run matrix, fan the runs out "
            "over a worker pool, persist each as an ExperimentResult "
            "JSON, and keep a resumable manifest — rerunning skips "
            "completed runs."
        ),
    )
    orch_p.add_argument("config", metavar="CONFIG", help="campaign config path")
    orch_p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="results directory (default: the config's 'out', else campaign-out)",
    )
    orch_p.add_argument(
        "--report",
        action="store_true",
        help="render the static HTML report after the campaign",
    )
    orch_p.set_defaults(_dispatch=_orchestrate_command)

    rep_p = sub.add_parser(
        "report",
        help="render the static HTML report for a campaign results directory",
        description=(
            "Render index.html (campaign tables, per-matrix drilldowns, "
            "and BENCH_*.json trend plots) from a results directory "
            "written by 'repro-bench orchestrate'."
        ),
    )
    rep_p.add_argument(
        "results_dir", metavar="DIR", help="campaign results directory"
    )
    rep_p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="report output directory (default: DIR/report)",
    )
    rep_p.set_defaults(_dispatch=_report_command)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args._dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
