"""``repro-bench compare`` — perf-history diffing and the regression gate.

Loads two ``BENCH.json`` snapshots (see :mod:`repro.bench.snapshot`),
normalizes wall-clock metrics by each snapshot's machine score, and
classifies every metric:

``improved``
    The normalized change beats the tolerance in the metric's good
    direction.
``flat``
    Within tolerance either way (the boundary itself counts as flat).
``regressed``
    The normalized change exceeds the tolerance in the bad direction —
    the gate: :func:`main` exits non-zero.
``new`` / ``missing``
    Metric present in only NEW / only OLD.  A missing metric also fails
    the gate (a silently-dropped measurement is how trajectories go
    dark) unless ``--allow-missing``.
``skipped``
    Both sides present but measured with different params (e.g. scale) —
    reported, never compared.

The command also prints a **trend table** across every snapshot next to
the inputs (:func:`snapshot_files`), so the repo's whole perf trajectory
reads as one series.

Exit codes: 0 clean, 1 regression/missing-metric, 2 schema violation or
usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass

from .schema import SchemaError
from .snapshot import validate_snapshot

__all__ = [
    "MetricComparison",
    "load_snapshot_file",
    "snapshot_files",
    "compare_docs",
    "classify",
    "format_comparison",
    "trend_table",
    "main",
]

#: Default multiplicative tolerance: changes within [1/x, x] are flat.
DEFAULT_TOLERANCE = 1.5

#: Normalized values below this floor are treated as "about zero" — the
#: comparator never divides by a smaller number, so zero/near-zero
#: baselines classify deterministically instead of crashing.
NEAR_ZERO = 1e-9

_STATUSES = ("regressed", "missing", "skipped", "new", "improved", "flat")


@dataclass(frozen=True)
class MetricComparison:
    """One metric's classification between two snapshots."""

    name: str
    status: str
    old_value: float | None = None
    new_value: float | None = None
    ratio: float | None = None
    detail: str = ""
    #: False for informational metrics (``"gate": false`` in the
    #: snapshot): classified and trended normally, never a CI failure.
    gates: bool = True


def snapshot_files(directory) -> list[pathlib.Path]:
    """The snapshots in ``directory``: ``BENCH.json`` and ``BENCH_*.json``.

    A bare ``BENCH*.json`` glob would also pick up other files, such as
    the ``BENCHMARK.json`` benchmark declaration.
    """
    return sorted(
        p
        for p in pathlib.Path(directory).glob("BENCH*.json")
        if p.name == "BENCH.json" or p.name.startswith("BENCH_")
    )


def load_snapshot_file(path) -> dict:
    """Read + validate one snapshot."""
    path = pathlib.Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise SchemaError(f"snapshot file not found: {path}") from None
    except OSError as exc:
        # e.g. a directory or unreadable file named like a snapshot — the
        # trend loop must be able to skip it, not die in a traceback
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    validate_snapshot(doc)
    return doc


def _normalized(doc: dict, m: dict, use_score: bool) -> float:
    value = float(m["value"])
    if use_score and m.get("normalize"):
        return value / float(doc["machine_score_seconds"])
    return value


def classify(
    old_norm: float, new_norm: float, direction: str, tolerance: float
) -> tuple[str, float]:
    """``(status, effective_ratio)`` of one metric pair.

    The effective ratio is oriented so that > 1 is always *worse*:
    ``new/old`` for lower-is-better metrics, ``old/new`` for
    higher-is-better.  Near-zero values are floored at
    :data:`NEAR_ZERO` before dividing, so a ~0 baseline yields a huge
    (but finite) ratio rather than a crash, and two ~0 values compare
    flat.  The tolerance boundary itself is flat — only strictly beyond
    it classifies.
    """
    worse = max(new_norm, NEAR_ZERO) if direction == "lower" else max(old_norm, NEAR_ZERO)
    better = max(old_norm, NEAR_ZERO) if direction == "lower" else max(new_norm, NEAR_ZERO)
    ratio = worse / better
    if ratio > tolerance:
        return "regressed", ratio
    if ratio < 1.0 / tolerance:
        return "improved", ratio
    return "flat", ratio


def compare_docs(
    old: dict, new: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[MetricComparison]:
    """Classify every metric of the union of OLD and NEW."""
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must be > 1 (multiplicative), got {tolerance}")
    old_metrics, new_metrics = old["metrics"], new["metrics"]
    use_score = bool(old.get("machine_score_seconds")) and bool(
        new.get("machine_score_seconds")
    )
    out: list[MetricComparison] = []
    for name in sorted(set(old_metrics) | set(new_metrics)):
        om, nm = old_metrics.get(name), new_metrics.get(name)
        if om is None:
            out.append(
                MetricComparison(name, "new", None, nm["value"], detail="not in OLD")
            )
            continue
        if nm is None:
            out.append(
                MetricComparison(name, "missing", om["value"], None, detail="not in NEW")
            )
            continue
        if om.get("params") != nm.get("params"):
            out.append(
                MetricComparison(
                    name,
                    "skipped",
                    om["value"],
                    nm["value"],
                    detail=f"params differ: {om.get('params')} vs {nm.get('params')}",
                )
            )
            continue
        if (om.get("direction"), om.get("normalize")) != (
            nm.get("direction"),
            nm.get("normalize"),
        ):
            # metric definition changed between snapshot versions —
            # normalizing one side but not the other would be nonsense
            out.append(
                MetricComparison(
                    name,
                    "skipped",
                    om["value"],
                    nm["value"],
                    detail="metric definition differs (direction/normalize)",
                )
            )
            continue
        status, ratio = classify(
            _normalized(old, om, use_score),
            _normalized(new, nm, use_score),
            nm["direction"],
            tolerance,
        )
        # a metric is informational unless BOTH sides declare it gating —
        # host-environment-sensitive measurements (e.g. absolute peak RSS,
        # which swings with THP/memory pressure) are trended, never gated
        gates = bool(om.get("gate", True)) and bool(nm.get("gate", True))
        detail = "normalized by machine score" if (use_score and om.get("normalize")) else ""
        if not gates:
            detail = (detail + "; " if detail else "") + "informational (gate=false)"
        out.append(
            MetricComparison(
                name, status, om["value"], nm["value"], ratio, detail, gates
            )
        )
    return out


def gate_failures(
    comparisons: list[MetricComparison], allow_missing: bool = False
) -> list[MetricComparison]:
    """The comparisons that should fail the CI gate."""
    bad = {"regressed"} if allow_missing else {"regressed", "missing"}
    return [c for c in comparisons if c.status in bad and c.gates]


def format_comparison(comparisons: list[MetricComparison], tolerance: float) -> str:
    from .reporting import format_table

    order = {s: i for i, s in enumerate(_STATUSES)}
    rows = []
    for c in sorted(comparisons, key=lambda c: (order[c.status], c.name)):
        rows.append(
            [
                c.name,
                "-" if c.old_value is None else c.old_value,
                "-" if c.new_value is None else c.new_value,
                "-" if c.ratio is None else f"{c.ratio:.2f}x",
                c.status,
                c.detail,
            ]
        )
    counts = {}
    for c in comparisons:
        counts[c.status] = counts.get(c.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    table = format_table(
        ["metric", "old", "new", "worse-by", "status", "detail"],
        rows,
        title=f"Comparison at tolerance {tolerance}x ({summary}):",
    )
    return table


def _doc_label(path: pathlib.Path, doc: dict) -> str:
    return doc.get("label") or path.stem.replace("BENCH_", "").replace("BENCH", "HEAD")


def _sort_key(path: pathlib.Path, doc: dict):
    # PR<n>-labelled snapshots first, in PR order; the others after, by
    # filename — with BENCH.json (the committed baseline, hence the
    # oldest of them in the CI compare flow) leading
    label = doc.get("label") or ""
    if label.startswith("PR") and label[2:].isdigit():
        return (0, int(label[2:]), path.name)
    return (1, 0, "" if path.name == "BENCH.json" else path.name)


def trend_table(
    paths: list[pathlib.Path], preloaded: dict[pathlib.Path, dict] | None = None
) -> str:
    """One column per snapshot, one row per metric seen anywhere.

    Unparseable files are skipped with a warning on stderr — the trend
    is a reading aid, not a gate.  ``preloaded`` maps resolved paths to
    already-validated documents (the compare CLI passes its two inputs
    so they are not read and validated twice).
    """
    from .reporting import format_table

    preloaded = preloaded or {}
    docs: list[tuple[pathlib.Path, dict]] = []
    for path in paths:
        try:
            doc = preloaded.get(path.resolve()) or load_snapshot_file(path)
            docs.append((path, doc))
        except SchemaError as exc:
            print(f"[trend] skipping {path}: {exc}", file=sys.stderr)
    docs.sort(key=lambda pd: _sort_key(*pd))
    if not docs:
        return "(no readable snapshots for the trend table)"
    labels = [_doc_label(p, d) for p, d in docs]
    names = sorted({name for _, d in docs for name in d["metrics"]})
    rows = []
    for name in names:
        row: list[object] = [name]
        for _, d in docs:
            m = d["metrics"].get(name)
            row.append("-" if m is None else m["value"])
        rows.append(row)
    return format_table(
        ["metric"] + labels,
        rows,
        title=f"Trend across {len(docs)} snapshots (raw values, oldest first):",
    )


def _trend_paths(old: pathlib.Path, new: pathlib.Path) -> list[pathlib.Path]:
    dirs = {old.resolve().parent, new.resolve().parent}
    found = {p.resolve() for d in dirs for p in snapshot_files(d)}
    found.update({old.resolve(), new.resolve()})
    return sorted(found)


DESCRIPTION = (
    "Diff two BENCH.json snapshots, print the per-metric "
    "classification and the trend across all BENCH.json/BENCH_*.json "
    "snapshots, and exit non-zero on regression."
)


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Install the compare flags (shared by the unified CLI)."""
    parser.add_argument(
        "old",
        metavar="OLD",
        nargs="?",
        default=None,
        help="baseline snapshot (e.g. BENCH.json); optional with --trend",
    )
    parser.add_argument(
        "new",
        metavar="NEW",
        nargs="?",
        default=None,
        help="fresh snapshot to judge; optional with --trend",
    )
    parser.add_argument(
        "--trend",
        action="store_true",
        help=(
            "trend-only mode: print the table across every snapshot "
            "in the inputs' directories (or the current directory when "
            "OLD/NEW are omitted) and exit 0 — no gate"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="X",
        help=(
            "multiplicative tolerance: a metric must get worse by more "
            f"than X (normalized) to regress (default {DEFAULT_TOLERANCE})"
        ),
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="do not fail the gate when OLD metrics are absent from NEW",
    )
    parser.add_argument(
        "--no-trend",
        action="store_true",
        help="skip the snapshot trend table",
    )
    parser.set_defaults(_parser=parser)
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute a parsed compare invocation."""
    if args.tolerance <= 1.0:
        args._parser.error(f"--tolerance must be > 1, got {args.tolerance}")
    if args.trend:
        # fuzzbench-style continuous-benchmarking view: the whole
        # snapshot history as one table, no gating — the inputs (if
        # any) only widen the directories searched
        dirs = {pathlib.Path()} | {
            pathlib.Path(a).resolve().parent
            for a in (args.old, args.new)
            if a is not None
        }
        paths = sorted(
            {p.resolve() for d in dirs for p in snapshot_files(d)}
            | {pathlib.Path(a).resolve() for a in (args.old, args.new) if a is not None}
        )
        print(trend_table(paths))
        return 0
    if args.old is None or args.new is None:
        args._parser.error("OLD and NEW are required unless --trend is given")
    old_path, new_path = pathlib.Path(args.old), pathlib.Path(args.new)
    try:
        old = load_snapshot_file(old_path)
        new = load_snapshot_file(new_path)
        comparisons = compare_docs(old, new, args.tolerance)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    print(format_comparison(comparisons, args.tolerance))
    if not args.no_trend:
        print()
        cache = {old_path.resolve(): old, new_path.resolve(): new}
        print(trend_table(_trend_paths(old_path, new_path), preloaded=cache))
    failures = gate_failures(comparisons, allow_missing=args.allow_missing)
    if failures:
        print(
            f"\nFAIL: {len(failures)} gating metric(s): "
            + ", ".join(f"{c.name} [{c.status}]" for c in failures),
            file=sys.stderr,
        )
        return 1
    print("\nOK: no regressions beyond tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (the unified CLI calls :func:`run`)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench compare", description=DESCRIPTION
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
