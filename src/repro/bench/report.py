"""Static HTML report over a campaign results directory + BENCH history.

:func:`render_report` reads a results directory written by
:mod:`repro.bench.orchestrate` (``manifest.json`` plus one
``ExperimentResult`` JSON per run) and every ``BENCH.json`` /
``BENCH_*.json`` snapshot it can find (the committed perf history, read
through :mod:`repro.bench.history`), and writes a self-contained site:

* ``index.html`` — campaign summary, per-experiment result tables, and
  metric trend plots across the snapshot history;
* ``matrix-<name>.html`` — one drilldown per matrix: that matrix's runs
  and the history metrics that mention it.

No JavaScript and no plotting dependency: trend plots are inline SVG
(native ``<title>`` tooltips), every plot carries its data as an HTML
table, and light/dark theming is CSS custom properties.
"""

from __future__ import annotations

import html
import json
import pathlib

from .schema import RESULT_KIND, ExperimentResult, SchemaError

__all__ = ["render_report"]

_esc = html.escape

# Chart palette (light/dark) — series ink, surfaces, and text tokens.
# Single-series line plots: the title names the series, so no legend.
_STYLE = """\
:root {
  --surface: #fcfcfb; --surface-raised: #f4f4f2;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --series-1: #2a78d6; --series-2: #eb6834;
  --grid: #e6e5e1; --border: #dddcd7;
  --good: #1a7f37; --bad: #b42318;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --surface-raised: #242423;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --series-1: #3987e5; --series-2: #d95926;
    --grid: #33332f; --border: #3c3b36;
    --good: #4ade80; --bad: #f87171;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 1.5rem; max-width: 72rem;
  background: var(--surface); color: var(--text-primary);
  font: 15px/1.5 system-ui, sans-serif;
}
h1, h2, h3 { line-height: 1.25; }
h2 { margin-top: 2.5rem; border-bottom: 1px solid var(--border);
     padding-bottom: .3rem; }
a { color: var(--series-1); }
.meta, caption, figcaption { color: var(--text-secondary); }
.tiles { display: flex; gap: .75rem; flex-wrap: wrap; margin: 1rem 0; }
.tile {
  background: var(--surface-raised); border: 1px solid var(--border);
  border-radius: 8px; padding: .6rem 1.1rem; min-width: 7.5rem;
}
.tile .value { font-size: 1.6rem; font-weight: 600; }
.tile .label { color: var(--text-secondary); font-size: .82rem; }
table { border-collapse: collapse; margin: .75rem 0; }
caption { caption-side: top; text-align: left; padding-bottom: .25rem; }
th, td {
  border: 1px solid var(--border); padding: .25rem .6rem;
  text-align: right; font-variant-numeric: tabular-nums;
}
th { background: var(--surface-raised); }
th:first-child, td:first-child { text-align: left; }
.status-done { color: var(--good); }
.status-failed { color: var(--bad); }
.plots { display: flex; flex-wrap: wrap; gap: 1.25rem; }
figure { margin: 0; }
figure svg { display: block; }
details > summary { cursor: pointer; color: var(--text-secondary); }
.note { color: var(--text-secondary); font-size: .9rem; max-width: 60rem; }
"""


def _fmt(value) -> str:
    """Scalar formatting, matching the text reports' conventions."""
    from .reporting import _fmt_cell

    return _fmt_cell(value)


def _table_html(headers, rows, title=None) -> str:
    parts = ["<table>"]
    if title:
        parts.append(f"<caption>{_esc(str(title))}</caption>")
    parts.append(
        "<tr>" + "".join(f"<th>{_esc(str(h))}</th>" for h in headers) + "</tr>"
    )
    for row in rows:
        parts.append(
            "<tr>" + "".join(f"<td>{_esc(_fmt(c))}</td>" for c in row) + "</tr>"
        )
    parts.append("</table>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Trend plots (inline SVG, one metric per plot)
# ----------------------------------------------------------------------
def _ticks(lo: float, hi: float, n: int = 4) -> list[float]:
    if hi <= lo:
        hi = lo + (abs(lo) or 1.0)
    step = (hi - lo) / n
    return [lo + i * step for i in range(n + 1)]


def _svg_trend(metric: str, unit: str, points: list[tuple[str, float]]) -> str:
    """One metric's history as an SVG line: x = snapshots, y = value.

    ``points`` is ``[(snapshot_label, value), ...]``, oldest first.
    Single series, so the figure title names it and there is no legend;
    each marker carries a native ``<title>`` tooltip.
    """
    width, height = 380, 190
    left, right, top, bottom = 52, 14, 12, 34
    plot_w, plot_h = width - left - right, height - top - bottom
    values = [v for _, v in points]
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        lo, hi = lo - pad, hi + pad
    else:
        pad = (hi - lo) * 0.08
        lo, hi = lo - pad, hi + pad

    def x(i: int) -> float:
        if len(points) == 1:
            return left + plot_w / 2
        return left + plot_w * i / (len(points) - 1)

    def y(v: float) -> float:
        return top + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="{_esc(metric)} across snapshots">'
    ]
    for tick in _ticks(lo, hi):
        ty = y(tick)
        parts.append(
            f'<line x1="{left}" y1="{ty:.1f}" x2="{width - right}" '
            f'y2="{ty:.1f}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{ty + 4:.1f}" text-anchor="end" '
            f'font-size="10" fill="var(--text-secondary)">{_esc(_fmt(tick))}</text>'
        )
    poly = " ".join(f"{x(i):.1f},{y(v):.1f}" for i, (_, v) in enumerate(points))
    parts.append(
        f'<polyline points="{poly}" fill="none" stroke="var(--series-1)" '
        f'stroke-width="2" stroke-linejoin="round"/>'
    )
    for i, (label, v) in enumerate(points):
        parts.append(
            f'<circle cx="{x(i):.1f}" cy="{y(v):.1f}" r="4" '
            f'fill="var(--series-1)" stroke="var(--surface)" stroke-width="2">'
            f"<title>{_esc(label)}: {_esc(_fmt(v))} {_esc(unit)}</title></circle>"
        )
        parts.append(
            f'<text x="{x(i):.1f}" y="{height - bottom + 14}" '
            f'text-anchor="middle" font-size="10" '
            f'fill="var(--text-secondary)">{_esc(label)}</text>'
        )
    first, last = points[0][1], points[-1][1]
    for i, v in ((0, first), (len(points) - 1, last)):
        anchor = "start" if i == 0 else "end"
        parts.append(
            f'<text x="{x(i):.1f}" y="{y(v) - 8:.1f}" text-anchor="{anchor}" '
            f'font-size="10" fill="var(--text-secondary)">{_esc(_fmt(v))}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _trend_figures(history_docs, limit: int = 12) -> list[str]:
    """Figure blocks (SVG + data table) for the history metrics.

    Metrics present in both the oldest and newest snapshot come first —
    those are the series that actually span the repo's history — then
    any other metric with at least two points, up to ``limit``.
    """
    if len(history_docs) < 2:
        return []
    labels = [label for label, _ in history_docs]
    series: dict[str, list[tuple[str, float]]] = {}
    units: dict[str, str] = {}
    for label, doc in history_docs:
        for name, m in doc["metrics"].items():
            value = m.get("value")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                series.setdefault(name, []).append((label, float(value)))
                units.setdefault(name, m.get("unit", ""))
    first_names = {n for n, pts in series.items() if pts[0][0] == labels[0]}
    last_names = {n for n, pts in series.items() if pts[-1][0] == labels[-1]}
    spanning = sorted(first_names & last_names)
    rest = sorted(
        n for n in series if n not in set(spanning) and len(series[n]) >= 2
    )
    figures = []
    for name in (spanning + rest)[:limit]:
        points = series[name]
        if len(points) < 2:
            continue
        svg = _svg_trend(name, units[name], points)
        table = _table_html(
            ["snapshot", f"value ({units[name]})"],
            [[label, v] for label, v in points],
        )
        figures.append(
            f"<figure><figcaption>{_esc(name)} "
            f"[{_esc(units[name])}]</figcaption>{svg}"
            f"<details><summary>data</summary>{table}</details></figure>"
        )
    return figures


# ----------------------------------------------------------------------
# Page assembly
# ----------------------------------------------------------------------
def _page(title: str, body: str) -> str:
    return (
        "<!doctype html>\n<html lang=\"en\">\n<head>\n"
        '<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n<style>\n{_STYLE}</style>\n"
        f"</head>\n<body>\n{body}\n</body>\n</html>\n"
    )


def _result_html(result: ExperimentResult) -> str:
    parts = []
    for table in result.tables:
        parts.append(_table_html(table.headers, table.rows, title=table.title))
    for note in result.notes:
        parts.append(f'<p class="note">{_esc(note)}</p>')
    return "\n".join(parts)


def _run_matrix_label(entry: dict) -> str | None:
    params = entry.get("params", {})
    names = params.get("names")
    if names:
        return str(names[0]) if len(names) == 1 else None
    matrix = params.get("matrix")
    if matrix:
        return str(matrix)
    return None


def _matrix_slug(label: str) -> str:
    return label.replace(":", "-").replace("/", "-")


def _load_results(results_dir: pathlib.Path):
    """``(manifest_or_None, {hash_or_name: (entry, result)})`` from disk."""
    manifest = None
    manifest_path = results_dir / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    loaded: list[tuple[dict, ExperimentResult | None]] = []
    if manifest is not None:
        for entry in manifest.get("runs", {}).values():
            result = None
            path = results_dir / entry.get("file", "")
            if entry.get("status") == "done" and path.exists():
                result = ExperimentResult.from_dict(json.loads(path.read_text()))
            loaded.append((dict(entry), result))
    else:
        # a bare directory of result files still renders (no manifest)
        for path in sorted(results_dir.glob("*.json")):
            try:
                doc = json.loads(path.read_text())
            except json.JSONDecodeError:
                continue
            if doc.get("kind") != RESULT_KIND:
                continue
            result = ExperimentResult.from_dict(doc)
            loaded.append(
                (
                    {
                        "run_id": path.stem,
                        "experiment": result.name,
                        "params": dict(result.params),
                        "status": "done",
                        "file": path.name,
                        "seconds": None,
                        "attempts": None,
                        "error": None,
                    },
                    result,
                )
            )
    return manifest, loaded


def _load_history(history) -> list[tuple[str, dict]]:
    """``[(label, snapshot_doc), ...]`` oldest first, unreadables skipped."""
    from .history import _doc_label, _sort_key, load_snapshot_file, snapshot_files

    if history is None:
        history = snapshot_files(pathlib.Path())
    docs = []
    for path in history:
        path = pathlib.Path(path)
        try:
            docs.append((path, load_snapshot_file(path)))
        except (OSError, SchemaError):
            continue
    docs.sort(key=lambda pd: _sort_key(*pd))
    return [(_doc_label(p, d), d) for p, d in docs]


def render_report(
    results_dir,
    out=None,
    *,
    history: list | None = None,
) -> pathlib.Path:
    """Render the report site; return the ``index.html`` path.

    ``results_dir`` is a campaign output directory (or any directory of
    ``ExperimentResult`` JSONs).  ``out`` defaults to
    ``results_dir/report``.  ``history`` is an explicit list of snapshot
    paths; by default every snapshot in the current directory
    (``BENCH.json``, ``BENCH_*.json``) — the committed perf history —
    feeds the trend plots.
    """
    results_dir = pathlib.Path(results_dir)
    if not results_dir.is_dir():
        raise SchemaError(f"results directory {results_dir} does not exist")
    out_dir = pathlib.Path(out) if out is not None else results_dir / "report"
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest, loaded = _load_results(results_dir)
    history_docs = _load_history(history)
    campaign = (manifest or {}).get("campaign", results_dir.name)

    statuses = [entry["status"] for entry, _ in loaded]
    by_experiment: dict[str, list] = {}
    by_matrix: dict[str, list] = {}
    for entry, result in loaded:
        by_experiment.setdefault(entry["experiment"], []).append((entry, result))
        label = _run_matrix_label(entry)
        if label is not None:
            by_matrix.setdefault(label, []).append((entry, result))

    # ------------------------------------------------------------------
    # index.html
    # ------------------------------------------------------------------
    body = [f"<h1>repro-bench campaign: {_esc(str(campaign))}</h1>"]
    commits = {
        (result.environment.get("git") or {}).get("commit")
        for _, result in loaded
        if result is not None
    } - {None}
    meta_bits = [f"{len(loaded)} run(s)"]
    if commits:
        meta_bits.append(
            "commit " + ", ".join(_esc(str(c)[:12]) for c in sorted(commits))
        )
    body.append(f'<p class="meta">{" · ".join(meta_bits)}</p>')
    body.append('<div class="tiles">')
    for label, count in (
        ("done", statuses.count("done")),
        ("failed", statuses.count("failed")),
        ("experiments", len(by_experiment)),
        ("snapshots", len(history_docs)),
    ):
        body.append(
            f'<div class="tile"><div class="value">{count}</div>'
            f'<div class="label">{_esc(label)}</div></div>'
        )
    body.append("</div>")

    if loaded:
        body.append("<h2>Runs</h2>")
        rows = []
        for entry, _ in loaded:
            status = entry["status"]
            rows.append(
                [
                    entry["run_id"],
                    entry["experiment"],
                    _run_matrix_label(entry) or "suite",
                    entry.get("params", {}).get("engine") or "simulated",
                    f"§{status}§",
                    "-" if entry.get("seconds") is None else entry["seconds"],
                ]
            )
        table = _table_html(
            ["run", "experiment", "matrix", "engine", "status", "s"],
            rows,
        )
        for status in ("done", "failed", "pending"):
            table = table.replace(
                f"§{status}§", f'<span class="status-{status}">{status}</span>'
            )
        body.append(table)

    if by_matrix:
        links = " · ".join(
            f'<a href="matrix-{_esc(_matrix_slug(m))}.html">{_esc(m)}</a>'
            for m in sorted(by_matrix)
        )
        body.append(f'<p class="meta">Matrix drilldowns: {links}</p>')

    figures = _trend_figures(history_docs)
    if figures:
        body.append("<h2>Metric trends across the BENCH history</h2>")
        body.append(
            '<p class="meta">One plot per metric; snapshots oldest → '
            "newest. Hover a marker for the value; every plot carries its "
            "data table.</p>"
        )
        body.append('<div class="plots">')
        body.extend(figures)
        body.append("</div>")

    for experiment in sorted(by_experiment):
        body.append(f"<h2>{_esc(experiment)}</h2>")
        for entry, result in by_experiment[experiment]:
            body.append(f"<h3>{_esc(entry['run_id'])}</h3>")
            if result is None:
                error = entry.get("error") or "not run"
                body.append(
                    f'<p class="status-failed">{_esc(str(error))}</p>'
                )
                continue
            body.append(f'<p class="meta">{_esc(result.title)}</p>')
            body.append(_result_html(result))

    index_path = out_dir / "index.html"
    index_path.write_text(_page(f"repro-bench · {campaign}", "\n".join(body)))

    # ------------------------------------------------------------------
    # matrix-<name>.html drilldowns
    # ------------------------------------------------------------------
    for matrix, runs in by_matrix.items():
        mbody = [f"<h1>matrix: {_esc(matrix)}</h1>"]
        mbody.append('<p class="meta"><a href="index.html">← campaign index</a></p>')
        mfigures = [
            fig
            for fig in _trend_figures(history_docs, limit=1 << 30)
            if f".{matrix}." in fig or f">{matrix}<" in fig
        ]
        if mfigures:
            mbody.append("<h2>History metrics mentioning this matrix</h2>")
            mbody.append('<div class="plots">')
            mbody.extend(mfigures)
            mbody.append("</div>")
        for entry, result in runs:
            mbody.append(f"<h2>{_esc(entry['run_id'])}</h2>")
            if result is None:
                mbody.append(
                    f'<p class="status-failed">'
                    f"{_esc(str(entry.get('error') or 'not run'))}</p>"
                )
                continue
            mbody.append(f'<p class="meta">{_esc(result.title)}</p>')
            mbody.append(_result_html(result))
        (out_dir / f"matrix-{_matrix_slug(matrix)}.html").write_text(
            _page(f"repro-bench · {matrix}", "\n".join(mbody))
        )
    return index_path
