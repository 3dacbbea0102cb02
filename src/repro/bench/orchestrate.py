"""Declarative benchmark campaigns: expand, fan out, persist, resume.

ROADMAP item 5, fuzzbench-style: a campaign config (JSON or TOML — see
:class:`repro.bench.schema.CampaignConfig`) names experiments x matrices
x engines x backends x directions; :func:`expand_runs` normalizes the
cross product per experiment (knobs an experiment does not implement are
dropped, then duplicate cells collapse) into a list of runs keyed by a
content hash of their normalized parameters.  :func:`orchestrate` fans
the runs out across a warmed :class:`repro.runtime.pool.WorkerPool`
(the ``bench_run`` task), persists each run as a schema-versioned
``ExperimentResult`` JSON under the results directory, and keeps a
``manifest.json`` checkpoint after every wave — rerunning the same
campaign skips completed runs entirely.

Failure semantics (reusing the PR 8 machinery):

* A run that *raises* returns its traceback in-band from the worker
  (the ``service_rcm`` convention) — deterministic, so it is marked
  failed immediately and the campaign continues.
* A run whose worker *crashes or hangs* (pool deadline) triggers
  :meth:`WorkerPool.repair`; the wave's runs are re-dispatched one at a
  time so only the poisoned run burns retries, until ``retries`` is
  exhausted — a wedged run can fail, never sink the campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from .schema import (
    MANIFEST_KIND,
    SCHEMA_VERSION,
    CampaignConfig,
    SchemaError,
)

__all__ = [
    "CampaignOutcome",
    "orchestrate",
    "expand_runs",
    "execute_run",
    "load_config",
]

#: Default results directory when neither ``--out`` nor the config say.
DEFAULT_OUT = "campaign-out"


def load_config(path) -> CampaignConfig:
    """Parse + validate a campaign config file (``.toml`` or JSON)."""
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read campaign config {path}: {exc}") from None
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            doc = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SchemaError(f"invalid TOML in {path}: {exc}") from None
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from None
    return CampaignConfig.from_dict(doc)


# ----------------------------------------------------------------------
# Run-matrix expansion
# ----------------------------------------------------------------------
def _run_hash(experiment: str, backend: str, kwargs: dict) -> str:
    """Content hash of a run's normalized parameters (the resume key)."""
    canonical = json.dumps(
        {"experiment": experiment, "backend": backend, **kwargs},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _slug(*pieces: str | None) -> str:
    safe = [
        str(p).replace(":", "-").replace("/", "-")
        for p in pieces
        if p is not None
    ]
    return "-".join(safe)


def expand_runs(config: CampaignConfig) -> list[dict]:
    """The campaign's normalized, deduplicated run list, in config order.

    Each run is ``{"hash", "run_id", "experiment", "backend", "kwargs"}``
    where ``kwargs`` is exactly what :func:`repro.bench.api.run` needs.
    A cell whose knobs an experiment does not implement normalizes to the
    same run as the default cell and is dropped, so an engine-unaware
    experiment runs once even under ``engines = [simulated, processes]``.
    ``zoo:`` matrix specs apply only to ``ingest`` — other experiments
    skip those cells (the zoo graphs are not paper-suite surrogates).
    """
    from .api import experiment_knobs, normalize_kwargs, resolve_backend_spec

    runs: list[dict] = []
    seen: set[str] = set()
    for experiment in config.experiments:
        for matrix in config.matrices:
            if (
                matrix is not None
                and matrix.startswith("zoo:")
                and experiment != "ingest"
            ):
                continue
            names = None
            matrix_spec = None
            if matrix is not None:
                if experiment == "ingest":
                    matrix_spec = matrix
                elif "names" in experiment_knobs(experiment):
                    names = [matrix]
            for engine in config.engines:
                for backend in config.backends:
                    # canonical spec string: "numba:threads=4" and its
                    # reorderings hash to the same run
                    resolved_backend = resolve_backend_spec(backend)
                    for direction in config.directions:
                        kwargs, _ = normalize_kwargs(
                            experiment,
                            scale=config.scale,
                            quick=config.quick,
                            names=names,
                            engine=engine,
                            procs=config.procs,
                            matrix=matrix_spec,
                            direction=direction,
                        )
                        digest = _run_hash(experiment, resolved_backend, kwargs)
                        if digest in seen:
                            continue
                        seen.add(digest)
                        runs.append(
                            {
                                "hash": digest,
                                "run_id": _slug(
                                    experiment,
                                    matrix if (names or matrix_spec) else None,
                                    kwargs.get("engine"),
                                    resolved_backend,
                                    kwargs.get("direction"),
                                    digest[:8],
                                ),
                                "experiment": experiment,
                                "backend": resolved_backend,
                                "kwargs": kwargs,
                            }
                        )
    return runs


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def execute_run(payload) -> tuple:
    """Run one campaign cell; report errors in-band (never raise).

    ``payload = (experiment, backend, kwargs)``.  Returns
    ``("ok", result_dict, seconds)`` or ``("err", traceback_text)`` —
    the ``service_rcm`` convention, so one failing experiment cannot
    abort the rest of its wave through :class:`TaskError`.
    """
    experiment, backend, kwargs = payload
    t0 = time.perf_counter()
    try:
        from .api import run

        result = run(experiment, backend=backend, **kwargs)
        return ("ok", result.to_dict(), time.perf_counter() - t0)
    except Exception:
        return ("err", traceback.format_exc())


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def _write_json(path: pathlib.Path, doc: dict) -> None:
    """Atomic write: a crashed campaign never leaves a torn manifest."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2) + "\n")
    os.replace(tmp, path)


def _load_manifest(path: pathlib.Path, config: CampaignConfig) -> dict:
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"unreadable campaign manifest {path}: {exc}") from None
        if doc.get("kind") != MANIFEST_KIND:
            raise SchemaError(
                f"{path} is not a campaign manifest "
                f"(kind {doc.get('kind')!r}, expected {MANIFEST_KIND!r})"
            )
        doc["config"] = config.to_dict()
        doc.setdefault("runs", {})
        return doc
    return {
        "kind": MANIFEST_KIND,
        "schema_version": SCHEMA_VERSION,
        "campaign": config.name,
        "config": config.to_dict(),
        "runs": {},
    }


@dataclass
class CampaignOutcome:
    """What :func:`orchestrate` did: counts plus the artifacts' locations."""

    out_dir: pathlib.Path
    manifest: dict
    executed: int
    skipped: int
    failed: int
    report_path: pathlib.Path | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        total = len(self.manifest["runs"])
        return (
            f"campaign {self.manifest['campaign']!r}: {total} run(s) — "
            f"executed={self.executed} skipped={self.skipped} "
            f"failed={self.failed}"
        )


def _resolve_workers(config: CampaignConfig, pending: int) -> int:
    if config.workers is not None:
        workers = config.workers
    else:
        workers = int(os.environ.get("REPRO_TEST_PROCS", "2") or 2)
    return min(workers, pending) if workers else 0


def orchestrate(
    config,
    out=None,
    *,
    report: bool = False,
    history: list | None = None,
    echo: Callable[[str], None] | None = None,
) -> CampaignOutcome:
    """Run (or resume) a campaign; return what happened.

    ``config`` is a :class:`CampaignConfig`, a parsed config dict, or a
    path to a JSON/TOML config file.  ``out`` overrides the results
    directory (config ``out`` key, then ``campaign-out``).  With
    ``report=True`` the static HTML report is (re)rendered afterwards
    even if every run was skipped.
    """
    if isinstance(config, (str, os.PathLike)):
        config = load_config(config)
    elif isinstance(config, dict):
        config = CampaignConfig.from_dict(config)
    say = echo or (lambda line: None)
    out_dir = pathlib.Path(out or config.out or DEFAULT_OUT)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest = _load_manifest(manifest_path, config)

    runs = expand_runs(config)
    pending: list[dict] = []
    skipped = 0
    for run in runs:
        entry = manifest["runs"].get(run["hash"])
        if (
            entry is not None
            and entry.get("status") == "done"
            and (out_dir / entry.get("file", "")).exists()
        ):
            skipped += 1
            say(f"[{config.name}] skip {entry['run_id']} (already done)")
            continue
        entry = {
            "run_id": run["run_id"],
            "experiment": run["experiment"],
            "backend": run["backend"],
            "params": dict(run["kwargs"]),
            "status": "pending",
            "file": f"{run['run_id']}.json",
            "seconds": None,
            "attempts": 0,
            "error": None,
        }
        manifest["runs"][run["hash"]] = entry
        run["entry"] = entry
        pending.append(run)

    executed = failed = 0

    def finish(run: dict, reply: tuple) -> None:
        nonlocal executed, failed
        entry = run["entry"]
        if reply[0] == "ok":
            _, doc, seconds = reply
            _write_json(out_dir / entry["file"], doc)
            entry["status"] = "done"
            entry["seconds"] = seconds
            entry["error"] = None
            say(f"[{config.name}] done {entry['run_id']} ({seconds:.1f}s)")
        else:
            entry["status"] = "failed"
            entry["error"] = reply[1]
            failed += 1
            last = reply[1].strip().splitlines()[-1] if reply[1].strip() else "?"
            say(f"[{config.name}] FAILED {entry['run_id']}: {last}")
        executed += 1

    def fail_crashed(run: dict, exc: Exception) -> None:
        nonlocal executed, failed
        entry = run["entry"]
        entry["status"] = "failed"
        entry["error"] = (
            f"worker crashed or hung {entry['attempts']} time(s); "
            f"retry bound reached: {exc}"
        )
        failed += 1
        executed += 1
        say(f"[{config.name}] FAILED {entry['run_id']}: {entry['error']}")

    if pending:
        payload = lambda run: (run["experiment"], run["backend"], run["kwargs"])  # noqa: E731
        nworkers = _resolve_workers(config, len(pending))
        if nworkers == 0:
            # inline mode: no crash isolation, but no fork either —
            # the debug/test path (and the only path inside a worker)
            for run in pending:
                run["entry"]["attempts"] += 1
                finish(run, execute_run(payload(run)))
                _write_json(manifest_path, manifest)
        else:
            from ..runtime.pool import WorkerCrashError, WorkerPool

            pool = WorkerPool(nworkers, deadline=config.deadline_seconds)
            try:
                queue = deque(pending)
                isolate = False
                while queue:
                    width = 1 if isolate else pool.nworkers
                    wave = [
                        queue.popleft() for _ in range(min(width, len(queue)))
                    ]
                    for run in wave:
                        run["entry"]["attempts"] += 1
                    try:
                        replies, _, _ = pool.map_ranks(
                            "bench_run", [payload(r) for r in wave]
                        )
                    except WorkerCrashError as exc:
                        pool.repair()
                        # can't tell which run of the wave poisoned the
                        # worker: re-dispatch them one at a time so only
                        # the guilty one keeps burning retries
                        isolate = True
                        for run in reversed(wave):
                            if run["entry"]["attempts"] >= 1 + config.retries:
                                fail_crashed(run, exc)
                            else:
                                say(
                                    f"[{config.name}] retry "
                                    f"{run['entry']['run_id']} after worker "
                                    f"crash/hang ({exc})"
                                )
                                queue.appendleft(run)
                        _write_json(manifest_path, manifest)
                        continue
                    isolate = False
                    for run, reply in zip(wave, replies):
                        finish(run, reply)
                    _write_json(manifest_path, manifest)
            finally:
                pool.close()

    _write_json(manifest_path, manifest)
    outcome = CampaignOutcome(
        out_dir=out_dir,
        manifest=manifest,
        executed=executed,
        skipped=skipped,
        failed=failed,
    )
    if report:
        from .report import render_report

        outcome.report_path = render_report(out_dir, history=history)
        say(f"[{config.name}] report: {outcome.report_path}")
    return outcome
