"""Structured experiment results: the schema every experiment returns.

Before this module, each experiment in :mod:`repro.bench.harness`
returned a formatted *string*, so the repo's quantitative evidence (the
paper's Figs. 1-6 and Tables I-II) could only be grepped, never loaded.
Now every experiment builds an :class:`ExperimentResult` — named tables
of JSON scalars plus the expected-shape notes — and plain-text rendering
is a pure view in :mod:`repro.bench.reporting`.  ``repro-bench --json``
serializes the same object for every experiment, and the snapshot /
history subsystem (:mod:`repro.bench.snapshot`,
:mod:`repro.bench.history`) builds on the same conventions.

Schema rules
------------
* Table cells are JSON scalars only (``str``/``bool``/``int``/``float``/
  ``None``); numpy scalars are coerced on construction, anything else is
  a :class:`SchemaError` at build time — not a serialization surprise
  later.
* ``to_dict``/``from_dict`` round-trip exactly; ``from_dict`` validates
  ``kind`` and ``schema_version`` and raises :class:`SchemaError` with a
  readable message instead of a ``KeyError``.
* Every result records the machine/calibration params it modeled, the
  engine and scale knobs it ran with, and the git commit it came from.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import asdict, dataclass, field
from functools import lru_cache

from ..machine.params import MachineParams

__all__ = [
    "RESULT_KIND",
    "CAMPAIGN_KIND",
    "MANIFEST_KIND",
    "SCHEMA_VERSION",
    "SchemaError",
    "ResultTable",
    "ExperimentResult",
    "CampaignConfig",
    "experiment_result",
    "coerce_scalar",
    "git_metadata",
    "default_environment",
]

#: Version of the ``ExperimentResult``/``BENCH.json`` document family.
#: Bump on any backward-incompatible change to the serialized layout.
SCHEMA_VERSION = 1

#: The ``kind`` discriminator of a serialized :class:`ExperimentResult`.
RESULT_KIND = "repro-bench-result"

#: The ``kind`` discriminator of a campaign config document.
CAMPAIGN_KIND = "repro-bench-campaign"

#: The ``kind`` discriminator of a campaign's resume manifest.
MANIFEST_KIND = "repro-bench-campaign-manifest"


class SchemaError(ValueError):
    """A document does not conform to the bench result/snapshot schema."""


_SCALAR_TYPES = (bool, int, float, str, type(None))


def coerce_scalar(value):
    """Coerce ``value`` to a plain JSON scalar; raise :class:`SchemaError`
    if it is not one.  Numpy scalars are unwrapped via ``.item()``; other
    builtin *subclasses* (e.g. ``np.float64`` is a ``float``) are
    converted to the exact builtin so serialized documents contain only
    stock types."""
    if value is None or type(value) in _SCALAR_TYPES:
        return value
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) in ((), None):
        out = item()
        if out is None or type(out) in _SCALAR_TYPES:
            return out
    for base in _SCALAR_TYPES:
        if isinstance(value, base):
            return base(value)
    raise SchemaError(
        f"table cell {value!r} ({type(value).__name__}) is not a JSON scalar"
    )


@lru_cache(maxsize=1)
def git_metadata() -> dict:
    """``{"commit", "branch", "dirty"}`` of the working tree (or Nones).

    Cached for the process lifetime — one ``git`` fork per run, not one
    per experiment.  Degrades to all-``None`` outside a git checkout.
    """

    def _git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = _git("rev-parse", "HEAD")
    branch = _git("rev-parse", "--abbrev-ref", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "commit": commit,
        "branch": branch,
        "dirty": None if status is None else bool(status),
    }


def default_environment(machine: MachineParams | None = None) -> dict:
    """Machine/calibration constants plus toolchain and git provenance."""
    import numpy

    return {
        "machine": None if machine is None else asdict(machine),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git": dict(git_metadata()),
    }


@dataclass
class ResultTable:
    """One named table of an experiment: headers plus scalar rows.

    ``stacked`` optionally names the value columns the text view also
    renders as a stacked bar chart (the Fig. 4 breakdowns), keyed by the
    first column's labels — the figure is *derived* from the table, so
    JSON consumers never lose information the text view had.
    """

    headers: list[str]
    rows: list[list]
    title: str | None = None
    stacked: list[str] | None = None

    def __post_init__(self) -> None:
        self.headers = [str(h) for h in self.headers]
        coerced = []
        for row in self.rows:
            if len(row) != len(self.headers):
                raise SchemaError(
                    f"row {row!r} has {len(row)} cells, expected "
                    f"{len(self.headers)}"
                )
            coerced.append([coerce_scalar(c) for c in row])
        self.rows = coerced
        if self.stacked:
            missing = [h for h in self.stacked if h not in self.headers]
            if missing:
                raise SchemaError(f"stacked columns not in headers: {missing}")

    def column(self, header: str) -> list:
        """All values of the named column."""
        return [row[self.headers.index(header)] for row in self.rows]

    def to_dict(self) -> dict:
        doc: dict = {"headers": self.headers, "rows": self.rows}
        if self.title is not None:
            doc["title"] = self.title
        if self.stacked is not None:
            doc["stacked"] = self.stacked
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ResultTable":
        try:
            return cls(
                headers=list(doc["headers"]),
                rows=[list(r) for r in doc["rows"]],
                title=doc.get("title"),
                stacked=doc.get("stacked"),
            )
        except KeyError as exc:
            raise SchemaError(f"table document missing key {exc}") from None


@dataclass
class ExperimentResult:
    """The structured outcome of one ``repro-bench`` experiment.

    Attributes
    ----------
    name:
        The registry key (``fig1`` ... ``calibration``).
    title:
        The banner line of the text view.
    tables:
        One or more :class:`ResultTable` in display order.
    notes:
        The expected-shape commentary the paper comparison relies on —
        part of the result, preserved verbatim through JSON.
    params:
        The knobs this run used: ``scale``, ``quick``, ``names``, and
        (where meaningful) ``engine``/``procs``/``direction``.
    environment:
        Machine-model constants, python/numpy versions, git metadata.
    """

    name: str
    title: str
    tables: list[ResultTable]
    notes: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    environment: dict = field(default_factory=default_environment)

    def render(self) -> str:
        """Plain-text view (see :func:`repro.bench.reporting.render_result`)."""
        from .reporting import render_result

        return render_result(self)

    def table(self, title: str | None = None) -> ResultTable:
        """The table with the given title (or the only/first table)."""
        if title is None:
            return self.tables[0]
        for t in self.tables:
            if t.title == title:
                return t
        raise KeyError(title)

    def to_dict(self) -> dict:
        return {
            "kind": RESULT_KIND,
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "title": self.title,
            "params": dict(self.params),
            "environment": dict(self.environment),
            "tables": [t.to_dict() for t in self.tables],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentResult":
        kind = doc.get("kind")
        if kind != RESULT_KIND:
            raise SchemaError(
                f"expected kind {RESULT_KIND!r}, got {kind!r}"
            )
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported result schema_version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        try:
            return cls(
                name=doc["name"],
                title=doc["title"],
                tables=[ResultTable.from_dict(t) for t in doc["tables"]],
                notes=list(doc.get("notes", [])),
                params=dict(doc.get("params", {})),
                environment=dict(doc.get("environment", {})),
            )
        except KeyError as exc:
            raise SchemaError(f"result document missing key {exc}") from None


@dataclass
class CampaignConfig:
    """A declarative benchmark campaign: the orchestrator's input.

    The cross product ``experiments x matrices x engines x directions``
    is the raw run matrix; the orchestrator normalizes each
    cell per experiment (a knob an experiment does not implement is
    dropped — see :func:`repro.bench.api.experiment_knobs`) and deduplicates,
    so e.g. two engines collapse to one run for an engine-unaware
    experiment instead of running it twice.

    ``matrices`` entries are paper-suite names, or ``zoo:<name>`` specs
    for the ``ingest`` experiment.  ``None`` axis entries mean "the
    experiment's default" (full/quick suite, push).
    ``workers`` is the campaign worker-pool size (default 2): each
    worker runs one experiment at a time, and ``0`` runs inline in the
    driver (no crash isolation — test/debug mode).  ``retries`` bounds
    how often a *crashed or hung* run is re-dispatched after pool
    repair; an ordinary in-run exception is deterministic and fails
    immediately.
    """

    experiments: list[str]
    name: str = "campaign"
    matrices: list[str | None] = field(default_factory=lambda: [None])
    engines: list[str | None] = field(default_factory=lambda: [None])
    directions: list[str | None] = field(default_factory=lambda: [None])
    scale: float = 1.0
    quick: bool = False
    procs: int | None = None
    workers: int = 2
    retries: int = 1
    deadline_seconds: float | None = 600.0
    out: str | None = None

    _AXES = ("matrices", "engines", "directions")

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignConfig":
        """Build + validate a config from a parsed JSON/TOML document."""
        if not isinstance(doc, dict):
            raise SchemaError(
                f"campaign config must be an object, got {type(doc).__name__}"
            )
        doc = dict(doc)
        kind = doc.pop("kind", CAMPAIGN_KIND)
        if kind != CAMPAIGN_KIND:
            raise SchemaError(f"expected kind {CAMPAIGN_KIND!r}, got {kind!r}")
        version = doc.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported campaign schema_version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        known = {
            "name", "experiments", "matrices", "engines", "directions",
            "scale", "quick", "procs", "workers", "retries",
            "deadline_seconds", "out",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise SchemaError(
                f"unknown campaign config keys {unknown}: expected a subset "
                f"of {sorted(known)}"
            )
        if "experiments" not in doc:
            raise SchemaError("campaign config missing required key 'experiments'")
        for axis in ("experiments",) + cls._AXES:
            if axis in doc and not isinstance(doc[axis], list):
                raise SchemaError(
                    f"campaign key {axis!r} must be a list, got "
                    f"{type(doc[axis]).__name__}"
                )
        config = cls(**doc)
        config.validate()
        return config

    def validate(self) -> None:
        """Check every axis value against the live registries.

        Imports lazily: the registries (experiment table, graph zoo)
        live above this module in the layering.
        """
        from .api import KNOWN_DIRECTIONS, KNOWN_ENGINES, experiment_knobs

        if not self.experiments:
            raise SchemaError("campaign config 'experiments' must be non-empty")
        from .harness import EXPERIMENTS

        for name in self.experiments:
            if name not in EXPERIMENTS:
                raise SchemaError(
                    f"unknown experiment {name!r}: expected one of "
                    f"{sorted(EXPERIMENTS)}"
                )
        for axis in self._AXES:
            if not getattr(self, axis):
                raise SchemaError(f"campaign config {axis!r} must be non-empty")
        for spec in self.matrices:
            if spec is not None:
                self._validate_matrix(spec)
        for engine in self.engines:
            if engine is not None and engine not in KNOWN_ENGINES:
                raise SchemaError(
                    f"unknown engine {engine!r}: expected one of "
                    f"{sorted(KNOWN_ENGINES)}"
                )
        for direction in self.directions:
            if direction is not None and direction not in KNOWN_DIRECTIONS:
                raise SchemaError(
                    f"unknown direction {direction!r}: expected one of "
                    f"{sorted(KNOWN_DIRECTIONS)}"
                )
        if self.scale <= 0:
            raise SchemaError(f"campaign scale must be > 0, got {self.scale}")
        if self.procs is not None and self.procs < 1:
            raise SchemaError(f"campaign procs must be >= 1, got {self.procs}")
        if self.workers is None or self.workers < 0:
            raise SchemaError(
                f"campaign workers must be >= 0, got {self.workers}"
            )
        if self.retries < 0:
            raise SchemaError(f"campaign retries must be >= 0, got {self.retries}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise SchemaError(
                f"campaign deadline_seconds must be > 0, got "
                f"{self.deadline_seconds}"
            )
        # a knob axis that no requested experiment implements is a
        # config mistake, not something to silently normalize away
        if any(e is not None for e in self.engines) and not any(
            "engine" in experiment_knobs(x) for x in self.experiments
        ):
            raise SchemaError(
                "campaign sets 'engines' but no requested experiment is "
                "engine-aware (only 'calibration' is)"
            )
        if any(d is not None for d in self.directions) and not any(
            "direction" in experiment_knobs(x) for x in self.experiments
        ):
            raise SchemaError(
                "campaign sets 'directions' but no requested experiment has "
                "a direction switch (fig4/fig5/fig6 do)"
            )

    @staticmethod
    def _validate_matrix(spec: str) -> None:
        from ..matrices.suite import PAPER_SUITE
        from ..matrices.zoo import GRAPH_ZOO

        if spec.startswith("zoo:"):
            name = spec[len("zoo:"):]
            if name not in GRAPH_ZOO:
                raise SchemaError(
                    f"unknown zoo matrix {spec!r}: expected one of "
                    f"{sorted('zoo:' + z for z in GRAPH_ZOO)}"
                )
        elif spec not in PAPER_SUITE:
            raise SchemaError(
                f"unknown matrix {spec!r}: expected a paper-suite name "
                f"{sorted(PAPER_SUITE)} or a 'zoo:<name>' spec"
            )

    def to_dict(self) -> dict:
        return {
            "kind": CAMPAIGN_KIND,
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "experiments": list(self.experiments),
            "matrices": list(self.matrices),
            "engines": list(self.engines),
            "directions": list(self.directions),
            "scale": self.scale,
            "quick": self.quick,
            "procs": self.procs,
            "workers": self.workers,
            "retries": self.retries,
            "deadline_seconds": self.deadline_seconds,
            "out": self.out,
        }


def experiment_result(
    name: str,
    title: str,
    tables: list[ResultTable],
    notes: list[str] | tuple[str, ...] = (),
    params: dict | None = None,
    machine: MachineParams | None = None,
) -> ExperimentResult:
    """Builder the harness uses: fills in the environment block."""
    return ExperimentResult(
        name=name,
        title=title,
        tables=tables,
        notes=list(notes),
        params=dict(params or {}),
        environment=default_environment(machine),
    )
