"""Public programmatic benchmark API: :func:`run` one experiment.

The CLI (`repro-bench run ...`), the campaign orchestrator
(:mod:`repro.bench.orchestrate`), and external callers all dispatch
experiments through this module — never through ``harness`` internals.
An experiment function's signature is the one declaration of its knobs
(:func:`experiment_knobs`); nothing else lists what it accepts.

Knob semantics
--------------
Every experiment takes ``scale`` / ``quick``.  The other knobs apply
only where the experiment's signature declares them:

* ``names`` — the suite experiments, which loop over paper-suite
  matrices (taking ``names`` is what makes an experiment one).
* ``engine`` / ``procs`` — ``calibration`` only (real worker processes).
* ``matrix`` — ``ingest`` only (a ``zoo:<name>`` or paper-suite spec).
* ``direction`` — the strong-scaling sweeps ``fig4``/``fig5``/``fig6``
  (push/pull/adaptive SpMSpV traversal; the paper's runs are push).

A knob passed to an experiment that does not implement it is *ignored*,
not an error — :func:`normalize_kwargs` reports which groups were
dropped so callers (the CLI) can tell the user.  Invalid *values* are
always errors, with the valid set in the message.
"""

from __future__ import annotations

import inspect
from typing import Any

from .harness import EXPERIMENTS
from .schema import ExperimentResult

__all__ = [
    "run",
    "normalize_kwargs",
    "experiment_knobs",
    "KNOWN_ENGINES",
    "KNOWN_DIRECTIONS",
]

#: Execution engines of engine-aware experiments.
KNOWN_ENGINES = ("simulated", "processes")

#: SpMSpV traversal directions of direction-aware experiments.
KNOWN_DIRECTIONS = ("push", "pull", "adaptive")

#: Why each ignored knob group does not apply — the CLI prints these
#: verbatim in its ``[name] note: --knob ignored (reason)`` lines, so
#: the wording is part of the compatibility surface.
_IGNORE_REASONS = {
    "matrix": "experiment runs the paper suite",
    "engine/procs": "experiment is simulated-machine only",
    "direction": "experiment has no direction switch",
}


def _check_choice(knob: str, value: str | None, choices) -> None:
    if value is not None and value not in choices:
        raise ValueError(
            f"unknown {knob} {value!r}: expected one of {sorted(choices)}"
        )


def experiment_knobs(name: str) -> frozenset[str]:
    """The keyword arguments experiment ``name`` accepts, off its signature."""
    return frozenset(inspect.signature(EXPERIMENTS[name]).parameters)


def normalize_kwargs(
    name: str,
    *,
    scale: float = 1.0,
    quick: bool = False,
    names: list[str] | None = None,
    engine: str | None = None,
    procs: int | None = None,
    matrix: str | None = None,
    direction: str | None = None,
) -> tuple[dict[str, Any], list[tuple[str, str]]]:
    """Validate knobs for experiment ``name``; drop the inapplicable ones.

    Returns ``(kwargs, ignored)`` where ``kwargs`` is exactly what the
    experiment function accepts and ``ignored`` lists ``(knob_group,
    reason)`` pairs for every knob the caller set that the experiment
    does not implement.  Raises :class:`ValueError` (with the valid set
    in the message) for an unknown experiment or an invalid knob value.
    """
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}: expected one of {sorted(EXPERIMENTS)}"
        )
    _check_choice("engine", engine, KNOWN_ENGINES)
    _check_choice("direction", direction, KNOWN_DIRECTIONS)
    if procs is not None and procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    if names is not None:
        from ..matrices.suite import PAPER_SUITE

        unknown = [n for n in names if n not in PAPER_SUITE]
        if unknown:
            raise ValueError(
                f"unknown matrices {unknown}: expected paper-suite names "
                f"{sorted(PAPER_SUITE)}"
            )

    knobs = experiment_knobs(name)
    kwargs: dict[str, Any] = dict(scale=scale, quick=quick)
    if "names" in knobs:
        kwargs["names"] = names
    ignored: list[tuple[str, str]] = []
    if "matrix" in knobs:
        if matrix is not None:
            kwargs["matrix"] = matrix
    elif matrix is not None:
        ignored.append(("matrix", _IGNORE_REASONS["matrix"]))
    if "engine" in knobs:
        if engine is not None:
            kwargs["engine"] = engine
        if procs is not None:
            kwargs["procs"] = procs
    elif engine is not None or procs is not None:
        ignored.append(("engine/procs", _IGNORE_REASONS["engine/procs"]))
    if "direction" in knobs:
        if direction is not None:
            kwargs["direction"] = direction
    elif direction is not None:
        ignored.append(("direction", _IGNORE_REASONS["direction"]))
    return kwargs, ignored


def run(
    name: str,
    *,
    scale: float = 1.0,
    quick: bool = False,
    names: list[str] | None = None,
    engine: str | None = None,
    procs: int | None = None,
    direction: str | None = None,
    matrix: str | None = None,
) -> ExperimentResult:
    """Run one registered experiment and return its structured result.

    Knobs are normalized per experiment by :func:`normalize_kwargs` —
    inapplicable ones are silently dropped here (the CLI surfaces them
    as notes).

    >>> from repro.bench import run
    >>> result = run("fig3", quick=True, names=["nd24k"])
    >>> result.table().headers[0]
    'cores'
    """
    kwargs, _ = normalize_kwargs(
        name,
        scale=scale,
        quick=quick,
        names=names,
        engine=engine,
        procs=procs,
        matrix=matrix,
        direction=direction,
    )
    return EXPERIMENTS[name](**kwargs)
