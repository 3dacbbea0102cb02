"""Deterministic fault injection: named fault points, armed by spec.

The resilience layer (pool deadlines, crash recovery, the crash-safe
disk cache) is only trustworthy if its failure paths are *testable* —
and reproducibly so.  Hand-rolled ``os.kill`` in tests races the
scheduler: the signal may land before the dispatch, after the reply, or
on the wrong superstep, and a flake is indistinguishable from a real
recovery bug.  This module replaces that with fuzzbench-style
deterministic injection: production code declares **fault points** by
name, which are no-ops until a test (or ``REPRO_FAULTS=`` in the
environment) *arms* a spec for them.

A spec selects a fire window by **hit count** — the N-th time execution
reaches the point — plus an optional ``seed`` the call site uses to
derandomize the fault payload (e.g. which byte of a cache entry to
flip).  The same armed spec therefore reproduces the same failure
sequence on every run, and with nothing armed every point is a single
empty-dict check (zero measurable overhead on the service hot path).

Fault points (see DESIGN.md section 12 for the catalog):

====================  ====================================================
``worker.hang``       the next dispatched worker message is replaced by a
                      hang order: the worker sleeps forever and never
                      replies (hooked in ``runtime/pool.py`` at send time,
                      enacted in ``runtime/worker.py``)
``worker.crash``      as above, but the worker ``os._exit``\\ s — a real
                      SIGKILL-equivalent death, detected as pipe EOF
``pipe.drop_reply``   a worker reply is discarded on arrival (hooked in
                      ``runtime/pool.py``): the work happened, the answer
                      is lost — only a deadline can detect this
``cache.corrupt_entry``  one byte of a disk-cache entry payload is flipped
                      after its checksum is computed (``service/cache.py``)
                      — an on-disk bit flip the read path must catch
``io.truncate``       a file is cut short: the disk cache truncates the
                      just-written entry (torn write), the Matrix Market
                      reader stops yielding entries mid-stream
                      (``service/cache.py`` / ``sparse/io.py``)
====================  ====================================================

Counters are per-process.  Worker-fault *decisions* are made driver-side
(the pool counts message sends), so respawned workers are clean and a
bounded spec lets a retry succeed — the property the recovery tests pin.

Spec grammar (comma-separated in ``REPRO_FAULTS``)::

    point[:hit=N][:count=K][:seed=S]

``hit`` (default 1) is the 1-based hit index at which the spec starts
firing; ``count`` (default 1) is how many consecutive hits fire
(``count=0`` means every hit from ``hit`` on); ``seed`` (default 0) is
handed to the call site verbatim.  Example::

    REPRO_FAULTS="worker.hang:hit=3,cache.corrupt_entry:seed=7"
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

__all__ = [
    "FAULT_POINTS",
    "FaultSpec",
    "arm",
    "arm_from_env",
    "disarm",
    "fire",
    "active",
    "events",
    "reset",
    "parse_spec",
]

#: Every fault point a call site may declare.  ``arm`` validates against
#: this set so a typo in a test or ``REPRO_FAULTS`` fails loudly instead
#: of silently never firing.
FAULT_POINTS = frozenset(
    {
        "worker.hang",
        "worker.crash",
        "pipe.drop_reply",
        "cache.corrupt_entry",
        "io.truncate",
    }
)

#: Environment variable holding a comma-separated arming spec.
ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fires on hits ``[hit, hit + count)`` of a point."""

    point: str
    hit: int = 1  #: 1-based hit index at which firing starts
    count: int = 1  #: consecutive firing hits (0 = unbounded)
    seed: int = 0  #: deterministic payload parameter for the call site

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}: "
                f"expected one of {sorted(FAULT_POINTS)}"
            )
        if self.hit < 1:
            raise ValueError(f"hit must be >= 1, got {self.hit}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")

    def fires_at(self, hit: int) -> bool:
        """Whether this spec fires on the ``hit``-th (1-based) hit."""
        if hit < self.hit:
            return False
        return self.count == 0 or hit < self.hit + self.count


#: point -> armed specs (usually one).  Empty means every point is a
#: no-op — ``fire`` bails on a single truthiness check.
_ARMED: dict[str, list[FaultSpec]] = {}

#: point -> hits observed so far (only counted while the point is armed,
#: so disarmed operation does no bookkeeping at all).
_HITS: dict[str, int] = {}

#: chronological ``(point, hit)`` log of every fault that actually
#: fired — what the determinism tests compare across runs.
_EVENTS: list[tuple[str, int]] = []

#: guards ``_HITS`` and ``_EVENTS``: the pool sends from several threads,
#: and an unlocked read-modify-write of a hit count loses hits
_LOCK = threading.Lock()


def parse_spec(text: str) -> FaultSpec:
    """Parse one ``point[:hit=N][:count=K][:seed=S]`` spec string."""
    parts = [p.strip() for p in text.strip().split(":") if p.strip()]
    if not parts:
        raise ValueError("empty fault spec")
    kwargs: dict[str, int] = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep or key not in ("hit", "count", "seed"):
            raise ValueError(
                f"bad fault-spec field {part!r} in {text!r} "
                "(expected hit=N, count=K or seed=S)"
            )
        kwargs[key] = int(value)
    return FaultSpec(parts[0], **kwargs)


def arm(spec: FaultSpec | str) -> FaultSpec:
    """Arm one fault spec (parsed from a string if needed)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    _ARMED.setdefault(spec.point, []).append(spec)
    return spec


def arm_from_env(environ=None) -> list[FaultSpec]:
    """Arm every spec in ``REPRO_FAULTS`` (no-op when unset/empty)."""
    text = (environ or os.environ).get(ENV_VAR, "").strip()
    if not text:
        return []
    return [arm(part) for part in text.split(",") if part.strip()]


def disarm(point: str | None = None) -> None:
    """Disarm ``point`` (or everything), keeping hit counters and events."""
    if point is None:
        _ARMED.clear()
    else:
        _ARMED.pop(point, None)


def reset() -> None:
    """Disarm everything and clear counters/events (test isolation)."""
    _ARMED.clear()
    _HITS.clear()
    _EVENTS.clear()


def active() -> bool:
    """Whether any fault spec is currently armed."""
    return bool(_ARMED)


def events() -> list[tuple[str, int]]:
    """Chronological ``(point, hit)`` pairs of fired faults (a copy)."""
    return list(_EVENTS)


def fire(point: str) -> FaultSpec | None:
    """Record a hit at ``point``; the firing spec, or ``None``.

    The production call: sites do ``spec = faults.fire("worker.hang")``
    and enact the fault only when a spec comes back.  With nothing armed
    this is one empty-dict check; with specs armed for *other* points it
    is one failed lookup — either way no counter is touched, so the
    disarmed hot path stays allocation-free.
    """
    if not _ARMED:
        return None
    specs = _ARMED.get(point)
    if not specs:
        return None
    with _LOCK:
        _HITS[point] = hit = _HITS.get(point, 0) + 1
        for spec in specs:
            if spec.fires_at(hit):
                _EVENTS.append((point, hit))
                return spec
    return None


# Arm anything requested by the environment at import time: subprocess
# tests and the chaos CI lane export REPRO_FAULTS before launching
# python, and every in-tree call site imports this module lazily enough
# that the spec is in place before the first fault point is reached.
arm_from_env()
