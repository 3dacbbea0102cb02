"""Cost accounting: the ledger both engines charge into.

Engines: simulated + processes — a :class:`CostLedger` records modeled
time under either engine, and the processes engine keeps a *second*
ledger of measured wall-clock (``DistContext.measured``) with the same
region names, which is what makes the calibration report line up.

A :class:`CostLedger` accumulates modeled time into named *regions* so the
benchmark harness can reproduce the paper's stacked-bar breakdowns
(Fig. 4: "Peripheral: SpMSpV", "Peripheral: Other", "Ordering: SpMSpV",
"Ordering: Sorting", "Ordering: Other") and the computation/communication
split of Fig. 5.

Regions are hierarchical strings like ``"ordering:spmspv"``; prefix
aggregation gives per-phase totals.  Each charge records whether it is
compute or communication, plus raw counters (operations, messages, words)
for conservation tests and model-free analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RegionCost", "CostLedger", "REGIONS", "mask_words"]

#: Canonical region names used by the RCM pipeline (Fig. 4 legend).
#: Direction-optimized (pull) supersteps charge into the same
#: ``<phase>:spmspv`` regions as push ones — the Fig. 4 breakdown is by
#: pipeline phase, not by kernel direction.
REGIONS = (
    "peripheral:spmspv",
    "peripheral:other",
    "ordering:spmspv",
    "ordering:sort",
    "ordering:other",
)


def mask_words(length: int) -> int:
    """Wire size, in machine words, of a dense boolean mask of ``length``.

    The pull (bottom-up) SpMSpV replicates the unvisited mask of each
    row block along its processor row; masks travel as one byte per
    vertex (``np.bool_``), so a length-``L`` mask occupies
    ``ceil(L / 8)`` 8-byte words.  The flat driver charges mask traffic
    with this formula; the per-rank driver ships ``np.bool_`` buffers,
    whose :func:`~repro.machine.comm.words_of` is the same value.
    """
    return (int(length) + 7) // 8


@dataclass
class RegionCost:
    """Accumulated cost of one region."""

    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    operations: int = 0
    messages: int = 0
    words: int = 0

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds

    def merge(self, other: "RegionCost") -> None:
        self.compute_seconds += other.compute_seconds
        self.comm_seconds += other.comm_seconds
        self.operations += other.operations
        self.messages += other.messages
        self.words += other.words


class CostLedger:
    """Time/volume accounting, grouped by hierarchical region names."""

    def __init__(self) -> None:
        self._regions: dict[str, RegionCost] = {}

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def _get(self, region: str) -> RegionCost:
        entry = self._regions.get(region)
        if entry is None:
            entry = RegionCost()
            self._regions[region] = entry
        return entry

    def charge_compute(self, region: str, seconds: float, operations: int = 0) -> None:
        if seconds < 0:
            raise ValueError("negative compute charge")
        entry = self._get(region)
        entry.compute_seconds += seconds
        entry.operations += int(operations)

    def charge_comm(
        self, region: str, seconds: float, messages: int = 0, words: int = 0
    ) -> None:
        if seconds < 0:
            raise ValueError("negative communication charge")
        entry = self._get(region)
        entry.comm_seconds += seconds
        entry.messages += int(messages)
        entry.words += int(words)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def region(self, region: str) -> RegionCost:
        """Exact-name region cost (zeros if never charged)."""
        return self._regions.get(region, RegionCost())

    def prefix(self, prefix: str) -> RegionCost:
        """Aggregate of all regions whose name starts with ``prefix``."""
        agg = RegionCost()
        for name, entry in self._regions.items():
            if name.startswith(prefix):
                agg.merge(entry)
        return agg

    @property
    def total(self) -> RegionCost:
        return self.prefix("")

    @property
    def total_seconds(self) -> float:
        return self.total.total_seconds

    def region_names(self) -> list[str]:
        return sorted(self._regions)

    def breakdown(self) -> dict[str, float]:
        """Region -> total seconds, for reporting."""
        return {name: rc.total_seconds for name, rc in sorted(self._regions.items())}

    def comm_split(self) -> tuple[float, float]:
        """(compute_seconds, comm_seconds) across all regions (Fig. 5)."""
        agg = self.total
        return agg.compute_seconds, agg.comm_seconds

    def merge(self, other: "CostLedger") -> None:
        for name, entry in other._regions.items():
            self._get(name).merge(entry)

    def reset(self) -> None:
        self._regions.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostLedger(total={self.total_seconds:.6f}s, regions={len(self._regions)})"
