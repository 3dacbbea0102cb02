"""Execution context of the distributed machine, on either engine.

Engines: simulated + processes — this module is where the engine is
selected.  Charges modeled compute cost (BSP supersteps) to the ledger;
collectives charge modeled communication through the engine.

A :class:`DistContext` bundles the process grid, the machine cost model,
the modeled ledger, the *measured* ledger and the collective engine.
Distributed operations execute SPMD-style and charge modeled time
through this context: compute charges take the maximum across ranks
(bulk-synchronous supersteps), communication charges come from the
collective engine.

Two engines satisfy the same contract (see DESIGN.md, "Execution
engines"):

``engine="simulated"`` (default)
    A Python loop performs each rank's *real* local computation on that
    rank's *real* local block, and the
    :class:`~repro.machine.comm.CollectiveEngine` moves buffers
    in-process.  Deterministic, dependency-free, the oracle.

``engine="processes"``
    The same per-rank tasks run on a pool of real worker processes
    (:class:`~repro.runtime.pool.WorkerPool`) and collectives move bytes
    through shared memory
    (:class:`~repro.runtime.engine.ProcessCollectiveEngine`).  The
    modeled ledger is bit-identical to the simulated engine's; measured
    wall-clock accumulates in :attr:`measured` for calibration.

Contexts that build their own pool own it: use ``close()`` (or a
``with`` block) to tear the workers down.  ``DistContext(...,
pool=...)`` shares a caller-owned pool instead.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

import numpy as np

from ..machine.comm import CollectiveEngine
from ..machine.cost import CostLedger
from ..machine.grid import ProcessGrid
from ..machine.params import MachineParams, edison

__all__ = ["DistContext"]

#: Valid values of the ``engine`` argument.
ENGINES = ("simulated", "processes")

_object_keys = itertools.count()


class DistContext:
    """Grid + machine + ledgers + engine for one distributed computation."""

    def __init__(
        self,
        grid: ProcessGrid,
        machine: MachineParams | None = None,
        ledger: CostLedger | None = None,
        *,
        engine: str = "simulated",
        procs: int | None = None,
        pool=None,
        rank_vectorized: bool = True,
    ) -> None:
        self.grid = grid
        self.machine = machine if machine is not None else edison()
        self.ledger = ledger if ledger is not None else CostLedger()
        #: Measured wall-clock ledger; stays empty on the simulated engine.
        self.measured = CostLedger()
        self.engine_name = engine
        #: Rank-vectorized driver: distributed operations execute as flat
        #: segment operations over all ranks at once instead of a Python
        #: loop per rank.  ``False`` selects the per-rank reference path
        #: (the pre-vectorization oracle the equivalence suite and the
        #: driver-overhead bench compare against).  Results and modeled
        #: ledgers are bit-identical either way.
        self.rank_vectorized = bool(rank_vectorized)
        self._objects: dict[str, Any] = {}
        self._offsets_cache: dict[int, np.ndarray] = {}
        self._owns_pool = False
        if engine == "simulated":
            if procs is not None or pool is not None:
                raise ValueError(
                    "procs/pool only apply to the processes engine"
                )
            self.pool = None
            self.engine = CollectiveEngine(self.machine, self.ledger)
        elif engine == "processes":
            from ..runtime.engine import ProcessCollectiveEngine
            from ..runtime.pool import WorkerPool

            if pool is None:
                pool = WorkerPool(procs if procs is not None else grid.size)
                self._owns_pool = True
            elif procs is not None and procs != pool.nworkers:
                raise ValueError("procs conflicts with the provided pool")
            self.pool = pool
            self.engine = ProcessCollectiveEngine(
                self.machine, self.ledger, pool, self.measured
            )
        else:
            raise ValueError(f"unknown engine {engine!r}; expected {ENGINES}")

    # ------------------------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self.grid.size

    @property
    def cores(self) -> int:
        """Total cores this configuration models (processes x threads)."""
        return self.nprocs * self.machine.threads_per_process

    @property
    def flat_supersteps(self) -> bool:
        """True when heavy kernels may run as one fused driver operation.

        The processes engine must dispatch per-rank payloads to its
        workers, so only the simulated engine takes the fused path (and
        only while ``rank_vectorized`` is on).
        """
        return self.rank_vectorized and self.pool is None

    def vector_offsets(self, n: int) -> np.ndarray:
        """Cached ``grid.vector_offsets(n)`` (read-only; shared freely)."""
        offs = self._offsets_cache.get(n)
        if offs is None:
            offs = self.grid.vector_offsets(n)
            offs.setflags(write=False)
            self._offsets_cache[n] = offs
        return offs

    # ------------------------------------------------------------------
    # Compute charging (BSP: a superstep costs its slowest rank)
    # ------------------------------------------------------------------
    def charge_compute(self, region: str, ops_per_rank: Sequence[float]) -> None:
        """Charge one superstep of local kernel work.

        ``ops_per_rank[k]`` is the scalar-operation count rank ``k``
        performed (a list or an array); the superstep's elapsed time is
        the slowest rank's.
        """
        ops = np.asarray(ops_per_rank)
        if ops.size:
            self.ledger.charge_compute(
                region, self.machine.compute_time(ops.max()), operations=int(ops.sum())
            )

    def charge_sort(self, region: str, keys_per_rank: Sequence[float]) -> None:
        """Charge one superstep of local comparison sorting.

        ``sort_time`` is monotonic in the key count, so the slowest rank
        is the one with the most keys.
        """
        keys = np.asarray(keys_per_rank)
        if keys.size:
            self.ledger.charge_compute(
                region, self.machine.sort_time(float(keys.max())), operations=int(keys.sum())
            )

    # ------------------------------------------------------------------
    # Superstep execution (the compute half of the engine contract)
    # ------------------------------------------------------------------
    def run_superstep(
        self, task: str, payloads: Sequence[Any], region: str
    ) -> list[Any]:
        """Execute a registered task once per rank, on the active engine.

        Runs :data:`repro.runtime.tasks.TASKS`\\ ``[task]`` over
        ``payloads`` (one per rank, rank order).  The simulated engine
        loops in the driver; the processes engine ships each rank's
        payload to its owning worker and records measured wall-clock
        (slowest worker to ``region``, dispatch overhead to
        ``region:host``).  Modeled cost is *not* charged here — callers
        charge it with :meth:`charge_compute` / :meth:`charge_sort`, so
        modeled accounting is engine-independent by construction.
        """
        from ..runtime.tasks import TASKS, RuntimeState

        if self.pool is None:
            state = RuntimeState()
            state.objects = self._objects
            fn = TASKS[task]
            return [fn(state, p) for p in payloads]
        results, worker_secs, wall = self.pool.map_ranks(task, payloads)
        self.measured.charge_compute(region, worker_secs)
        self.measured.charge_compute(
            region + ":host", max(wall - worker_secs, 0.0)
        )
        return results

    # ------------------------------------------------------------------
    # Rank-resident objects (matrix blocks live where their ranks run)
    # ------------------------------------------------------------------
    def new_object_key(self, stem: str) -> str:
        """A process-unique key for a rank-resident object."""
        return f"{stem}-{next(_object_keys)}"

    def ensure_rank_objects(
        self, key: str, build: Callable[[list[int]], Any]
    ) -> None:
        """Install ``build(ranks)`` as object ``key`` where those ranks run.

        ``build`` receives the rank ids co-located on one worker and
        returns the payload those ranks need (e.g. ``{rank: block}``).
        Idempotent per key: repeated calls are free, so algorithms can
        call it once per operation instead of tracking registration.
        """
        if self.pool is None:
            if key not in self._objects:
                self._objects[key] = build(list(range(self.nprocs)))
            return
        if key in self.pool.registered_keys:
            return
        owner = self.pool.assign(self.nprocs)
        per_worker: list[list[int]] = [[] for _ in range(self.pool.nworkers)]
        for rank, w in enumerate(owner):
            per_worker[w].append(rank)
        self.pool.scatter_object(key, [build(ranks) for ranks in per_worker])

    def release_rank_objects(self, key: str) -> None:
        """Free object ``key`` wherever it is resident (idempotent).

        Shared pools outlive individual matrices; releasing returns the
        workers' memory without rebuilding the pool.
        """
        self._objects.pop(key, None)
        if self.pool is not None:
            self.pool.drop_object(key)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down a context-owned worker pool (no-op otherwise)."""
        if self._owns_pool and self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "DistContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistContext(grid={self.grid.pr}x{self.grid.pc}, "
            f"threads={self.machine.threads_per_process}, "
            f"engine={self.engine_name})"
        )
