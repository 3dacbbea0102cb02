"""Process-parallel execution engine for the distributed layer.

Engines: this package *implements* the ``"processes"`` engine; the
``"simulated"`` engine lives in :mod:`repro.machine.comm`.  Charges no
modeled cost itself — it executes real work and records **measured**
wall-clock into a second :class:`~repro.machine.cost.CostLedger` so the
modeled ledger can be calibrated against reality.

The distributed algorithms in :mod:`repro.distributed` are written
SPMD-style against two context services:

* the **collectives contract** (``allgather_groups``, ``alltoall_groups``,
  ``allreduce_*``, ``exscan_counts``, ``bcast``, ``gather_to_root``) —
  implemented here by :class:`ProcessCollectiveEngine`, which moves the
  bytes through POSIX shared-memory arenas copied by worker processes;
* the **superstep contract** (``DistContext.run_superstep``) — per-rank
  local kernels (SpMSpV block multiplies, frontier merges, bucket sorts)
  shipped to the same workers via :class:`WorkerPool`.

Selecting ``DistContext(engine="processes")`` swaps both services in
without touching any algorithm code; orderings stay bit-identical to the
simulated oracle because every task runs the exact same numpy code the
driver loop would run.

Layout
------
``shm``
    Shared-memory arenas (driver-owned, grow-on-demand) and the worker
    attach cache.
``tasks``
    Registry of named task functions both engines execute.
``worker``
    The worker process main loop.
``pool``
    :class:`WorkerPool`: process lifecycle, dispatch, crash detection.
``engine``
    :class:`ProcessCollectiveEngine`: the collectives contract on
    workers + shared memory.
``calibration``
    Modeled-vs-measured report used by ``repro-bench run calibration``.
"""

from .calibration import calibration_rows, format_calibration
from .engine import ProcessCollectiveEngine
from .pool import TaskError, WorkerCrashError, WorkerPool, WorkerTimeoutError
from .tasks import TASKS, task

__all__ = [
    "WorkerPool",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "TaskError",
    "ProcessCollectiveEngine",
    "TASKS",
    "task",
    "calibration_rows",
    "format_calibration",
]
