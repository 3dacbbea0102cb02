"""Named task functions executed per simulated rank, on either engine.

Engines: simulated + processes — the *same* function objects run in the
driver loop (simulated) and on pool workers (processes), which is what
makes orderings bit-identical across engines by construction.  Charges
no modeled cost — callers account modeled time before dispatching; the
pool records measured time around execution.

Every task has the signature ``fn(state, payload) -> result`` where
``state`` carries the per-process object store (``state.objects``, e.g.
a rank's resident matrix blocks) and, on workers, the shared-memory
attach cache (``state.shm``).  Payloads and results must be picklable:
they cross a pipe under the processes engine.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

__all__ = ["TASKS", "task", "RuntimeState"]

#: Registry of every dispatchable task, by name.
TASKS: dict[str, Callable[["RuntimeState", Any], Any]] = {}


def task(name: str) -> Callable[[Callable], Callable]:
    """Register ``fn`` under ``name`` in :data:`TASKS`."""

    def register(fn: Callable) -> Callable:
        if name in TASKS:
            raise ValueError(f"task {name!r} already registered")
        TASKS[name] = fn
        return fn

    return register


class RuntimeState:
    """Per-process execution state handed to every task."""

    def __init__(self, shm=None) -> None:
        self.objects: dict[str, Any] = {}
        self.shm = shm  # AttachCache on workers, None in the driver

    def close(self) -> None:
        self.objects.clear()
        if self.shm is not None:
            self.shm.close()


# ----------------------------------------------------------------------
# Infrastructure tasks
# ----------------------------------------------------------------------
@task("ping")
def _ping(state: RuntimeState, payload: Any) -> Any:
    """Round-trip no-op: the measured unit of synchronization latency."""
    return payload


@task("copy_spans")
def _copy_spans(state: RuntimeState, payload) -> int:
    """Move byte spans between shared-memory arenas (the collectives' mover).

    ``payload = (in_name, out_name, [(src_off, dst_off, nbytes), ...])``.
    Destination spans are disjoint across workers by construction, so
    concurrent copies need no locking.  Returns bytes moved.
    """
    in_name, out_name, spans = payload
    if not spans:
        return 0
    src = state.shm.buf(in_name)
    dst = state.shm.buf(out_name)
    moved = 0
    for s, d, nb in spans:
        dst[d : d + nb] = src[s : s + nb]
        moved += nb
    return moved


# ----------------------------------------------------------------------
# Distributed-kernel supersteps
# ----------------------------------------------------------------------
@task("spmspv_block")
def _spmspv_block(state: RuntimeState, payload):
    """Phase B of the 2D SpMSpV: one rank's local block multiply.

    ``payload = (matrix_key, rank, x_indices, x_values, ncols, sr)``;
    the CSC block itself is resident in the object store (registered
    once per matrix), so only the aligned input piece crosses the wire.
    Returns the partial output's ``(indices, values)``.
    """
    from ..semiring.spmspv import spmspv_csc
    from ..sparse.spvector import SparseVector

    matrix_key, rank, idx, vals, ncols, sr = payload
    blk = state.objects[matrix_key][rank]
    x = SparseVector(int(ncols), idx, vals)
    y = spmspv_csc(blk, x, sr)
    return y.indices, y.values


@task("spmspv_pull_block")
def _spmspv_pull_block(state: RuntimeState, payload):
    """Pull-direction Phase B: one rank's masked bottom-up block multiply.

    ``payload = (matrix_key, rank, x_indices, x_values, ncols, row_mask,
    sr)``; the resident object is the CSC block — the
    row-major (CSR) form the pull kernel scans is derived on first use
    and cached in the same resident store under ``(rank, "rowmajor")``,
    so it is built once per (matrix, worker) and freed together with
    the matrix.  ``row_mask`` selects the block's still-unvisited local
    rows.  Returns the partial output's ``(indices, values)``.
    """
    from ..semiring.spmspv import spmspv_pull
    from ..sparse.spvector import SparseVector

    matrix_key, rank, idx, vals, ncols, row_mask, sr = payload
    store = state.objects[matrix_key]
    rowmajor = store.get((rank, "rowmajor"))
    if rowmajor is None:
        rowmajor = store[rank].to_csr()
        store[(rank, "rowmajor")] = rowmajor
    x = SparseVector(int(ncols), idx, vals)
    y = spmspv_pull(rowmajor, x, sr, row_mask)
    return y.indices, y.values


@task("merge_packed")
def _merge_packed(state: RuntimeState, payload):
    """Phase C of the 2D SpMSpV: one rank's duplicate merge.

    ``payload = (packed, sr)`` with ``packed`` the rank's received wire
    records (:data:`repro.distributed.spmspv.PAIR_DTYPE`: an int64
    ``index`` lane plus a float64 ``value`` lane, so indices never round
    -trip through floats).  Sorts by index (stable) and reduces equal
    indices with the semiring add through the serial kernels'
    ``_group_reduce`` — ``reduceat`` order is fixed, so the result is
    identical on every engine.  Returns ``(indices, values)``.
    """
    from ..semiring.spmspv import _group_reduce

    packed, sr = payload
    if packed.shape[0] == 0:  # _group_reduce needs at least one entry
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return _group_reduce(np.ascontiguousarray(packed["index"]), packed["value"], sr)


@task("lexsort3")
def _lexsort3(state: RuntimeState, block: np.ndarray) -> np.ndarray:
    """SORTPERM step 2: one bucket owner's local lexicographic sort.

    ``block`` is an ``(k, 3)`` array of ``(parent, degree, id)`` tuples;
    returns the rows in ``np.lexsort`` order (deterministic).
    """
    if block.shape[0]:
        order = np.lexsort((block[:, 2], block[:, 1], block[:, 0]))
        block = block[order]
    return block


# ----------------------------------------------------------------------
# Serving tasks (the reordering service's executor)
# ----------------------------------------------------------------------
@task("service_rcm")
def _service_rcm(state: RuntimeState, payload) -> tuple:
    """One full reordering request (build + RCM) on a worker.

    The service's executor on both lanes: payloads come from
    :func:`repro.service.requests.encode_request`, one request per
    :meth:`~repro.runtime.pool.WorkerPool.call`, so a request that raises
    fails as its own call's ``TaskError``.  A request with ``nprocs``
    runs ``rcm_distributed`` on the simulated machine inside this
    worker, as ``repro.rcm(A, nprocs=k)`` does; the serial one runs
    ``rcm_serial``.
    """
    from ..service.requests import execute_request

    return execute_request(payload)


@task("bench_run")
def _bench_run(state: RuntimeState, payload) -> tuple:
    """One orchestrated benchmark run (a whole experiment) on a worker.

    The campaign orchestrator's executor: payloads come from
    :func:`repro.bench.orchestrate.expand_runs` as ``(experiment,
    kwargs)``, one run per :meth:`~repro.runtime.pool.WorkerPool.call`,
    and the reply is ``(result_dict, seconds)``; a run that raises fails
    as its own call's ``TaskError``.
    """
    from ..bench.orchestrate import execute_run

    return execute_run(payload)
