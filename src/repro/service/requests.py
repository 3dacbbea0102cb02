"""Request payloads and their worker-side execution.

Every request travels to one :class:`~repro.runtime.pool.WorkerPool`
worker as a small picklable payload: its ``nprocs`` plus either the CSR
arrays themselves or a spec string the worker materializes locally.  A
request that raises comes back as that one call's
:class:`~repro.runtime.pool.TaskError`, traceback included; no other
request shares the call, so a malformed request fails alone.

Cost accounting uses the existing :class:`~repro.machine.cost.CostLedger`
machinery.  A serial request (``nprocs=None``) charges its measured
build and ordering seconds into ``service:build`` / ``service:rcm``
regions on a private ledger.  A distributed request runs
:func:`~repro.distributed.rcm.rcm_distributed` on the simulated machine,
as ``repro.rcm(A, nprocs=k)`` does, and reports that run's modeled
Fig. 4 ledger.  Either breakdown rides back in the reply as plain
floats.
"""

from __future__ import annotations

import math
import numbers
import time

from ..machine.cost import CostLedger
from ..sparse.csr import CSRMatrix
from .hashing import build_spec

__all__ = ["check_nprocs", "encode_request", "execute_request"]


def check_nprocs(nprocs) -> None:
    """Reject an ``nprocs`` that names no square process grid.

    ``None`` (the serial lane) and positive perfect-square integers pass;
    anything else, a float, a string or a bool included, raises
    ``ValueError`` before the request is hashed or queued.
    """
    if nprocs is not None and (
        isinstance(nprocs, bool)
        or not isinstance(nprocs, numbers.Integral)
        or nprocs < 1
        or math.isqrt(nprocs) ** 2 != nprocs
    ):
        raise ValueError(
            f"nprocs must be None or an integer that is a positive perfect "
            f"square (a square process grid), got {nprocs!r}"
        )


def encode_request(matrix, nprocs: int | None, scale: float = 1.0) -> tuple:
    """The picklable payload of one request.

    A :class:`CSRMatrix` ships its arrays verbatim; a spec string ships
    as-is and the worker builds the matrix (deterministic generators:
    the result is the same matrix the driver would have built, without
    pushing megabytes through the pipe).
    """
    if isinstance(matrix, CSRMatrix):
        return ("csr", nprocs, matrix.nrows, matrix.ncols, matrix.indptr,
                matrix.indices, matrix.data)
    if isinstance(matrix, str):
        return ("spec", nprocs, matrix, scale)
    raise TypeError(
        f"expected a CSRMatrix or a spec string, got {type(matrix).__name__}"
    )


def execute_request(payload: tuple) -> tuple:
    """Run one reordering request.

    Returns ``(perm, algorithm, n, regions, cost_seconds)`` with
    ``regions`` the ledger breakdown (region name -> seconds).
    """
    from ..core.rcm_serial import rcm_serial

    t0 = time.perf_counter()
    kind, nprocs, *source = payload
    if kind == "csr":
        A = CSRMatrix(*source)
    elif kind == "spec":
        A = build_spec(*source)
    else:
        raise ValueError(f"unknown request payload kind {kind!r}")
    if A.nrows != A.ncols:
        raise ValueError("RCM requires a square (symmetric) matrix")
    if nprocs is None:
        ledger = CostLedger()
        ledger.charge_compute(
            "service:build", time.perf_counter() - t0, operations=A.indices.size
        )
        t1 = time.perf_counter()
        ordering = rcm_serial(A)
        ledger.charge_compute(
            "service:rcm", time.perf_counter() - t1, operations=A.indices.size
        )
    else:
        from ..distributed.rcm import rcm_distributed

        result = rcm_distributed(A, nprocs=nprocs)
        ordering, ledger = result.ordering, result.ledger
    # modeled charges are numpy scalars; plain floats keep results
    # JSON-serializable end to end (the TCP front-end)
    return (
        ordering.perm,
        ordering.algorithm,
        A.nrows,
        {k: float(v) for k, v in ledger.breakdown().items()},
        float(ledger.total_seconds),
    )
