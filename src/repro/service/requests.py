"""Request payloads and their worker-side execution.

A serial-lane request travels to one :class:`~repro.runtime.pool.WorkerPool`
worker as a small picklable payload — either the CSR arrays themselves
or a spec string the worker materializes locally.  A request that
raises comes back as that one call's
:class:`~repro.runtime.pool.TaskError`, traceback included; no other
request shares the call, so a malformed request fails alone.

Cost accounting uses the existing :class:`~repro.machine.cost.CostLedger`
machinery: each request charges its measured build and ordering seconds
into ``service:build`` / ``service:rcm`` regions on a private ledger
whose breakdown rides back in the reply — the same region-dict shape the
distributed lane reports from its modeled Fig. 4 ledger.
"""

from __future__ import annotations

import time

from ..machine.cost import CostLedger
from ..sparse.csr import CSRMatrix
from .hashing import build_spec

__all__ = ["encode_request", "execute_request"]


def encode_request(matrix, scale: float = 1.0) -> tuple:
    """The picklable payload of one serial-lane request.

    A :class:`CSRMatrix` ships its arrays verbatim; a spec string ships
    as-is and the worker builds the matrix (deterministic generators:
    the result is the same matrix the driver would have built, without
    pushing megabytes through the pipe).
    """
    if isinstance(matrix, CSRMatrix):
        return ("csr", matrix.nrows, matrix.ncols, matrix.indptr,
                matrix.indices, matrix.data)
    if isinstance(matrix, str):
        return ("spec", matrix, scale)
    raise TypeError(
        f"expected a CSRMatrix or a spec string, got {type(matrix).__name__}"
    )


def execute_request(payload: tuple) -> tuple:
    """Run one reordering request.

    Returns ``(perm, algorithm, n, regions, cost_seconds)`` with
    ``regions`` the ledger breakdown (region name -> seconds).
    """
    from ..core.rcm_serial import rcm_serial

    ledger = CostLedger()
    t0 = time.perf_counter()
    kind = payload[0]
    if kind == "csr":
        _, nrows, ncols, indptr, indices, data = payload
        A = CSRMatrix(nrows, ncols, indptr, indices, data)
    elif kind == "spec":
        _, spec, scale = payload
        A = build_spec(spec, scale)
    else:
        raise ValueError(f"unknown request payload kind {kind!r}")
    if A.nrows != A.ncols:
        raise ValueError("RCM requires a square (symmetric) matrix")
    ledger.charge_compute(
        "service:build", time.perf_counter() - t0, operations=A.indices.size
    )
    t1 = time.perf_counter()
    ordering = rcm_serial(A)
    ledger.charge_compute(
        "service:rcm", time.perf_counter() - t1, operations=A.indices.size
    )
    return (
        ordering.perm,
        ordering.algorithm,
        A.nrows,
        ledger.breakdown(),
        ledger.total_seconds,
    )
