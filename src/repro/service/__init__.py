"""Ordering-as-a-service: the long-lived reordering server.

ROADMAP item 3: the paper's pipeline (pseudo-peripheral find -> BFS ->
RCM) wrapped in a persistent asyncio service that serves heavy
concurrent traffic.  Clients submit matrices or spec strings; a
scheduler hands each request to an idle worker of a warmed
:class:`~repro.runtime.pool.WorkerPool`; results are cached by matrix
content-hash with single-flight dedup; admission control bounds the
queue; worker crashes are recovered in place; every result carries a
:class:`~repro.machine.cost.CostLedger` cost breakdown.  Orderings are
bit-identical to direct :func:`repro.rcm` calls.

Layout
------
``hashing``
    Content-hash request identity and spec materialization.
``cache``
    Bounded LRU result cache + the crash-safe persistent disk tier
    (atomic writes, checksum-verified reads, quarantine for corrupt
    entries; finished results only).
``requests``
    Picklable request payloads + worker-side execution.
``server``
    :class:`ReorderingService` (scheduler, lanes, recovery) and the
    in-process :class:`ServiceClient`.
``serve``
    The ``repro-serve`` TCP front-end (newline-delimited JSON).

See DESIGN.md section 11 for the architecture and failure model.
"""

from .cache import DiskResultCache, ResultCache
from .hashing import build_spec, content_hash, request_key
from .server import (
    ReorderingService,
    RequestFailedError,
    RequestTimeoutError,
    ServiceClient,
    ServiceClosedError,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
    ServiceResult,
    ServiceStats,
)

__all__ = [
    "ReorderingService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceResult",
    "ServiceStats",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "RequestFailedError",
    "RequestTimeoutError",
    "ResultCache",
    "DiskResultCache",
    "content_hash",
    "request_key",
    "build_spec",
]
