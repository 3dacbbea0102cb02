"""Ordering-as-a-service: the async reordering server.

The paper's pipeline as a long-lived service (ROADMAP item 3): clients
submit matrices (or ``zoo:``/suite spec strings) through an asyncio
front-end, and a scheduler hands each request, in arrival order, to one
idle worker of a warmed :class:`~repro.runtime.pool.WorkerPool`; the
request resolves as soon as that worker replies.  A request with
``nprocs=`` runs the distributed algorithm on that worker, on the
simulated machine, as ``repro.rcm(A, nprocs=k)`` does.  Orderings are
bit-identical to direct :func:`repro.rcm` calls; the service adds
*serving* semantics:

* **content-addressed caching** — results are keyed by the matrix
  content-hash (:mod:`repro.service.hashing`) in a bounded LRU
  (:mod:`repro.service.cache`);
* **single-flight dedup** — identical concurrent submissions attach to
  one in-flight computation and all receive its result;
* **admission control / backpressure** — at most ``max_pending`` unique
  jobs may be queued or running; beyond that, submissions fail fast
  with a 429-style :class:`ServiceOverloadedError` instead of growing
  an unbounded queue;
* **per-request cost accounting** — every result carries a
  :class:`~repro.machine.cost.CostLedger` region breakdown (measured
  seconds in the serial lane, the modeled Fig. 4 ledger in the
  distributed lane);
* **crash and hang recovery** — a worker SIGKILLed mid-request (or one
  that misses the configured ``deadline`` and is declared wedged —
  :class:`~repro.runtime.pool.WorkerTimeoutError`) is replaced in place
  (:meth:`WorkerPool.repair`, which leaves the other requests' workers
  alone) and only that request is re-queued, with bounded exponential
  backoff (``max_retries`` / ``retry_backoff_ms``), or failed cleanly —
  :class:`RequestTimeoutError` (504-style) when the terminal cause was a
  missed deadline; partial results never enter the cache;
* **persistent results** — with ``disk_cache_dir`` set, finished results
  also land in a crash-safe :class:`~repro.service.cache.DiskResultCache`
  (atomic writes, checksummed reads, corrupt entries quarantined), so a
  restarted service serves warm results without recomputing;
* **graceful drain** — ``stop()`` refuses new work, finishes everything
  accepted, then tears the pool down.

Use :class:`ServiceClient` in-process (tests, embedding) or the
``repro-serve`` TCP front-end (:mod:`repro.service.serve`) over the
wire.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..runtime.pool import WorkerCrashError, WorkerPool, WorkerTimeoutError
from .cache import DiskResultCache, ResultCache
from .hashing import request_key
from .requests import check_nprocs, encode_request

__all__ = [
    "ServiceConfig",
    "ServiceStats",
    "ServiceResult",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "RequestFailedError",
    "RequestTimeoutError",
    "ReorderingService",
    "ServiceClient",
]


class ServiceError(RuntimeError):
    """Base class of service-level request failures."""

    status = 500


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the request (bounded queue full)."""

    status = 429


class ServiceClosedError(ServiceError):
    """The service is not accepting submissions (draining or stopped)."""

    status = 503


class RequestFailedError(ServiceError):
    """The request itself failed (worker-side error or crash retries
    exhausted); carries the underlying traceback text."""

    status = 500


class RequestTimeoutError(RequestFailedError):
    """The request missed its deadline and exhausted its retries: every
    attempt ended with a wedged worker.  504-style — the request *may*
    succeed later (larger deadline, lighter load); the pool itself was
    repaired and stays usable."""

    status = 504


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service instance."""

    #: worker processes in the pool; each request, serial or
    #: distributed, runs on one idle worker
    workers: int = 2
    #: admission bound: unique jobs queued or running before 429s
    max_pending: int = 32
    #: re-queues granted to a request interrupted by a worker crash
    max_retries: int = 1
    #: bounded LRU result-cache capacity
    cache_capacity: int = 256
    #: scale forwarded to suite-name spec builds
    scale: float = 1.0
    #: reply deadline of one request attempt in seconds (None = wait
    #: forever); an attempt, serial or distributed, is one worker call,
    #: so the deadline bounds all of it.  A worker that misses it is
    #: declared wedged, SIGKILLed and replaced; the interrupted request
    #: retries up to ``max_retries`` times, so a request's worst-case
    #: wall is ~``(max_retries + 1) * deadline`` plus the backoff sleeps
    deadline: float | None = None
    #: base of the bounded exponential backoff between a crash/timeout
    #: repair and the re-queue of the interrupted request
    retry_backoff_ms: float = 25.0
    #: directory of the persistent on-disk result tier (None = memory
    #: LRU only); survives restarts, verified on read, crash-safe writes
    disk_cache_dir: Any = None
    #: bounded entry count of the disk tier
    disk_cache_capacity: int = 4096


@dataclass
class ServiceStats:
    """Monotonic counters; ``to_dict()`` is the snapshot/report shape."""

    submitted: int = 0
    accepted: int = 0  # unique jobs enqueued
    rejected: int = 0  # admission-control 429s
    cache_hits: int = 0  # in-memory LRU hits
    disk_hits: int = 0  # persistent-tier hits (memory missed)
    coalesced: int = 0  # single-flight joiners of an in-flight job
    computed: int = 0  # unique jobs that finished successfully
    failed: int = 0  # unique jobs that failed
    batches: int = 0  # pool dispatches, one per job attempt
    worker_crashes: int = 0  # crash *or* deadline-timeout recoveries
    timeouts: int = 0  # recoveries whose cause was a missed deadline
    workers_replaced: int = 0
    retried: int = 0  # re-queues after a crash/timeout
    cost_seconds: float = 0.0  # accounted cost of successful computes

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class _Computed:
    """The shared outcome of one unique computation (immutable; every
    waiter wraps it in its own :class:`ServiceResult`)."""

    perm: np.ndarray
    algorithm: str
    n: int
    lane: str
    compute_ms: float
    queue_ms: float
    cost_seconds: float
    cost_regions: dict[str, float]
    retries: int


@dataclass(frozen=True)
class ServiceResult:
    """What one submission resolves to."""

    perm: np.ndarray  #: the RCM permutation (read-only view)
    algorithm: str  #: e.g. ``"rcm-serial"`` / ``"rcm-distributed-p4"``
    n: int
    key: str  #: cache key (content hash + lane)
    lane: str  #: ``"serial"`` or ``"distributed-p<k>"``
    cache_hit: bool  #: served from the result cache
    coalesced: bool  #: joined an in-flight identical request
    retries: int  #: crash re-queues the computation survived
    queue_ms: float  #: admission -> dispatch wait of the computation
    compute_ms: float  #: execution wall of the computation
    latency_ms: float  #: this submission's submit -> resolve wall
    cost_seconds: float  #: accounted cost (measured or modeled)
    #: CostLedger breakdown by region, plain floats: measured
    #: ``service:build``/``service:rcm`` seconds (serial) or the modeled
    #: Fig. 4 regions of ``rcm_distributed(A, nprocs=k)`` (distributed)
    cost_regions: dict[str, float]


class _Job:
    """One unique in-flight computation (single-flight unit)."""

    __slots__ = ("key", "matrix", "nprocs", "future", "enqueued_at", "retries")

    def __init__(self, key: str, matrix, nprocs, future) -> None:
        self.key = key
        self.matrix = matrix
        self.nprocs = nprocs
        self.future = future
        self.enqueued_at = time.perf_counter()
        self.retries = 0


class ReorderingService:
    """The reordering server; one instance per event loop."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        if self.config.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.stats = ServiceStats()
        self.cache = ResultCache(self.config.cache_capacity)
        self.disk: DiskResultCache | None = (
            DiskResultCache(
                self.config.disk_cache_dir, self.config.disk_cache_capacity
            )
            if self.config.disk_cache_dir is not None
            else None
        )
        self._pool: WorkerPool | None = None
        self._queue: asyncio.Queue[_Job] | None = None
        #: ids of the workers no job holds, in the order they came free
        self._idle: asyncio.Queue[int] | None = None
        #: the running jobs (the loop holds tasks only weakly)
        self._running: set[asyncio.Task] = set()
        self._inflight: dict[str, _Job] = {}
        self._scheduler_task: asyncio.Task | None = None
        self._accepting = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReorderingService":
        """Fork and warm the worker pool, start the scheduler."""
        if self._started:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue()
        self._idle = asyncio.Queue()
        for w in range(self.config.workers):
            self._idle.put_nowait(w)
        self._pool = WorkerPool(self.config.workers, deadline=self.config.deadline)
        self._pool.ping()  # warm: first dispatch pays no fork/attach cost
        self._scheduler_task = asyncio.create_task(
            self._scheduler(), name="repro-service-scheduler"
        )
        self._accepting = True
        self._started = True
        return self

    async def drain(self) -> None:
        """Wait until every accepted job has resolved (success or failure)."""
        while self._inflight:
            futures = [job.future for job in self._inflight.values()]
            await asyncio.gather(
                *(asyncio.shield(f) for f in futures), return_exceptions=True
            )

    async def stop(self) -> None:
        """Graceful shutdown: refuse new work, drain, tear down the pool."""
        if not self._started:
            return
        self._accepting = False
        await self.drain()
        self._scheduler_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._scheduler_task
        await asyncio.gather(*self._running)
        pool, self._pool = self._pool, None
        if pool is not None:
            await asyncio.to_thread(pool.close)
        self._started = False

    async def __aenter__(self) -> "ReorderingService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission (the client-facing half)
    # ------------------------------------------------------------------
    async def submit(self, matrix, *, nprocs: int | None = None) -> ServiceResult:
        """Submit one matrix (or spec string) for reordering.

        Resolves to a :class:`ServiceResult` whose ``perm`` is
        bit-identical to ``repro.rcm(matrix)`` (serial lane) or
        ``repro.rcm(matrix, nprocs=nprocs)`` (distributed lane).
        Raises ``ValueError`` for an ``nprocs`` that is not a positive
        perfect square and ``TypeError`` for a submission that is neither
        a matrix nor a spec string, both before the request is accepted;
        :class:`ServiceOverloadedError` when admission control rejects,
        :class:`ServiceClosedError` when draining/stopped, and
        :class:`RequestFailedError` when the computation itself fails.
        """
        t0 = time.perf_counter()
        self.stats.submitted += 1
        if not self._accepting:
            raise ServiceClosedError("service is not accepting submissions")
        check_nprocs(nprocs)
        key = request_key(matrix, nprocs)
        cached = self.cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return self._wrap(cached, key, t0, cache_hit=True, coalesced=False)
        job = self._inflight.get(key)
        if job is not None:
            self.stats.coalesced += 1
            computed = await asyncio.shield(job.future)
            return self._wrap(computed, key, t0, cache_hit=False, coalesced=True)
        if self.disk is not None:
            # synchronous on purpose: entry reads are small, and an await
            # here would open a duplicate-compute race against the
            # single-flight check above
            computed = self.disk.get(key)
            if computed is not None:
                computed.perm.setflags(write=False)  # pickled copies thaw
                self.stats.disk_hits += 1
                self.cache.put(key, computed)  # promote into the LRU
                return self._wrap(computed, key, t0, cache_hit=True, coalesced=False)
        if len(self._inflight) >= self.config.max_pending:
            self.stats.rejected += 1
            raise ServiceOverloadedError(
                f"admission control: {len(self._inflight)} jobs pending "
                f"(max_pending={self.config.max_pending}); retry later"
            )
        job = _Job(key, matrix, nprocs, asyncio.get_running_loop().create_future())
        self._inflight[key] = job
        self.stats.accepted += 1
        self._queue.put_nowait(job)
        computed = await asyncio.shield(job.future)
        return self._wrap(computed, key, t0, cache_hit=False, coalesced=False)

    def _wrap(
        self, computed: _Computed, key: str, t0: float, *, cache_hit: bool,
        coalesced: bool,
    ) -> ServiceResult:
        return ServiceResult(
            perm=computed.perm,
            algorithm=computed.algorithm,
            n=computed.n,
            key=key,
            lane=computed.lane,
            cache_hit=cache_hit,
            coalesced=coalesced,
            retries=computed.retries,
            queue_ms=computed.queue_ms,
            compute_ms=computed.compute_ms,
            latency_ms=(time.perf_counter() - t0) * 1000.0,
            cost_seconds=computed.cost_seconds,
            cost_regions=dict(computed.cost_regions),
        )

    # ------------------------------------------------------------------
    # Scheduler (the dispatching half)
    # ------------------------------------------------------------------
    async def _scheduler(self) -> None:
        """Hand each job, in arrival order, the next idle worker."""
        while True:
            job = await self._queue.get()
            worker = await self._idle.get()
            task = asyncio.create_task(self._run(job, worker))
            self._running.add(task)
            task.add_done_callback(self._running.discard)

    async def _run(self, job: _Job, worker: int) -> None:
        """One attempt of ``job`` on ``worker``; settles or re-queues it."""
        self.stats.batches += 1
        dispatched_at = time.perf_counter()
        backoff = None
        try:
            try:
                self._finish(job, await self._compute(job, worker, dispatched_at))
            except WorkerCrashError as exc:
                backoff = await self._recover(job, exc)
        except Exception as exc:
            # a job that fails fails alone; the scheduler keeps serving
            self._fail(job, RequestFailedError(f"{type(exc).__name__}: {exc}"))
        finally:
            self._idle.put_nowait(worker)
        if backoff is not None:
            await asyncio.sleep(backoff)
            self._queue.put_nowait(job)

    async def _compute(self, job: _Job, worker: int, dispatched_at: float) -> _Computed:
        """One request, serial or distributed, as one call on one worker."""
        payload = encode_request(job.matrix, job.nprocs, self.config.scale)
        t0 = time.perf_counter()
        perm, algorithm, n, regions, cost_seconds = await asyncio.to_thread(
            self._pool.call, worker, "service_rcm", payload
        )
        return _Computed(
            perm=perm,
            algorithm=algorithm,
            n=n,
            lane="serial" if job.nprocs is None else f"distributed-p{job.nprocs}",
            compute_ms=(time.perf_counter() - t0) * 1000.0,
            queue_ms=(dispatched_at - job.enqueued_at) * 1000.0,
            cost_seconds=cost_seconds,
            cost_regions=regions,
            retries=job.retries,
        )

    # ------------------------------------------------------------------
    # Completion, failure, crash recovery
    # ------------------------------------------------------------------
    def _finish(self, job: _Job, computed: _Computed) -> None:
        computed.perm.setflags(write=False)  # shared across all waiters
        self.cache.put(job.key, computed)
        if self.disk is not None:
            self.disk.put(job.key, computed)
        self._inflight.pop(job.key, None)
        self.stats.computed += 1
        self.stats.cost_seconds += float(computed.cost_seconds)
        if not job.future.done():
            job.future.set_result(computed)

    def _fail(self, job: _Job, exc: ServiceError) -> None:
        # a failed computation must leave no trace: not in the memory or
        # disk cache (no poisoning) and not in the single-flight table
        # (a retry submission recomputes instead of joining a corpse) —
        # cancellation and crash recovery share this eviction path
        self.cache.discard(job.key)
        if self.disk is not None:
            self.disk.discard(job.key)
        self._inflight.pop(job.key, None)
        self.stats.failed += 1
        if not job.future.done():
            job.future.set_exception(exc)

    async def _recover(self, job: _Job, exc: WorkerCrashError) -> float | None:
        """A worker died or hung under ``job``: replace it, then retry or fail.

        Returns the backoff before the re-queue, or ``None`` when the
        retries are exhausted and the job failed.  Re-queues back off
        exponentially (``retry_backoff_ms * 2**(n-1)`` before the n-th
        retry): after a repair, immediately re-dispatching into whatever
        wedged the worker (host overload, a poisoned input) tends to
        wedge the replacement too.  Deadline-caused failures surface as
        504-style :class:`RequestTimeoutError`; genuine crashes keep
        :class:`RequestFailedError`.
        """
        timeout = isinstance(exc, WorkerTimeoutError)
        self.stats.worker_crashes += 1
        if timeout:
            self.stats.timeouts += 1
        replaced = await asyncio.to_thread(self._pool.repair)
        self.stats.workers_replaced += len(replaced)
        job.retries += 1
        if job.retries > self.config.max_retries:
            kind = RequestTimeoutError if timeout else RequestFailedError
            cause = "missed its deadline" if timeout else "crashed"
            self._fail(
                job,
                kind(
                    f"worker {cause} and retries exhausted "
                    f"({self.config.max_retries}): {exc}"
                ),
            )
            return None
        self.stats.retried += 1
        return self.config.retry_backoff_ms * (2 ** (job.retries - 1)) / 1000.0


class ServiceClient:
    """In-process client of a running :class:`ReorderingService`.

    The test-and-embedding front-end the TCP server
    (:mod:`repro.service.serve`) is also built on: one ``reorder`` call
    per request, stats on demand.
    """

    def __init__(self, service: ReorderingService) -> None:
        self._service = service

    async def reorder(self, matrix, *, nprocs: int | None = None) -> ServiceResult:
        """Submit and await one reordering request."""
        return await self._service.submit(matrix, nprocs=nprocs)

    def stats(self) -> dict:
        """Current service counters (monotonic), plus disk-tier stats
        under ``"disk_cache"`` when the persistent tier is enabled."""
        out = self._service.stats.to_dict()
        if self._service.disk is not None:
            out["disk_cache"] = self._service.disk.stats()
        return out
