"""Worker-process pool: lifecycle, dispatch, crash detection, teardown.

Engines: processes-only (the simulated engine needs no pool).  Charges
no modeled cost — the pool reports *measured* seconds (per-worker task
time and full dispatch wall time) to its callers.

A :class:`WorkerPool` forks ``nworkers`` long-lived processes, each
running :func:`repro.runtime.worker.worker_main` over a private duplex
pipe.  Every pool forks, so its workers inherit every task registered
before the pool was built (tests register their own).  Simulated ranks
map onto workers in contiguous chunks (:meth:`assign`), the same mapping
used to scatter rank-resident objects (matrix blocks), so a rank's state
and its supersteps always land on the same worker.

:meth:`map_ranks` and the other supersteps address every worker and
return when all have replied, the barrier the BSP ledger assumes;
:meth:`call` runs one task on one worker, so threads can keep disjoint
workers busy with independent work (the service's serial lane, the
campaign orchestrator's runs).

Failure model: a worker that dies (killed, OOM, segfault) surfaces as
:class:`WorkerCrashError` on the next dispatch; a worker that *hangs* —
wedged in a syscall, spinning, or silently dropping its reply — is
detected by the pool-wide per-exchange **deadline** (``conn``-level
``wait`` with a timeout instead of a blocking ``recv``), SIGKILLed, and
surfaced as :class:`WorkerTimeoutError` (a :class:`WorkerCrashError`
subclass, so every existing recovery path treats it as a retriable
crash); a task
that merely raises surfaces as :class:`TaskError` carrying *every*
failed worker's traceback while the workers — and the pool — stay
usable.  Health is per worker: one that died, was declared wedged or
still owes a reply from an interrupted exchange refuses dispatch until
:meth:`repair` replaces it in place (fresh process, fresh pipe, same
pool object) while the others keep serving — the serving layer's
recovery path, which avoids refork-the-world restarts.
``close()`` is idempotent (including concurrent double-close from a
service thread racing the interpreter-exit hook), runs at interpreter
exit for any leaked pool, and tears down processes and shared-memory
arenas even after crashes.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import threading
import time
import weakref
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Sequence

from .. import faults
from .shm import Arena
from .worker import worker_main

__all__ = ["WorkerPool", "WorkerCrashError", "WorkerTimeoutError", "TaskError"]


class WorkerCrashError(RuntimeError):
    """A worker process died; it refuses dispatch until repaired."""


class WorkerTimeoutError(WorkerCrashError):
    """A worker missed the exchange deadline: declared wedged and
    SIGKILLed.  Subclasses :class:`WorkerCrashError` so hang recovery
    rides the exact crash path — :meth:`WorkerPool.repair` replaces the
    killed workers in place and callers retry or fail cleanly."""


class TaskError(RuntimeError):
    """Tasks raised on workers; carries every failed worker's traceback."""


_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


@atexit.register
def _close_leaked_pools() -> None:  # pragma: no cover - interpreter teardown
    for pool in list(_LIVE_POOLS):
        pool.close()


class WorkerPool:
    """A fixed set of worker processes executing named tasks."""

    def __init__(self, nworkers: int, deadline: float | None = None) -> None:
        """``deadline`` bounds every exchange's reply wait, in seconds
        (``None`` waits forever)."""
        if nworkers < 1:
            raise ValueError("need at least one worker")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.deadline = deadline
        # Start the shared-memory resource tracker *before* forking, so every
        # worker inherits the one tracker instead of lazily spawning its own.
        # A private per-worker tracker would try to "clean up" (unlink!) the
        # driver's live arenas when that worker exits.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self.nworkers = nworkers
        self._mp_ctx = mp.get_context("fork")
        self._procs = []
        self._conns = []
        self._closed = False
        #: close() may race between a service thread, atexit and __del__;
        #: the lock makes "first caller tears down, everyone else returns"
        #: hold even for concurrent callers
        self._close_lock = threading.Lock()
        #: guards ``_busy`` and ``_down`` against concurrent dispatchers
        self._lock = threading.Lock()
        #: workers inside some thread's exchange (or repair) right now
        self._busy: set[int] = set()
        #: workers that refuse dispatch until repair(): dead, declared
        #: wedged, or owing a reply from an interrupted exchange
        self._down: set[int] = set()
        #: keys already scattered to workers (dedup for ensure-style callers)
        self.registered_keys: set[str] = set()
        self.in_arena = Arena("in")
        self.out_arena = Arena("out")
        for w in range(nworkers):
            self._procs.append(None)
            self._conns.append(None)
            self._spawn(w)
        _LIVE_POOLS.add(self)

    def _spawn(self, w: int) -> None:
        """(Re)create worker slot ``w``: fresh process, fresh pipe."""
        parent, child = self._mp_ctx.Pipe(duplex=True)
        proc = self._mp_ctx.Process(
            target=worker_main,
            args=(w, child),
            name=f"repro-worker-{w}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[w] = proc
        self._conns[w] = parent

    # ------------------------------------------------------------------
    # Rank -> worker placement
    # ------------------------------------------------------------------
    def assign(self, nranks: int) -> list[int]:
        """Owning worker of each of ``nranks`` ranks (contiguous chunks)."""
        return [r * self.nworkers // nranks for r in range(nranks)]

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self._procs]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _claim(self, workers) -> None:
        """Mark ``workers`` busy for one exchange, or refuse it."""
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._lock:
            down = self._down.intersection(workers)
            if down:
                raise WorkerCrashError(
                    f"worker(s) {sorted(down)} failed earlier; "
                    f"repair() replaces them in place"
                )
            busy = self._busy.intersection(workers)
            if busy:
                raise RuntimeError(
                    f"worker(s) {sorted(busy)} busy in another thread's call"
                )
            self._busy.update(workers)

    def _crash(self, worker: int, cause: BaseException) -> WorkerCrashError:
        proc = self._procs[worker]
        proc.join(timeout=0.5)
        return WorkerCrashError(
            f"worker {worker} (pid {proc.pid}) died "
            f"(exitcode {proc.exitcode}): {cause!r}"
        )

    def _wedged(self, waiting: set[int]) -> WorkerTimeoutError:
        """Declare every still-unanswered worker wedged: SIGKILL them and
        build the timeout error.  The killed workers still owe replies —
        :meth:`repair` settles them (their pipes now read EOF) exactly like
        externally killed workers."""
        details = []
        for w in sorted(waiting):
            proc = self._procs[w]
            details.append(f"worker {w} (pid {proc.pid})")
            proc.kill()
        return WorkerTimeoutError(
            f"deadline ({self.deadline:.3g}s) exceeded waiting for "
            f"{', '.join(details)}; wedged workers were SIGKILLed — "
            f"repair() replaces them in place"
        )

    def _inject_send_fault(self, msg: tuple) -> tuple:
        """Replace ``msg`` with a fault order when an armed worker fault
        fires.  Decisions are driver-side (message sends are the hit
        counter), so respawned workers start clean and a bounded spec
        lets the retry after repair() succeed deterministically."""
        spec = faults.fire("worker.hang")
        if spec is not None:
            return ("fault", "hang", spec.seed)
        spec = faults.fire("worker.crash")
        if spec is not None:
            return ("fault", "crash", spec.seed)
        return msg

    def _exchange(self, messages: dict[int, tuple]) -> dict[int, tuple[float, Any]]:
        """Send one message per worker, collect one reply per worker.

        Replies are collected through a ``wait``/``poll`` loop bounded by
        the pool's ``deadline``: a worker that has not answered when it
        expires is SIGKILLed and the whole exchange raises
        :class:`WorkerTimeoutError`.  Returns
        ``{worker: (elapsed_seconds, results)}``; raises
        :class:`WorkerCrashError` if any addressed worker is gone and
        :class:`TaskError` — aggregating *every* failed worker's remote
        traceback — if any task raised.
        """
        self._claim(messages)
        conns = {w: self._conns[w] for w in messages}
        conn_owner = {id(conn): w for w, conn in conns.items()}
        waiting: set[int] = set()
        replies: dict[int, tuple[float, Any]] = {}
        failures: list[tuple[int, str]] = []
        try:
            for w, msg in messages.items():
                if faults.active():
                    msg = self._inject_send_fault(msg)
                # owed from here on, even if the send fails or lands in
                # the pipe buffer of an already-dead worker
                waiting.add(w)
                try:
                    conns[w].send(msg)
                except (BrokenPipeError, OSError) as exc:
                    raise self._crash(w, exc) from exc
            deadline_at = (
                None if self.deadline is None else time.monotonic() + self.deadline
            )
            while waiting:
                timeout = None
                if deadline_at is not None:
                    timeout = max(deadline_at - time.monotonic(), 0.0)
                ready = _wait_ready([conns[w] for w in waiting], timeout)
                if not ready:
                    raise self._wedged(waiting)
                for conn in ready:
                    w = conn_owner[id(conn)]
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError) as exc:
                        raise self._crash(w, exc) from exc
                    if faults.fire("pipe.drop_reply") is not None:
                        # the reply is "lost in transit": the work happened
                        # but the answer never arrives, so only the deadline
                        # can detect the stall (hang-detection's worst case)
                        continue
                    waiting.discard(w)
                    if reply[0] == "err":
                        failures.append((w, reply[1]))
                    else:
                        replies[w] = (reply[1], reply[2])
        finally:
            with self._lock:
                # a worker still owed a reply is out of step with the pipe
                # protocol until repair() drains or replaces it
                self._down.update(waiting)
                self._busy.difference_update(messages)
        if failures:
            detail = "\n".join(
                f"task failed on worker {w}:\n{tb}" for w, tb in failures
            )
            raise TaskError(
                f"{len(failures)} worker task(s) failed:\n{detail}"
                if len(failures) > 1
                else detail
            )
        return replies

    def map_ranks(
        self, name: str, payloads: Sequence[Any]
    ) -> tuple[list[Any], float, float]:
        """Run task ``name`` once per rank payload, on the ranks' workers.

        Every worker receives a message (possibly with an empty payload
        list), making each call a full synchronization point — the BSP
        superstep semantics the modeled ledger assumes.  Returns
        ``(results_in_rank_order, max_worker_seconds, wall_seconds)``.
        """
        t0 = time.perf_counter()
        owner = self.assign(len(payloads)) if payloads else []
        per_worker: dict[int, list[Any]] = {w: [] for w in range(self.nworkers)}
        for rank, payload in enumerate(payloads):
            per_worker[owner[rank]].append(payload)
        replies = self._exchange(
            {w: ("map", name, items) for w, items in per_worker.items()}
        )
        wall = time.perf_counter() - t0
        worker_secs = max(elapsed for elapsed, _ in replies.values())
        results: list[Any] = []
        cursor = {w: 0 for w in range(self.nworkers)}
        for rank in range(len(payloads)):
            w = owner[rank]
            results.append(replies[w][1][cursor[w]])
            cursor[w] += 1
        return results, worker_secs, wall

    def call(self, worker: int, name: str, payload: Any) -> Any:
        """Run task ``name`` on ``payload`` on worker ``worker`` alone and
        return its result; the other workers stay free for other threads."""
        return self._exchange({worker: ("map", name, [payload])})[worker][1][0]

    def ping(self) -> tuple[float, float]:
        """One empty round trip: ``(max_worker_seconds, wall_seconds)``."""
        _, worker_secs, wall = self.map_ranks("ping", [])
        return worker_secs, wall

    # ------------------------------------------------------------------
    # Object store
    # ------------------------------------------------------------------
    def scatter_object(self, key: str, per_worker_payloads: Sequence[Any]) -> None:
        """Install ``per_worker_payloads[w]`` as object ``key`` on worker ``w``."""
        if len(per_worker_payloads) != self.nworkers:
            raise ValueError("need one payload per worker")
        self._exchange(
            {
                w: ("put", key, per_worker_payloads[w])
                for w in range(self.nworkers)
            }
        )
        self.registered_keys.add(key)

    def drop_object(self, key: str) -> None:
        """Free object ``key`` on every worker (no-op while one is down).

        Shared long-lived pools otherwise accumulate one resident blocks
        payload per matrix; call this when a matrix is done with the
        pool.
        """
        self.registered_keys.discard(key)
        if self._closed or self._down:
            return
        self._exchange({w: ("del", key) for w in range(self.nworkers)})

    # ------------------------------------------------------------------
    # Recovery: replace dead workers without rebuilding the pool
    # ------------------------------------------------------------------
    def repair(self, timeout: float = 5.0) -> list[int]:
        """Replace dead workers and resynchronize the pipe protocol.

        Call after a :class:`WorkerCrashError`: drains the stale reply a
        surviving worker still owes from the interrupted exchange, forks
        a fresh process (with a fresh pipe) into each dead slot, and
        returns both to service — on the *same* pool object, preserving
        arenas and rank placement.  A down worker that does not answer
        within ``timeout`` seconds is treated as wedged and replaced too.
        Workers inside another thread's call are left alone: that call
        settles them, and a later repair() replaces them if it fails.

        Replaced workers start with empty object stores, so
        ``registered_keys`` is cleared whenever any slot is replaced:
        ensure-style callers (``DistContext.ensure_rank_objects``)
        re-scatter on next use, and survivors just overwrite their copy.

        Returns the sorted list of replaced worker slots (empty when the
        pool was healthy).  Raises :class:`RuntimeError` on a closed
        pool.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._lock:
            free = [w for w in range(self.nworkers) if w not in self._busy]
            exited = {w for w in free if not self._procs[w].is_alive()}
            settle = exited | (self._down - self._busy)
            # claimed: a concurrent dispatch to them is refused as a crash
            # (retriable) instead of racing the respawn
            self._down |= settle
            self._busy |= settle
        dead: set[int] = set()
        try:
            deadline = time.monotonic() + timeout
            for w in sorted(settle):
                try:
                    if self._procs[w].is_alive() and self._conns[w].poll(
                        max(deadline - time.monotonic(), 0.0)
                    ):
                        self._conns[w].recv()  # the interrupted exchange's reply
                    else:  # dead, or alive but unresponsive: replace
                        dead.add(w)
                except (EOFError, OSError):
                    dead.add(w)
            for w in sorted(dead):
                proc = self._procs[w]
                if proc.is_alive():  # pragma: no cover - wedged worker
                    proc.terminate()
                proc.join(timeout=timeout)
                try:
                    self._conns[w].close()
                except OSError:  # pragma: no cover - already closed
                    pass
                self._spawn(w)
            if dead:
                self.registered_keys.clear()
            self._down -= settle
        finally:
            with self._lock:
                self._busy -= settle
        return sorted(dead)

    # ------------------------------------------------------------------
    # Shared-memory copy supersteps (the collectives' transport)
    # ------------------------------------------------------------------
    def run_copy(
        self, spans: Sequence[tuple[int, int, int]]
    ) -> tuple[float, float]:
        """Execute byte copies between the in/out arenas on the workers.

        ``spans`` are ``(src_off, dst_off, nbytes)`` triples with disjoint
        destinations; they are dealt round-robin across workers.  Always
        synchronizes every worker (even with no spans), so the measured
        wall time includes the collective's latency floor.  Returns
        ``(max_worker_seconds, wall_seconds)``.
        """
        t0 = time.perf_counter()
        per_worker: list[list[tuple[int, int, int]]] = [
            [] for _ in range(self.nworkers)
        ]
        for i, span in enumerate(spans):
            per_worker[i % self.nworkers].append(span)
        in_name = self.in_arena.name if spans else ""
        out_name = self.out_arena.name if spans else ""
        replies = self._exchange(
            {
                w: ("map", "copy_spans", [(in_name, out_name, per_worker[w])])
                for w in range(self.nworkers)
            }
        )
        wall = time.perf_counter() - t0
        worker_secs = max(elapsed for elapsed, _ in replies.values())
        return worker_secs, wall

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 2.0) -> None:
        """Stop workers and free shared memory (idempotent, crash-safe).

        Safe to call any number of times, from any thread, and during
        interpreter exit: the first caller tears down, every later (or
        concurrent) caller returns immediately, and each teardown step
        is individually shielded so a half-dismantled runtime (dead
        workers, multiprocessing internals already finalized by atexit)
        cannot abort the rest of the cleanup.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError, ValueError):
                pass
        for proc in self._procs:
            try:
                proc.join(timeout=timeout)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=timeout)
            except Exception:  # pragma: no cover - interpreter teardown
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self.in_arena.close()
        self.out_arena.close()
        _LIVE_POOLS.discard(self)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - gc timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"WorkerPool(nworkers={self.nworkers}, {state})"
