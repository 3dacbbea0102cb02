"""``repro-serve`` — the TCP front-end of the reordering service.

Wire protocol: newline-delimited JSON, one object per request, answered
in order per connection (concurrency comes from concurrent connections
— each connection handler submits into the shared service, whose
scheduler hands each request to an idle worker).

Request fields::

    {"id": 7,                      # echoed back verbatim (optional)
     "matrix": "zoo:rmat14",       # spec string: zoo entry or suite name
     "mm": "%%MatrixMarket ...",   # OR an inline Matrix Market document
     "nprocs": 4}                  # optional: distributed lane, square grid

Response fields::

    {"id": 7, "ok": true, "n": 16384, "perm": [...], "algorithm": ...,
     "cache_hit": false, "coalesced": false, "lane": "serial",
     "latency_ms": 12.3, "cost_seconds": ..., "cost_regions": {...}}

    {"id": 7, "ok": false, "status": 429, "error": "admission control: ..."}

Errors map to HTTP-flavored status codes: 400 malformed request (an
``nprocs`` that is not a positive perfect-square integer included), 413
oversized request line, 429 admission-control rejection, 500 failed
computation, 503 draining, 504 deadline exhausted (a worker hung past
``--deadline`` on every retry).  A ``{"stats": true}`` request returns
the service counters instead of an ordering.

An oversized request line is answered with a 413-style JSON error and
the connection *survives*: the reader discards bytes until the next
newline and resumes normal framing, so one fat request cannot silently
kill a connection multiplexing many.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import io
import json
import signal
import sys

from .requests import check_nprocs
from .server import (
    ReorderingService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)

__all__ = ["start_service_server", "main"]

#: Request-line limit: inline Matrix Market payloads and large perms must
#: fit on one line (16 MiB covers every suite/zoo entry the lane allows).
_LINE_LIMIT = 16 * 1024 * 1024

#: Socket read size of the line framer.
_READ_CHUNK = 1 << 16


def _parse_matrix(req: dict):
    """The submission object of one request dict (spec string or CSR)."""
    spec = req.get("matrix")
    mm = req.get("mm")
    if (spec is None) == (mm is None):
        raise ValueError("exactly one of 'matrix' or 'mm' is required")
    if spec is not None:
        if not isinstance(spec, str):
            raise ValueError("'matrix' must be a spec string")
        return spec
    from ..sparse.csr import CSRMatrix
    from ..sparse.io import read_matrix_market

    return CSRMatrix.from_coo(read_matrix_market(io.StringIO(mm)))


async def _handle_request(client: ServiceClient, req: dict) -> dict:
    rid = req.get("id")
    if req.get("stats"):
        return {"id": rid, "ok": True, "stats": client.stats()}
    try:
        matrix = _parse_matrix(req)
        nprocs = req.get("nprocs")
        check_nprocs(nprocs)
    except (ValueError, TypeError, KeyError) as exc:
        return {"id": rid, "ok": False, "status": 400, "error": str(exc)}
    try:
        result = await client.reorder(matrix, nprocs=nprocs)
    except ServiceError as exc:
        return {"id": rid, "ok": False, "status": exc.status, "error": str(exc)}
    return {
        "id": rid,
        "ok": True,
        "n": result.n,
        "perm": result.perm.tolist(),
        "algorithm": result.algorithm,
        "lane": result.lane,
        "cache_hit": result.cache_hit,
        "coalesced": result.coalesced,
        "retries": result.retries,
        "latency_ms": result.latency_ms,
        "cost_seconds": result.cost_seconds,
        "cost_regions": result.cost_regions,
    }


async def _next_line(
    reader, buf: bytearray, limit: int | None = None
) -> tuple[str, bytes | None]:
    """Read one newline-terminated request line with explicit framing.

    Returns ``("line", bytes)`` for a complete line, ``("over", None)``
    when the line exceeded ``limit`` (the oversized bytes are discarded
    up to and including the terminating newline, so framing survives and
    the caller can answer 413 and keep serving), and ``("eof", None)``
    at end of stream.  ``buf`` carries the unconsumed remainder between
    calls.  Built on ``reader.read`` rather than ``readline`` because
    ``StreamReader.readline`` turns an overrun into a bare
    ``ValueError`` *after* discarding an unknowable amount of buffered
    data — unrecoverable framing, which PR 7 papered over by dropping
    the whole connection.
    """
    if limit is None:
        limit = _LINE_LIMIT  # resolved per call so tests can shrink it
    searched = 0  # no b"\n" anywhere before this offset: don't rescan
    oversized = False
    while True:
        nl = buf.find(b"\n", searched)
        if nl >= 0:
            line = bytes(buf[:nl])
            del buf[: nl + 1]
            # the len() check catches a fat line that arrived whole in
            # one read, before the incremental length guard below ran
            if oversized or len(line) > limit:
                return ("over", None)
            return ("line", line)
        searched = len(buf)
        if searched > limit and not oversized:
            oversized = True
        if oversized:
            del buf[:]  # drop the fat prefix; keep scanning for newline
            searched = 0
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            if buf and not oversized:
                line = bytes(buf)  # trailing request without a newline
                buf.clear()
                return ("line", line)
            return ("eof", None)
        buf += chunk


async def _serve_connection(client: ServiceClient, reader, writer) -> None:
    buf = bytearray()
    try:
        while True:
            kind, line = await _next_line(reader, buf)
            if kind == "eof":
                break
            if kind == "over":
                resp = {
                    "ok": False,
                    "status": 413,
                    "error": (
                        f"request line exceeds {_LINE_LIMIT} bytes; "
                        "split the matrix upload or use a spec string"
                    ),
                }
            else:
                line = line.strip()
                if not line:
                    continue
                try:
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    resp = {
                        "ok": False,
                        "status": 400,
                        "error": f"bad request: {exc}",
                    }
                else:
                    resp = await _handle_request(client, req)
            writer.write(json.dumps(resp).encode() + b"\n")
            await writer.drain()
    except ConnectionResetError:
        pass  # client gone mid-exchange
    finally:
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()


async def start_service_server(
    config: ServiceConfig, host: str = "127.0.0.1", port: int = 0
):
    """Start the service plus its TCP listener; ``(server, service)``.

    The caller owns shutdown: close the server, then ``await
    service.stop()`` (graceful drain).  ``port=0`` binds an ephemeral
    port (tests); read it back from ``server.sockets[0]``.
    """
    service = await ReorderingService(config).start()
    client = ServiceClient(service)

    async def handler(reader, writer):
        await _serve_connection(client, reader, writer)

    server = await asyncio.start_server(handler, host, port, limit=_LINE_LIMIT)
    return server, service


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Long-lived RCM reordering server: newline-delimited "
            "JSON over TCP, content-hash result caching with single-flight "
            "dedup, admission control, and worker-crash recovery.  "
            "Orderings are bit-identical to direct repro.rcm calls."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8571)
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes in the pool"
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=32,
        help="admission bound: unique jobs queued or running before 429s",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=256, help="LRU result-cache entries"
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "reply deadline of one request attempt, on either lane; a "
            "worker that misses it is SIGKILLed and replaced, the request "
            "retries with backoff and fails 504-style at the retry bound "
            "(default: no deadline)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="re-queues granted to a request interrupted by a crash/timeout",
    )
    parser.add_argument(
        "--disk-cache",
        default=None,
        metavar="DIR",
        help=(
            "enable the persistent on-disk result tier in DIR (crash-safe "
            "atomic writes, checksum-verified reads, corrupt entries "
            "quarantined); results survive service restarts"
        ),
    )
    parser.add_argument(
        "--disk-cache-capacity",
        type=int,
        default=4096,
        help="disk-tier entry bound (least-recently-read evicted)",
    )
    return parser


async def _run(args) -> int:
    config = ServiceConfig(
        workers=args.workers,
        max_pending=args.max_pending,
        cache_capacity=args.cache_capacity,
        deadline=args.deadline,
        max_retries=args.max_retries,
        disk_cache_dir=args.disk_cache,
        disk_cache_capacity=args.disk_cache_capacity,
    )
    server, service = await start_service_server(config, args.host, args.port)
    bound = server.sockets[0].getsockname()
    print(
        f"repro-serve listening on {bound[0]}:{bound[1]} "
        f"({args.workers} workers, max_pending={args.max_pending})",
        flush=True,
    )
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # pragma: no cover
            loop.add_signal_handler(sig, stop_event.set)
    await stop_event.wait()
    print("repro-serve draining...", flush=True)
    server.close()
    await server.wait_closed()
    await service.stop()  # graceful: finishes everything accepted
    print("repro-serve stopped.", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        list(sys.argv[1:]) if argv is None else list(argv)
    )
    try:
        return asyncio.run(_run(args))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
