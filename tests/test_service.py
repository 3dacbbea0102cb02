"""The reordering service end to end.

Covers the serving semantics the service layers on top of the paper's
pipeline: bit-identity with direct ``rcm`` calls on both lanes,
content-hash caching, single-flight coalescing of concurrent identical
submissions, admission control, failure isolation (one bad request
cannot poison its batch or the cache), graceful drain, per-request cost
accounting, and the ``repro-serve`` TCP front-end protocol.

Fault injection (SIGKILLed workers) lives in ``test_service_faults.py``;
sustained concurrent load in ``test_service_load.py``.
"""

from __future__ import annotations

import asyncio
import io
import json

import numpy as np
import pytest

from repro.core.rcm_serial import rcm_serial
from repro.distributed.rcm import rcm_distributed
from repro.matrices.suite import PAPER_SUITE
from repro.service import (
    ReorderingService,
    RequestFailedError,
    ResultCache,
    ServiceClient,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
    build_spec,
    content_hash,
    request_key,
)
from repro.sparse import CSRMatrix
from tests.conftest import csr_from_edges

pytestmark = pytest.mark.service


def run(coro):
    return asyncio.run(coro)


def ladder(n: int = 40) -> CSRMatrix:
    """A small banded graph with a non-trivial RCM ordering."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, i + 2) for i in range(n - 2)]
    return csr_from_edges(n, edges)


# ----------------------------------------------------------------------
# Request identity: content hashing + cache
# ----------------------------------------------------------------------
def test_content_hash_is_stable_and_content_addressed():
    A = ladder()
    B = ladder()  # same content, distinct object
    C = ladder(41)
    assert content_hash(A) == content_hash(A)  # memoized path
    assert content_hash(A) == content_hash(B)
    assert content_hash(A) != content_hash(C)


def test_request_key_separates_lanes():
    A = ladder()
    assert request_key(A, None) != request_key(A, 4)
    assert request_key(A, 4) != request_key(A, 9)
    assert request_key("nd24k", None) != request_key(A, None)
    with pytest.raises(TypeError):
        request_key(12345, None)


def test_build_spec_rejects_unknown_names():
    with pytest.raises(KeyError):
        build_spec("no-such-matrix")


def test_result_cache_lru_eviction_and_counters():
    cache = ResultCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes recency: "b" is now LRU
    cache.put("c", 3)  # evicts "b"
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.evictions == 1
    assert cache.misses == 1
    assert cache.hits == 3


# ----------------------------------------------------------------------
# Bit-identity with direct rcm, on every submission shape
# ----------------------------------------------------------------------
def test_serial_lane_bit_identical_to_direct_rcm():
    A = ladder()
    expect = rcm_serial(A).perm

    async def go():
        async with ReorderingService(ServiceConfig(workers=2)) as svc:
            r = await svc.submit(A)
            assert np.array_equal(r.perm, expect)
            assert r.lane == "serial"
            assert r.n == A.nrows
            assert not r.cache_hit and not r.coalesced
            assert not r.perm.flags.writeable  # shared result is frozen
            # measured cost accounting rode back from the worker
            assert set(r.cost_regions) == {"service:build", "service:rcm"}
            assert r.cost_seconds > 0.0
            assert svc.stats.cost_seconds > 0.0

    run(go())


def test_suite_spec_matches_driver_side_build():
    expect = rcm_serial(PAPER_SUITE["nd24k"].build(1.0)).perm

    async def go():
        async with ReorderingService(ServiceConfig(workers=2)) as svc:
            r = await svc.submit("nd24k")
            assert np.array_equal(r.perm, expect)

    run(go())


def test_distributed_lane_bit_identical_with_modeled_ledger():
    A = PAPER_SUITE["nd24k"].build(1.0)
    expect = rcm_serial(A).perm  # distributed RCM is enforced identical

    async def go():
        async with ReorderingService(ServiceConfig(workers=2)) as svc:
            r = await svc.submit(A, nprocs=4)
            assert np.array_equal(r.perm, expect)
            assert r.lane == "distributed-p4"
            # the modeled Fig. 4 ledger, as plain JSON-safe floats
            assert r.cost_regions and r.cost_seconds > 0.0
            assert all(type(v) is float for v in r.cost_regions.values())
            assert type(r.cost_seconds) is float
            assert r.cost_regions == {
                k: float(v)
                for k, v in rcm_distributed(A, nprocs=4).ledger.breakdown().items()
            }

    run(go())


# ----------------------------------------------------------------------
# Caching + single-flight coalescing
# ----------------------------------------------------------------------
def test_resubmission_hits_the_cache():
    A = ladder()

    async def go():
        async with ReorderingService(ServiceConfig(workers=2)) as svc:
            r1 = await svc.submit(A)
            r2 = await svc.submit(ladder())  # equal content, new object
            assert not r1.cache_hit and r2.cache_hit
            assert np.array_equal(r1.perm, r2.perm)
            assert svc.stats.computed == 1
            assert svc.stats.cache_hits == 1

    run(go())


def test_concurrent_identical_submissions_compute_once():
    A = ladder()
    expect = rcm_serial(A).perm

    async def go():
        async with ReorderingService(ServiceConfig(workers=2)) as svc:
            results = await asyncio.gather(*(svc.submit(A) for _ in range(8)))
            assert svc.stats.computed == 1
            assert svc.stats.coalesced == 7
            assert sum(r.coalesced for r in results) == 7
            for r in results:
                assert np.array_equal(r.perm, expect)

    run(go())


def test_cache_eviction_forces_recompute():
    A, B = ladder(30), ladder(31)

    async def go():
        config = ServiceConfig(workers=1, cache_capacity=1)
        async with ReorderingService(config) as svc:
            await svc.submit(A)
            await svc.submit(B)  # evicts A
            r = await svc.submit(A)
            assert not r.cache_hit
            assert svc.stats.computed == 3
            assert svc.cache.evictions >= 1

    run(go())


# ----------------------------------------------------------------------
# Admission control / backpressure
# ----------------------------------------------------------------------
def test_admission_control_rejects_beyond_max_pending():
    matrices = [ladder(20 + i) for i in range(4)]

    async def go():
        config = ServiceConfig(workers=1, max_pending=1)
        async with ReorderingService(config) as svc:
            outcomes = await asyncio.gather(
                *(svc.submit(A) for A in matrices), return_exceptions=True
            )
            accepted = [r for r in outcomes if not isinstance(r, Exception)]
            rejected = [r for r in outcomes if isinstance(r, Exception)]
            # all submissions race in before the first batch dispatches:
            # exactly max_pending are admitted, the rest 429
            assert len(accepted) == 1 and len(rejected) == 3
            assert all(isinstance(e, ServiceOverloadedError) for e in rejected)
            assert all(e.status == 429 for e in rejected)
            assert svc.stats.rejected == 3
            assert np.array_equal(
                accepted[0].perm, rcm_serial(matrices[0]).perm
            )
            # rejections never wedge the queue: the service still serves
            r = await svc.submit(matrices[1])
            assert np.array_equal(r.perm, rcm_serial(matrices[1]).perm)

    run(go())


def test_duplicates_coalesce_instead_of_rejecting():
    A = ladder()

    async def go():
        config = ServiceConfig(workers=1, max_pending=1)
        async with ReorderingService(config) as svc:
            results = await asyncio.gather(*(svc.submit(A) for _ in range(5)))
            assert svc.stats.rejected == 0
            assert svc.stats.computed == 1
            assert svc.stats.coalesced == 4
            assert len(results) == 5

    run(go())


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
def test_failed_request_fails_alone_and_leaves_no_cache_entry():
    good = ladder()
    rect = CSRMatrix(
        2,
        3,
        np.array([0, 1, 2], dtype=np.int64),
        np.array([0, 2], dtype=np.int64),
        np.array([1.0, 1.0]),
    )

    async def go():
        async with ReorderingService(ServiceConfig(workers=2)) as svc:
            ok, bad = await asyncio.gather(
                svc.submit(good), svc.submit(rect), return_exceptions=True
            )
            # the good request of the same batch is untouched
            assert np.array_equal(ok.perm, rcm_serial(good).perm)
            assert isinstance(bad, RequestFailedError)
            assert "square" in str(bad)
            # no poisoning: the failed key is absent, a resubmission
            # recomputes (and fails again) instead of hitting the cache
            assert svc.cache.get(request_key(rect, None)) is None
            with pytest.raises(RequestFailedError):
                await svc.submit(rect)
            assert svc.stats.failed == 2
            assert svc.stats.cache_hits == 0

    run(go())


def test_unknown_spec_fails_cleanly_and_service_survives():
    async def go():
        async with ReorderingService(ServiceConfig(workers=2)) as svc:
            with pytest.raises(RequestFailedError) as exc_info:
                await svc.submit("zoo:does-not-exist")
            assert "does-not-exist" in str(exc_info.value)
            r = await svc.submit(ladder())
            assert r.n == 40

    run(go())


def test_invalid_submission_type_raises_synchronously():
    async def go():
        async with ReorderingService(ServiceConfig(workers=1)) as svc:
            with pytest.raises(TypeError):
                await svc.submit(12345)
            assert svc.stats.accepted == 0

    run(go())


@pytest.mark.parametrize("nprocs", [3, 0, -4, 4.0, True])
def test_invalid_nprocs_is_rejected_before_it_is_accepted(nprocs):
    async def go():
        async with ReorderingService(ServiceConfig(workers=1)) as svc:
            with pytest.raises(ValueError, match="perfect square"):
                await svc.submit(ladder(), nprocs=nprocs)
            assert svc.stats.accepted == 0 and svc.stats.batches == 0

    run(go())


def test_small_request_does_not_wait_for_a_large_one():
    # each serial request runs on its own idle worker and resolves when
    # that worker replies, not when the slowest request sent with it does
    from repro.matrices import road_mesh, stencil_2d

    large, small = road_mesh(512, 512), stencil_2d(12, 12)

    async def go():
        async with ReorderingService(ServiceConfig(workers=2)) as svc:
            big = asyncio.create_task(svc.submit(large))
            little = asyncio.create_task(svc.submit(small))
            done, _ = await asyncio.wait(
                {big, little}, return_when=asyncio.FIRST_COMPLETED
            )
            assert done == {little} and not big.done()
            assert np.array_equal(little.result().perm, rcm_serial(small).perm)
            assert np.array_equal((await big).perm, rcm_serial(large).perm)

    run(go())


def test_serial_request_does_not_wait_for_a_distributed_one():
    # a distributed request holds one worker, like a serial one
    from repro.matrices import road_mesh, stencil_2d

    large, small = road_mesh(128, 128), stencil_2d(12, 12)

    async def go():
        async with ReorderingService(ServiceConfig(workers=2)) as svc:
            big = asyncio.create_task(svc.submit(large, nprocs=4))
            little = asyncio.create_task(svc.submit(small))
            done, _ = await asyncio.wait(
                {big, little}, return_when=asyncio.FIRST_COMPLETED
            )
            assert done == {little} and not big.done()
            assert np.array_equal(little.result().perm, rcm_serial(small).perm)
            assert np.array_equal((await big).perm, rcm_serial(large).perm)

    run(go())


# ----------------------------------------------------------------------
# Lifecycle: drain, stop, config validation
# ----------------------------------------------------------------------
def test_stop_drains_accepted_work_then_refuses():
    matrices = [ladder(25 + i) for i in range(4)]

    async def go():
        svc = await ReorderingService(ServiceConfig(workers=2)).start()
        tasks = [asyncio.create_task(svc.submit(A)) for A in matrices]
        await asyncio.sleep(0)  # let every submission enter the queue
        await svc.stop()  # graceful: finishes everything accepted
        for task, A in zip(tasks, matrices):
            assert np.array_equal(task.result().perm, rcm_serial(A).perm)
        with pytest.raises(ServiceClosedError):
            await svc.submit(matrices[0])
        await svc.stop()  # idempotent

    run(go())


def test_start_twice_is_refused():
    async def go():
        async with ReorderingService(ServiceConfig(workers=1)) as svc:
            with pytest.raises(RuntimeError):
                await svc.start()

    run(go())


def test_config_validation():
    with pytest.raises(ValueError):
        ReorderingService(ServiceConfig(max_pending=0))


def test_stats_dict_is_json_serializable():
    async def go():
        async with ReorderingService(ServiceConfig(workers=1)) as svc:
            client = ServiceClient(svc)
            await client.reorder(ladder())
            stats = client.stats()
            json.dumps(stats)  # wire-safe
            assert stats["computed"] == 1

    run(go())


# ----------------------------------------------------------------------
# The repro-serve TCP front-end
# ----------------------------------------------------------------------
async def _tcp_roundtrip(reader, writer, request: dict) -> dict:
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_tcp_server_end_to_end():
    from repro.service.serve import start_service_server
    from repro.sparse.io import write_matrix_market

    A = ladder()
    expect = rcm_serial(A).perm
    mm = io.StringIO()
    write_matrix_market(mm, A.to_coo())

    async def go():
        server, service = await start_service_server(
            ServiceConfig(workers=2), port=0
        )
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        try:
            # spec request: ordering matches the driver-side build
            resp = await _tcp_roundtrip(
                reader, writer, {"id": 1, "matrix": "nd24k"}
            )
            assert resp["ok"] and resp["id"] == 1
            direct = rcm_serial(PAPER_SUITE["nd24k"].build(1.0)).perm
            assert resp["perm"] == direct.tolist()
            # inline Matrix Market request
            resp = await _tcp_roundtrip(reader, writer, {"id": 2, "mm": mm.getvalue()})
            assert resp["ok"] and resp["perm"] == expect.tolist()
            # malformed requests: 400, connection stays up
            resp = await _tcp_roundtrip(reader, writer, {"id": 3})
            assert not resp["ok"] and resp["status"] == 400
            resp = await _tcp_roundtrip(
                reader, writer, {"id": 4, "matrix": "x", "mm": "y"}
            )
            assert not resp["ok"] and resp["status"] == 400
            # worker-side failure: 500 with the error text
            resp = await _tcp_roundtrip(reader, writer, {"id": 5, "matrix": "zoo:nope"})
            assert not resp["ok"] and resp["status"] == 500
            # stats request
            resp = await _tcp_roundtrip(reader, writer, {"stats": True})
            assert resp["ok"] and resp["stats"]["computed"] >= 2
        finally:
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.stop()

    run(go())


def test_tcp_invalid_nprocs_gets_400_and_connection_survives():
    from repro.service.serve import start_service_server

    A = PAPER_SUITE["nd24k"].build(1.0)

    async def go():
        server, service = await start_service_server(
            ServiceConfig(workers=1), port=0
        )
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
        try:
            for rid, nprocs in enumerate([3, 0, -4, 4.5, "4", True]):
                resp = await _tcp_roundtrip(
                    reader, writer, {"id": rid, "matrix": "nd24k", "nprocs": nprocs}
                )
                assert not resp["ok"] and resp["status"] == 400, resp
                assert "perfect square" in resp["error"]
            assert service.stats.accepted == 0 and service.stats.batches == 0
            # the connection survives: a valid distributed request works
            resp = await _tcp_roundtrip(
                reader, writer, {"id": 9, "matrix": "nd24k", "nprocs": 4}
            )
            assert resp["ok"] and resp["lane"] == "distributed-p4"
            assert resp["perm"] == rcm_serial(A).perm.tolist()
        finally:
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.stop()

    run(go())


def test_serve_cli_parser_defaults():
    from repro.service.serve import build_parser

    args = build_parser().parse_args([])
    assert args.port == 8571 and args.workers == 2
    assert args.deadline is None and args.disk_cache is None
    assert args.max_retries == 1 and args.disk_cache_capacity == 4096
    args = build_parser().parse_args(["--workers", "4", "--max-pending", "7"])
    assert args.workers == 4 and args.max_pending == 7
    args = build_parser().parse_args(
        ["--deadline", "2.5", "--max-retries", "3", "--disk-cache", "/tmp/dc"]
    )
    assert args.deadline == 2.5 and args.max_retries == 3
    assert args.disk_cache == "/tmp/dc"
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--backend", "numpy"])  # no such flag
    assert exc.value.code == 2


def test_serve_cli_has_no_batch_knob():
    from repro.service.serve import main

    with pytest.raises(SystemExit) as exc:
        main(["--max-batch", "4"])  # requests are not batched
    assert exc.value.code == 2


def test_tcp_oversized_line_gets_413_and_connection_survives(monkeypatch):
    import repro.service.serve as serve

    monkeypatch.setattr(serve, "_LINE_LIMIT", 4096)
    A = ladder()
    expect = rcm_serial(A).perm
    mm = io.StringIO()
    from repro.sparse.io import write_matrix_market

    write_matrix_market(mm, A.to_coo())

    async def go():
        server, service = await serve.start_service_server(
            ServiceConfig(workers=1), port=0
        )
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
        try:
            # a fat single-chunk line: 413, not a dropped connection
            writer.write(b"x" * 10_000 + b"\n")
            await writer.drain()
            resp = json.loads(await reader.readline())
            assert not resp["ok"] and resp["status"] == 413
            assert "4096" in resp["error"]
            # a fat line arriving in many small chunks: same answer
            for _ in range(40):
                writer.write(b"y" * 200)
                await writer.drain()
                await asyncio.sleep(0)
            writer.write(b"\n")
            await writer.drain()
            resp = json.loads(await reader.readline())
            assert not resp["ok"] and resp["status"] == 413
            # the framing resynchronized: a real request still works
            resp = await _tcp_roundtrip(
                reader, writer, {"id": 9, "mm": mm.getvalue()}
            )
            assert resp["ok"] and resp["perm"] == expect.tolist()
        finally:
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.stop()

    run(go())


@pytest.mark.faults
def test_tcp_deadline_timeout_maps_to_504():
    from repro import faults
    from repro.service.serve import start_service_server

    async def go():
        server, service = await start_service_server(
            ServiceConfig(
                workers=2, deadline=1.0, max_retries=0, retry_backoff_ms=1.0
            ),
            port=0,
        )
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
        try:
            faults.arm("worker.hang:hit=1:count=0")
            resp = await _tcp_roundtrip(reader, writer, {"id": 1, "matrix": "nd24k"})
            assert not resp["ok"] and resp["status"] == 504
            assert "deadline" in resp["error"]
            faults.reset()
            # the connection and the service survive the timeout
            resp = await _tcp_roundtrip(reader, writer, {"id": 2, "matrix": "nd24k"})
            assert resp["ok"]
            direct = rcm_serial(PAPER_SUITE["nd24k"].build(1.0)).perm
            assert resp["perm"] == direct.tolist()
        finally:
            faults.reset()
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.stop()

    run(go())
