"""Fault injection: crashed workers under the reordering service.

The failure model under test (DESIGN.md sections 11-12): a worker that
dies mid-request is detected as a :class:`WorkerCrashError`, the pool
is repaired in place (dead slots respawned, survivors resynchronized),
and the interrupted requests are re-queued — bounded by
``max_retries`` — or failed cleanly.  A crash must never poison the
cache, wedge the queue, or require a service restart.

Crashes are injected deterministically via :mod:`repro.faults`
(``worker.crash`` replaces a dispatched message with an ``os._exit``
order).  The old hand-rolled ``os.kill`` + spin-until-dispatched
approach raced the scheduler — the signal could land before the
dispatch or after the reply — so a flake was indistinguishable from a
real recovery bug.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import faults
from repro.core.rcm_serial import rcm_serial
from repro.matrices import stencil_2d
from repro.matrices.suite import PAPER_SUITE
from repro.service import (
    ReorderingService,
    RequestFailedError,
    ServiceConfig,
    request_key,
)

pytestmark = [pytest.mark.service, pytest.mark.faults]


def test_crash_mid_serial_request_recovers_and_result_is_correct():
    A = stencil_2d(200, 200)
    expect = rcm_serial(A).perm

    async def go():
        config = ServiceConfig(workers=2, max_retries=2)
        async with ReorderingService(config) as svc:
            old_pids = list(svc._pool.pids)
            faults.arm("worker.crash:hit=1")  # dies on the dispatch itself
            r = await svc.submit(A)
            # the request resolved, bit-identical, via a retry
            assert np.array_equal(r.perm, expect)
            assert r.retries >= 1
            assert svc.stats.worker_crashes >= 1
            assert svc.stats.workers_replaced >= 1
            assert svc.stats.retried >= 1
            # the dead slot was replaced in place with a fresh process
            assert svc._pool.pids != old_pids
            assert all(p.is_alive() for p in svc._pool._procs)
            # the cache holds the good (retried) result only
            r2 = await svc.submit(A)
            assert r2.cache_hit and np.array_equal(r2.perm, expect)
            # subsequent fresh requests succeed without a restart
            B = stencil_2d(17, 17)
            rb = await svc.submit(B)
            assert np.array_equal(rb.perm, rcm_serial(B).perm)

    asyncio.run(go())


def test_crash_with_retries_exhausted_fails_cleanly_and_pool_heals():
    A = stencil_2d(200, 200)

    async def go():
        config = ServiceConfig(workers=2, max_retries=0)
        async with ReorderingService(config) as svc:
            faults.arm("worker.crash:hit=1")
            with pytest.raises(RequestFailedError) as exc_info:
                await svc.submit(A)
            assert "retries exhausted" in str(exc_info.value)
            assert svc.stats.failed == 1 and svc.stats.retried == 0
            # no partial result entered the cache
            assert svc.cache.get(request_key(A, None)) is None
            # the pool was still repaired: the same request now succeeds
            # (the fault window has passed — count=1)
            r = await svc.submit(A)
            assert not r.cache_hit
            assert np.array_equal(r.perm, rcm_serial(A).perm)

    asyncio.run(go())


def test_crash_mid_distributed_request_recovers():
    A = PAPER_SUITE["nd24k"].build(1.0)
    expect = rcm_serial(A).perm  # distributed RCM is enforced identical

    async def go():
        config = ServiceConfig(workers=2, max_retries=2)
        async with ReorderingService(config) as svc:
            faults.arm("worker.crash:hit=1")
            r = await svc.submit(A, nprocs=4)
            assert np.array_equal(r.perm, expect)
            assert r.lane == "distributed-p4"
            assert r.retries >= 1
            assert svc.stats.worker_crashes >= 1
            # the repaired pool serves the distributed lane again (each
            # request runs the simulated machine inside one worker, so
            # nothing rank-resident needs re-scattering onto the fresh one)
            r2 = await svc.submit(A, nprocs=4)
            assert r2.cache_hit
            B = PAPER_SUITE["serena"].build(1.0)
            rb = await svc.submit(B, nprocs=4)
            assert np.array_equal(rb.perm, rcm_serial(B).perm)

    asyncio.run(go())


def test_crash_does_not_corrupt_unrelated_cache_entries():
    A = stencil_2d(17, 17)
    B = stencil_2d(200, 200)
    expect_a = rcm_serial(A).perm

    async def go():
        config = ServiceConfig(workers=2, max_retries=0)
        async with ReorderingService(config) as svc:
            ra = await svc.submit(A)
            assert np.array_equal(ra.perm, expect_a)
            faults.arm("worker.crash:hit=1")  # B's dispatch dies
            with pytest.raises(RequestFailedError):
                await svc.submit(B)
            # A's finished result survived the crash untouched
            ra2 = await svc.submit(A)
            assert ra2.cache_hit and np.array_equal(ra2.perm, expect_a)

    asyncio.run(go())
