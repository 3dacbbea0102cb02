"""The fault matrix: every fault × every lane × cold/warm cache.

The acceptance sweep for the resilience layer as a *system*: for each
armed fault point, each execution lane (serial and distributed), and
each cache temperature, a request must either resolve to the
bit-identical ordering (recovery worked) or fail cleanly at the retry
bound (and the service must stay usable afterwards).  No cell is
allowed to wedge the pool, poison a cache tier, or return a wrong
permutation.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import faults
from repro.core.rcm_serial import rcm_serial
from repro.matrices import stencil_2d
from repro.service import (
    ReorderingService,
    RequestTimeoutError,
    ServiceConfig,
)

pytestmark = [pytest.mark.faults, pytest.mark.service]

A = stencil_2d(80, 80)
EXPECT = rcm_serial(A).perm  # every lane is enforced bit-identical

FAULTS = [
    "worker.hang:hit=1",
    "worker.crash:hit=1",
    "cache.corrupt_entry:hit=1",
    "io.truncate:hit=1",
]
LANES = [None, 4]  # serial lane, distributed-p4 lane


def _config(tmp_path) -> ServiceConfig:
    return ServiceConfig(
        workers=2,
        max_retries=3,
        deadline=5.0,  # hangs are detected here, honest work finishes early
        retry_backoff_ms=1.0,
        disk_cache_dir=str(tmp_path / "disk"),
    )


@pytest.mark.parametrize("nprocs", LANES, ids=["serial", "dist-p4"])
@pytest.mark.parametrize("fault", FAULTS)
def test_cold_cache_cell(tmp_path, fault, nprocs):
    """Cold cache: the fault fires on the computing request itself."""

    async def go():
        async with ReorderingService(_config(tmp_path)) as svc:
            faults.reset()
            faults.arm(fault)
            r = await svc.submit(A, nprocs=nprocs)
            # recovery (or a harmlessly-corrupted disk write) must still
            # yield the exact ordering
            assert np.array_equal(r.perm, EXPECT)
            if fault.startswith("worker."):
                assert r.retries >= 1  # the fault really fired mid-compute
                assert svc.stats.worker_crashes >= 1
            faults.reset()
            # the service is fully usable after the cell
            r2 = await svc.submit(A, nprocs=nprocs)
            assert r2.cache_hit and np.array_equal(r2.perm, EXPECT)

    asyncio.run(go())


@pytest.mark.parametrize("nprocs", LANES, ids=["serial", "dist-p4"])
@pytest.mark.parametrize("fault", FAULTS)
def test_warm_cache_cell(tmp_path, fault, nprocs):
    """Warm cache: a finished result must shield requests from faults."""

    async def go():
        async with ReorderingService(_config(tmp_path)) as svc:
            r0 = await svc.submit(A, nprocs=nprocs)
            assert np.array_equal(r0.perm, EXPECT)
            faults.reset()
            faults.arm(fault)
            # a warm hit never dispatches and never rewrites the entry,
            # so no fault point on the compute/write path is reached
            r = await svc.submit(A, nprocs=nprocs)
            assert r.cache_hit
            assert np.array_equal(r.perm, EXPECT)
            assert svc.stats.worker_crashes == 0 and svc.stats.timeouts == 0

    asyncio.run(go())


@pytest.mark.parametrize("fault", ["cache.corrupt_entry:hit=1", "io.truncate:hit=1"])
def test_disk_corruption_survives_restart(tmp_path, fault):
    """A corrupted persisted entry reads as a miss after restart, and the
    recomputation repairs the disk tier in place."""

    async def go():
        config = _config(tmp_path)
        async with ReorderingService(config) as svc:
            faults.reset()
            faults.arm(fault)  # the disk write of this result is damaged
            r = await svc.submit(A)
            assert np.array_equal(r.perm, EXPECT)  # memory result unharmed
            faults.reset()
        # restart on the same directory: the damaged entry must be
        # quarantined (a miss), never deserialized into a wrong perm
        async with ReorderingService(config) as svc2:
            r2 = await svc2.submit(A)
            assert not r2.cache_hit  # disk entry failed verification
            assert np.array_equal(r2.perm, EXPECT)
            disk = svc2.disk.stats()
            assert disk["corrupt"] == 1 and disk["quarantined"] == 1
        # third service: the recomputed entry now serves verified hits
        async with ReorderingService(config) as svc3:
            r3 = await svc3.submit(A)
            assert r3.cache_hit and np.array_equal(r3.perm, EXPECT)

    asyncio.run(go())


@pytest.mark.parametrize("nprocs", LANES, ids=["serial", "dist-p4"])
def test_unbounded_hang_fails_cleanly_at_retry_bound(tmp_path, nprocs):
    """count=0 hangs every attempt: the request must 504, not wedge."""

    async def go():
        config = ServiceConfig(
            workers=2,
            max_retries=1,
            deadline=1.0,
            retry_backoff_ms=1.0,
            disk_cache_dir=str(tmp_path / "disk"),
        )
        async with ReorderingService(config) as svc:
            faults.reset()
            faults.arm("worker.hang:hit=1:count=0")
            with pytest.raises(RequestTimeoutError) as excinfo:
                await svc.submit(A, nprocs=nprocs)
            assert excinfo.value.status == 504
            assert "retries exhausted" in str(excinfo.value)
            assert svc.stats.timeouts >= 1
            faults.reset()
            # no poisoned entry in either tier, and the pool was healed
            r = await svc.submit(A, nprocs=nprocs)
            assert not r.cache_hit
            assert np.array_equal(r.perm, EXPECT)

    asyncio.run(go())


def test_fault_sequence_is_reproducible(tmp_path):
    """The same spec must produce the same event log on every run."""

    async def run_once(sub):
        config = ServiceConfig(
            workers=2,
            max_retries=3,
            retry_backoff_ms=1.0,
            disk_cache_dir=str(tmp_path / sub),
        )
        async with ReorderingService(config) as svc:
            # armed *after* start: the service warm-up ping must not eat
            # hits; a request is one message send, so hit=2 lands on the
            # dispatch of the second request
            faults.reset()
            faults.arm("worker.crash:hit=2")
            await svc.submit(stencil_2d(17, 17))
            r = await svc.submit(A)
            assert np.array_equal(r.perm, EXPECT)
            assert r.retries == 1  # the crash hit A's dispatch
            log = faults.events()
        faults.reset()
        return log

    first = asyncio.run(run_once("a"))
    second = asyncio.run(run_once("b"))
    assert first == second == [("worker.crash", 2)]
