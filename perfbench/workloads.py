"""The benchmark's three seeded workloads: road, rmat and service-mix.

Each runner builds its inputs from the seed, times the public entry
points (``repro.rcm``, ``repro.rcm_distributed``, and
``ReorderingService`` through ``ServiceClient``) for about ``seconds``,
checks every output, and returns a :class:`Result` holding either the
end-to-end metrics or, for a traced run, the per-layer ones.  End-to-end
timings are scaled by the host-speed reference of ``hostspeed.py``.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import gc
import hashlib
import time

import numpy as np

import repro
from repro.core.metrics import bandwidth_of_permutation, profile_of_permutation
from repro.matrices.random_graphs import rmat, road_mesh
from repro.service import ReorderingService, ServiceClient, ServiceConfig, ServiceError
from repro.sparse.csr import CSRMatrix
from repro.sparse.permute import is_permutation

import hostspeed
import layers
from tracing import Tracer

NPROCS = 16  # simulated engine, 4x4 grid
SETUP_REPEATS = 5  # at least; set-up repeats until it has spent SETUP_FILL_S
SETUP_FILL_S = 1.5
SAMPLE_EVERY_S = 1.0  # host-speed samples between calls much shorter than one sample
MIN_OPS = 3  # a median needs a few ops even when one op outlasts the window
SERIAL_FILL_S = 1.0

#: The defaults reproduce the graph zoo: ``zoo:rmat14`` is
#: ``rmat_chunks(14, seed=7)`` and every zoo road entry uses seed 3.
DEFAULT_SEEDS = {"road": 3, "rmat": 7, "service-mix": 1}

#: blake2b-128 of the RCM permutation at the default seeds.  A change
#: that moves serial and distributed RCM together still fails here.
PINNED_DIGESTS = {
    "road": "cc26ea06b579b63410ac9014cc39954f",
    "rmat": "96b8b85e71713693e1d949929785ec04",
}

COMPUTE_INPUTS = {
    "road": lambda seed: road_mesh(1024, 1024, seed=seed),
    "rmat": lambda seed: rmat(14, seed=seed),
}

SERVICE_INPUTS = {
    "road": lambda seed: road_mesh(128, 128, seed=seed),
    "rmat": lambda seed: rmat(12, seed=seed),
}
CLIENTS = 2  # closed loop: each client waits for its reply before the next send
COPY_SHARE = 0.25  # requests that repeat a recent matrix byte for byte
COPY_WINDOW = 32  # copies pick among this many latest fresh matrices (LRU holds 256)
PREBUILT = 16  # fresh matrices built during set-up
SEGMENTS = 4  # window slices; each is followed by the rcm() check of its fresh matrices
DIST_PER_SLICE = 3  # per family: p=16 runs and quality checks in each slice's check


class Result:
    """What one run reports: metrics, op counts, and any correctness errors."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.report: list[str] = []
        self.tracer: Tracer | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def perm_digest(perm: np.ndarray) -> str:
    data = np.ascontiguousarray(perm, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def fresh_copy(A: CSRMatrix) -> CSRMatrix:
    """A new matrix object with byte-identical arrays (no cached hash)."""
    return CSRMatrix(A.nrows, A.ncols, A.indptr.copy(), A.indices.copy(), A.data.copy())


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _timed(tracer: Tracer | None, name: str, call):
    """``(result, seconds)`` of one entry-point call, as a span when traced."""
    if tracer is None:
        t0 = time.perf_counter()
        out = call()
        return out, time.perf_counter() - t0
    with tracer.op(name) as op:
        out = call()
    return out, op.seconds


def _warm_up() -> None:
    """First calls import lazily loaded modules; keep that out of the window."""
    A = road_mesh(32, 32, seed=0)
    repro.rcm(A)
    repro.rcm_distributed(A, nprocs=NPROCS)


def _check_layers(res: Result, tracer: Tracer, workload: str) -> None:
    for layer, calls in tracer.layer_calls().items():
        if calls == 0:
            res.errors.append(f"traced run of {workload} recorded no {layer} calls")


# ----------------------------------------------------------------------
# road / rmat: rcm(A) serial, then rcm_distributed(A, nprocs=16)
# ----------------------------------------------------------------------
def run_compute(workload: str, seed: int, seconds: float, traced: bool) -> Result:
    res = Result()
    make = COMPUTE_INPUTS[workload]
    clock = hostspeed.Timeline()
    setups = []  # (raw seconds, clock index)
    while len(setups) < SETUP_REPEATS or sum(s for s, _ in setups) < SETUP_FILL_S:
        A = None  # free the previous build before timing the next
        gc.collect()
        i = clock.mark(every=SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        A = make(seed)
        setups.append((time.perf_counter() - t0, i))
    _warm_up()
    tracer = res.tracer = Tracer() if traced else None
    pinned = PINNED_DIGESTS[workload] if seed == DEFAULT_SEEDS[workload] else None
    ops = []
    reference = None
    quality = None
    t_start = time.perf_counter()
    last = 0.0
    while res.attempted < MIN_OPS or time.perf_counter() - t_start + last <= seconds:
        # a traced run alternates untraced and traced ops; their gap is the
        # tracing overhead
        op_tracer = tracer if traced and res.attempted % 2 == 1 else None
        gc.collect()
        res.attempted += 1
        t_op = time.perf_counter()
        try:
            with op_tracer.installed() if op_tracer else contextlib.nullcontext():
                serials, perms = [], []
                # untraced ops repeat a short serial call to fill SERIAL_FILL_S,
                # so rmat's 0.3 s call gets more samples than road's 1.3 s one
                while not serials or (
                    op_tracer is None and sum(s for s, _ in serials) < SERIAL_FILL_S
                ):
                    i = clock.mark()
                    ordering, serial_s = _timed(op_tracer, "op.serial", lambda: repro.rcm(A))
                    serials.append((serial_s, i))
                    perms.append(ordering.perm)
                i = clock.mark()
                dist, dist_s = _timed(
                    op_tracer, "op.dist16", lambda: repro.rcm_distributed(A, nprocs=NPROCS)
                )
        except Exception as exc:  # a failed op is counted, the run goes on
            res.fail(f"op {res.attempted} raised {exc!r}")
            last = time.perf_counter() - t_op
            continue
        last = time.perf_counter() - t_op
        perm = perms[0]
        if reference is None:
            if not is_permutation(perm, A.nrows):
                res.fail("serial RCM did not return a permutation")
                continue
            reference = perm
            quality = (bandwidth_of_permutation(A, perm), profile_of_permutation(A, perm))
            if pinned is not None and perm_digest(perm) != pinned:
                res.fail(f"permutation digest {perm_digest(perm)} != pinned {pinned}")
                continue
        if not np.array_equal(perm, dist.ordering.perm):
            res.fail(f"op {res.attempted}: p={NPROCS} permutation differs from serial")
        elif not all(np.array_equal(p, reference) for p in perms):
            res.fail(f"op {res.attempted}: permutation changed between repeats")
        else:
            ops.append((serials, (dist_s, i), dist.ledger, op_tracer is not None))
    clock.close()
    if not ops:
        raise RuntimeError(f"every {workload} op failed: {res.errors}")

    def scaled(timing):
        seconds, i = timing
        return seconds * clock.scale(i)

    plain = [op for op in ops if not op[3]]
    raw_walls = [s[0][0] + d[0] for s, d, _, _ in plain]  # one serial call, then p=16
    walls = [scaled(s[0]) + scaled(d) for s, d, _, _ in plain]
    res.report.append(
        f"{workload}: n={A.nrows:,} nnz={A.nnz:,} seed={seed} ops={len(ops)} "
        f"(untraced {len(plain)}), digest {perm_digest(reference)}; raw serial / p16 s "
        "(host factor): " + "  ".join(
            " ".join(f"{x:.3f}({clock.scale(i):.2f})" for x, i in s)
            + f" / {d[0]:.3f}({clock.scale(d[1]):.2f})" for s, d, _, _ in plain)
    )
    if not traced:
        res.metrics = {
            "setup_s": median([scaled(s) for s in setups]),
            "serial_s": median([scaled(x) for s, _, _, _ in plain for x in s]),
            "dist16_s": median([scaled(d) for _, d, _, _ in plain]),
            "modeled16_s": median([op[2].total_seconds for op in plain]),
            "bandwidth": float(quality[0]),
            "profile": float(quality[1]),
            "latency_ms_p50": 1000.0 * median(walls),
            "latency_ms_p95": 1000.0 * float(np.percentile(walls, 95)),
            "throughput_rps": len(walls) / sum(walls),
        }
        return res
    requests, stats = asyncio.run(_service_probe(A, reference, tracer, res))
    serial_ops, dist_ops = tracer.ops_named("op.serial"), tracer.ops_named("op.dist16")
    traced_walls = [s.seconds + d.seconds for s, d in zip(serial_ops, dist_ops)]
    own = sum(op.self_seconds for op in serial_ops + dist_ops)
    res.metrics = layers.per_layer(
        tracer,
        ledgers=[op[2] for op in ops],
        requests=requests,
        stats=stats,
        overhead_s=median(traced_walls) - median(raw_walls),
        unaccounted_ratio=own / sum(traced_walls),
    )
    _check_layers(res, tracer, workload)
    return res


async def _service_probe(A, perm, tracer: Tracer, res: Result):
    """Serve the workload matrix twice: a miss, then a byte-identical hit.

    Runs only in traced runs, so the service layers report on every
    workload.  The pool forks before the wrappers go in, so workers run
    untraced code.
    """
    service = await ReorderingService(ServiceConfig(workers=CLIENTS)).start()
    requests = []
    try:
        client = ServiceClient(service)
        with tracer.installed():
            for _ in range(2):
                res.attempted += 1
                with tracer.op("op.request") as op:
                    reply = await client.reorder(fresh_copy(A))
                requests.append(_request_record(reply, op.seconds, op))
                if not np.array_equal(reply.perm, perm):
                    res.fail("served permutation differs from rcm()")
        stats = client.stats()
    finally:
        await service.stop()
    return requests, stats


def _request_record(reply, latency_s: float, op) -> dict:
    """One served request; ``op`` is its span in a traced phase, else None."""
    regions = reply.cost_regions
    return {
        "latency_ms": 1000.0 * latency_s,
        "hit": reply.cache_hit,
        "computed": not (reply.cache_hit or reply.coalesced),
        "queue_ms": reply.queue_ms,
        "compute_ms": reply.compute_ms,
        "build_ms": 1000.0 * regions.get("service:build", 0.0),
        "rcm_ms": 1000.0 * regions.get("service:rcm", 0.0),
        "hash_ms": 1000.0 * op.stat("service.hash").seconds if op is not None else None,
        "traced": op is not None,
    }


# ----------------------------------------------------------------------
# service-mix: closed loop of two clients on the serial lane
# ----------------------------------------------------------------------
class RequestStream:
    """The seeded request sequence: fresh matrices, a quarter of them copies.

    Fresh matrix ``k`` alternates road and rmat and is generated from
    ``(seed, k)``, so every request's content is a function of the seed
    alone, whichever client sends it.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fresh = 0
        self._rng = np.random.default_rng([seed, 2017])
        self._recent: collections.OrderedDict[int, CSRMatrix] = collections.OrderedDict()
        self._prebuilt: dict[int, CSRMatrix] = {}

    def unique_input(self, k: int) -> tuple[str, CSRMatrix]:
        family = ("road", "rmat")[k % 2]
        return family, SERVICE_INPUTS[family](self.seed * 100_003 + k)

    def prebuild(self, count: int) -> None:
        for k in range(count):
            self._prebuilt[k] = self.unique_input(k)[1]

    def next(self) -> tuple[int, CSRMatrix]:
        """``(fresh index, matrix)`` of the next request."""
        if self.fresh >= 4 and self._rng.random() < COPY_SHARE:
            keys = list(self._recent)
            k = keys[int(self._rng.integers(len(keys)))]
            return k, fresh_copy(self._recent[k])
        k = self.fresh
        self.fresh += 1
        A = self._prebuilt.pop(k, None)
        if A is None:
            A = self.unique_input(k)[1]
        self._recent[k] = A
        if len(self._recent) > COPY_WINDOW:
            self._recent.popitem(last=False)
        return k, A


async def _closed_loop(client, stream, until: float, records: list, res: Result, tracer,
                       segment: int):
    """Each client sends at least once, then until ``until`` passes."""

    async def one_client():
        while True:
            k, A = stream.next()
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.op("op.request") if tracer else contextlib.nullcontext() as op:
                    reply = await client.reorder(A)
            except ServiceError as exc:  # refusals and failures count as errors
                res.fail(f"request {k} failed: {exc!r}")
            else:
                t1 = time.perf_counter()
                record = _request_record(reply, t1 - t0, op)
                record.update(k=k, digest=perm_digest(reply.perm), t0=t0, t1=t1,
                              segment=segment)
                records.append(record)
            if time.perf_counter() >= until:
                return

    await asyncio.gather(*(one_client() for _ in range(CLIENTS)))


async def _start_service(seed: int):
    t0 = time.perf_counter()
    service = await ReorderingService(ServiceConfig(workers=CLIENTS)).start()
    stream = RequestStream(seed)
    stream.prebuild(PREBUILT)
    return service, stream, time.perf_counter() - t0


class FreshCheck:
    """Re-orders fresh matrices with ``rcm()`` between window slices.

    Each fresh matrix is rebuilt from its seed and ordered serially; the
    first ``DIST_PER_SLICE`` of each family in every slice also run at
    p=16.  Checking slice by slice while the service idles spreads these
    timings, like the requests, over the whole run instead of one block
    at its end.
    """

    def __init__(self, stream: RequestStream, tracer: Tracer | None, res: Result,
                 clock: hostspeed.Timeline) -> None:
        self.stream = stream
        self.tracer = tracer
        self.res = res
        self.clock = clock
        self.checked = 0
        self.digests: dict[int, str] = {}
        #: name -> family -> (value, clock index)
        self.samples = {name: collections.defaultdict(list) for name in
                        ("serial", "dist", "modeled", "bandwidth", "profile")}
        self.ledgers = []

    def run(self) -> None:
        """Check every fresh matrix sent since the last call."""
        tracer, samples, clock = self.tracer, self.samples, self.clock
        distributed = collections.Counter()
        clock.mark()  # ends the slice before
        with tracer.installed() if tracer else contextlib.nullcontext():
            for k in range(self.checked, self.stream.fresh):
                family, A = self.stream.unique_input(k)
                i = clock.mark(every=SAMPLE_EVERY_S)
                ordering, serial_s = _timed(tracer, "op.serial", lambda: repro.rcm(A))
                samples["serial"][family].append((serial_s, i))
                self.digests[k] = perm_digest(ordering.perm)
                if distributed[family] == DIST_PER_SLICE:
                    continue
                distributed[family] += 1
                i = clock.mark(every=SAMPLE_EVERY_S)
                dist, dist_s = _timed(
                    tracer, "op.dist16", lambda: repro.rcm_distributed(A, nprocs=NPROCS)
                )
                if not np.array_equal(dist.ordering.perm, ordering.perm):
                    self.res.fail(f"fresh matrix {k}: p={NPROCS} permutation differs from serial")
                self.ledgers.append(dist.ledger)
                samples["dist"][family].append((dist_s, i))
                samples["modeled"][family].append((dist.ledger.total_seconds, i))
                samples["bandwidth"][family].append((bandwidth_of_permutation(A, ordering.perm), i))
                samples["profile"][family].append((profile_of_permutation(A, ordering.perm), i))
        self.checked = self.stream.fresh

    def per_pair(self, name: str, scaled: bool = False) -> float:
        """One road plus one rmat request: the sum of the family medians."""
        return sum(
            median([v * self.clock.scale(i) if scaled else v for v, i in values])
            for values in self.samples[name].values()
        )


async def _serve(seed: int, seconds: float, traced: bool, res: Result):
    clock = hostspeed.Timeline()
    setups = []  # (raw seconds, clock index)
    while True:
        i = clock.mark(every=SAMPLE_EVERY_S)
        service, stream, setup_s = await _start_service(seed)
        setups.append((setup_s, i))
        if len(setups) >= SETUP_REPEATS and sum(s for s, _ in setups) >= SETUP_FILL_S:
            break
        await service.stop()
    records: list[dict] = []
    slices = []  # the clock index each slice starts after
    check = FreshCheck(stream, res.tracer, res, clock)
    try:
        client = ServiceClient(service)
        # the first request on each worker pays its lazy imports
        await asyncio.gather(
            *(client.reorder(road_mesh(16, 16, seed=10**9 + w)) for w in range(CLIENTS))
        )
        for segment in range(SEGMENTS):
            # a traced run alternates untraced and traced slices; their gap
            # is the tracing overhead
            tracer = res.tracer if traced and segment % 2 == 1 else None
            until = time.perf_counter() + seconds / SEGMENTS
            slices.append(clock.mark())
            with tracer.installed() if tracer else contextlib.nullcontext():
                await _closed_loop(client, stream, until, records, res, tracer, segment)
            check.run()
        clock.close()
        stats = client.stats()
    finally:
        await service.stop()
    return setups, stream, records, stats, check, slices


def run_service(workload: str, seed: int, seconds: float, traced: bool) -> Result:
    res = Result()
    tracer = res.tracer = Tracer() if traced else None
    setups, stream, records, stats, check, slices = asyncio.run(_serve(seed, seconds, traced, res))
    clock = check.clock
    if not records:
        raise RuntimeError(f"no service-mix request succeeded: {res.errors}")
    # every request, copies included, must carry its fresh matrix's rcm() order
    for record in records:
        if record["digest"] != check.digests[record["k"]]:
            res.fail(f"fresh matrix {record['k']}: served permutation differs from rcm()")
    plain = [r for r in records if not r["traced"]]
    res.report.append(
        f"service-mix: seed={seed} requests={len(records)} fresh={stream.fresh} "
        f"hits={sum(r['hit'] for r in records)} batches={stats['batches']} "
        f"rejected={stats['rejected']}"
    )
    if not traced:
        slice_scale = [clock.scale(i) for i in slices]
        res.report.append("  host factor per slice: " + " ".join(f"{f:.3f}" for f in slice_scale))
        latencies = [r["latency_ms"] * slice_scale[r["segment"]] for r in plain]
        busy = 0.0
        for segment in range(SEGMENTS):
            mine = [r for r in plain if r["segment"] == segment]
            span = max(r["t1"] for r in mine) - min(r["t0"] for r in mine)
            busy += span * slice_scale[segment]
        res.metrics = {
            "setup_s": median([s * clock.scale(i) for s, i in setups]),
            "serial_s": check.per_pair("serial", scaled=True),
            "dist16_s": check.per_pair("dist", scaled=True),
            "latency_ms_p50": median(latencies),
            "latency_ms_p95": float(np.percentile(latencies, 95)),
            "throughput_rps": len(plain) / busy,
            "modeled16_s": check.per_pair("modeled"),
            "bandwidth": check.per_pair("bandwidth"),
            "profile": check.per_pair("profile"),
        }
        return res
    traced_requests = [r for r in records if r["traced"]]
    accounted = sum(
        r["hash_ms"] + (r["queue_ms"] + r["compute_ms"] if r["computed"] else 0.0)
        for r in traced_requests
    )
    total = sum(r["latency_ms"] for r in traced_requests)
    res.metrics = layers.per_layer(
        tracer,
        ledgers=check.ledgers,
        requests=traced_requests,
        stats=stats,
        overhead_s=(median([r["latency_ms"] for r in traced_requests])
                    - median([r["latency_ms"] for r in plain])) / 1000.0,
        unaccounted_ratio=(total - accounted) / total,
    )
    _check_layers(res, tracer, workload)
    return res


WORKLOADS = {
    "road": run_compute,
    "rmat": run_compute,
    "service-mix": run_service,
}


def run(workload: str, seed: int, seconds: float, traced: bool) -> Result:
    return WORKLOADS[workload](workload, seed, seconds, traced)
