"""Per-layer metrics of a traced run, named as in BENCHMARK.json.

Times and counts are medians over the traced entry-point calls (one
``rcm()`` or one ``rcm_distributed()`` call each).  Distributed times are
self times: a span minus the wrapped calls nested in it, so the
distributed rows plus ``distributed.unaccounted_s`` add up to the call.
"""

from __future__ import annotations

import numpy as np

#: Fig. 4 ledger regions of the p=16 run.
MODELED_REGIONS = {
    "peripheral:spmspv": "machine.modeled.peripheral.spmspv_s",
    "peripheral:other": "machine.modeled.peripheral.other_s",
    "ordering:spmspv": "machine.modeled.ordering.spmspv_s",
    "ordering:sort": "machine.modeled.ordering.sort_s",
    "ordering:other": "machine.modeled.ordering.other_s",
}

#: distributed metric prefix -> (layer, self time?)
DISTRIBUTED = {
    "distributed.distribute": ("distributed.distribute", False),
    "distributed.pseudo_peripheral": ("distributed.pseudo_peripheral", True),
    "distributed.first_index_where": ("distributed.first_index_where", False),
    "distributed.spmspv": ("distributed.spmspv", False),
    "distributed.sortperm": ("distributed.sortperm", False),
    "distributed.vector_ops": ("distributed.vector_ops", False),
}


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, *, ledgers, requests, stats, overhead_s, unaccounted_ratio) -> dict:
    serial = tracer.ops_named("op.serial")
    dist = tracer.ops_named("op.dist16")

    def med(ops, layer, field="seconds"):
        return _median([getattr(op.stat(layer), field) for op in ops])

    def count(op, layer, key):
        return op.stat(layer).counts.get(key, 0)

    m = {
        "core.pseudo_peripheral_s": med(serial, "core.pseudo_peripheral"),
        "core.pseudo_peripheral.calls": med(serial, "core.pseudo_peripheral", "calls"),
        "core.pseudo_peripheral.bfs_sweeps": _median(
            [count(op, "core.pseudo_peripheral", "bfs_sweeps") for op in serial]
        ),
        "core.sweep_s": _median([
            op.stat("core.cm_serial").seconds - op.stat("core.pseudo_peripheral").seconds
            for op in serial
        ]),
        "core.sweep.gather_s": med(serial, "core.sweep.gather"),
        "core.sweep.gather.calls": med(serial, "core.sweep.gather", "calls"),
        "core.sweep.candidates": _median(
            [count(op, "core.sweep.gather", "candidates") for op in serial]
        ),
        "core.sweep.fresh_ratio": _median([
            _ratio(count(op, "core.cm_serial", "vertices"),
                   count(op, "core.sweep.gather", "candidates"))
            for op in serial
        ]),
        "backends.frontier.dedup_s": med(serial, "backends.frontier.dedup"),
        "backends.frontier.dedup.calls": med(serial, "backends.frontier.dedup", "calls"),
        "backends.frontier.dedup.kept_ratio": _median([
            _ratio(count(op, "backends.frontier.dedup", "out"),
                   count(op, "backends.frontier.dedup", "in"))
            for op in serial
        ]),
    }
    for name, (layer, own) in DISTRIBUTED.items():
        m[f"{name}_s"] = med(dist, layer, "self_seconds" if own else "seconds")
        if name not in ("distributed.distribute", "distributed.vector_ops"):
            m[f"{name}.calls"] = med(dist, layer, "calls")
    m["distributed.unaccounted_s"] = _median([op.self_seconds for op in dist])

    for region, name in MODELED_REGIONS.items():
        m[name] = _median([float(ledger.region(region).total_seconds) for ledger in ledgers])
    m["machine.modeled.messages"] = _median([ledger.total.messages for ledger in ledgers])
    m["machine.modeled.words"] = _median([ledger.total.words for ledger in ledgers])

    computed = [r for r in requests if r["computed"]]
    m.update({
        "service.hash_ms.p50": _median([r["hash_ms"] for r in requests]),
        "service.hit_latency_ms.p50": _median([r["latency_ms"] for r in requests if r["hit"]]),
        "service.miss_latency_ms.p50": _median([r["latency_ms"] for r in computed]),
        "service.queue_ms.p50": _median([r["queue_ms"] for r in computed]),
        "service.compute_ms.p50": _median([r["compute_ms"] for r in computed]),
        "service.worker_build_ms.p50": _median([r["build_ms"] for r in computed]),
        "service.worker_rcm_ms.p50": _median([r["rcm_ms"] for r in computed]),
        # pickling, the pipe, and waiting for the slowest request of the batch
        "runtime.dispatch_overhead_ms.p50": _median(
            [r["compute_ms"] - r["build_ms"] - r["rcm_ms"] for r in computed]
        ),
        "service.hit_ratio": _ratio(sum(r["hit"] for r in requests), len(requests)),
        "service.batch_size_mean": _ratio(stats["accepted"], stats["batches"]),
        "service.rejected": float(stats["rejected"]),
        "service.retried": float(stats["retried"]),
        "trace.overhead_s": float(overhead_s),
        "trace.unaccounted_ratio": float(unaccounted_ratio),
    })
    return m
