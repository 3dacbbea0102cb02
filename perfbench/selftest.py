"""Self-test of the benchmark: seeded inputs and the traced run's wrappers.

    python3 perfbench/selftest.py

Run from the root of a source checkout; exits non-zero on the first
failed check.  It checks that

* the same seed gives the same inputs and another seed other inputs;
* the default seeds reproduce the graph zoo (``zoo:rmat14`` and the
  road generator's seed 3);
* installing the wrappers refuses a binding that nothing looks up, and
  every original is back in place afterwards;
* every wrapper records calls on the workload its layer serves.  Two
  bindings no workload reaches (the batched finder's dedup and the pull
  SpMSpV) get a direct probe.

It runs each workload once, traced, for a second: about a minute.
"""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core.bfs_multi import find_pseudo_peripheral_multi  # noqa: E402
from repro.matrices.random_graphs import road_mesh  # noqa: E402
from repro.matrices.zoo import zoo_entry  # noqa: E402
from repro.service.hashing import content_hash  # noqa: E402

import workloads  # noqa: E402
from tracing import BINDINGS, NoPatchError, Tracer  # noqa: E402


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}")


def request_digests(seed: int, count: int = 24) -> list[str]:
    stream = workloads.RequestStream(seed)
    return [content_hash(stream.next()[1]) for _ in range(count)]


def check_seeds() -> None:
    for name, make in workloads.COMPUTE_INPUTS.items():
        seed = workloads.DEFAULT_SEEDS[name]
        first, again, other = (content_hash(make(s)) for s in (seed, seed, seed + 1))
        check(first == again, f"{name}: the same seed gives the same input")
        check(first != other, f"{name}: another seed gives another input")
    seed = workloads.DEFAULT_SEEDS["service-mix"]
    sequence = request_digests(seed)
    check(sequence == request_digests(seed), "service-mix: the same seed gives the same requests")
    check(sequence != request_digests(seed + 1), "service-mix: another seed gives other requests")
    check(len(set(sequence)) < len(sequence), "service-mix: some requests repeat earlier ones")
    rmat = workloads.COMPUTE_INPUTS["rmat"](workloads.DEFAULT_SEEDS["rmat"])
    check(content_hash(rmat) == content_hash(zoo_entry("rmat14").build()),
          "rmat: the default seed reproduces zoo:rmat14")
    road = road_mesh(512, 512, seed=workloads.DEFAULT_SEEDS["road"])
    check(content_hash(road) == content_hash(zoo_entry("road-512").build()),
          "road: the default seed reproduces the zoo road generator (road-512)")


def bound_objects() -> dict:
    out = {}
    for module_name, attr, _, _ in BINDINGS:
        owner, _, name = attr.rpartition(".")
        target = importlib.import_module(module_name)
        if owner:
            target = getattr(target, owner)
        out[f"{module_name}.{attr}"] = vars(target)[name]
    return out


def check_wrappers() -> None:
    before = bound_objects()
    nobody_calls = ("repro.core.metrics", "quality_of", "core.quality", None)
    try:
        with Tracer().installed(BINDINGS[:3] + (nobody_calls,)):
            pass
    except NoPatchError as exc:
        check(True, f"a binding nothing looks up is refused ({exc})")
    else:
        check(False, "a binding nothing looks up is refused")
    check(bound_objects() == before, "a refused install leaves every binding as it was")

    calls = dict.fromkeys(before, 0)
    for name in workloads.WORKLOADS:
        res = workloads.run(name, workloads.DEFAULT_SEEDS[name], seconds=1.0, traced=True)
        check(not res.errors, f"{name}: traced run is correct and reaches every layer "
              f"{res.errors or ''}")
        for binding, n in res.tracer.binding_calls.items():
            calls[binding] += n
    tracer = Tracer()
    A = road_mesh(32, 32, seed=0)
    with tracer.installed(), tracer.op("probe"):
        find_pseudo_peripheral_multi(A, np.array([0, A.nrows - 1]), heuristic=False)
        repro.rcm_distributed(A, nprocs=4, direction="pull")
    for binding, n in tracer.binding_calls.items():
        calls[binding] += n
    for binding, n in calls.items():
        print(f"       {binding:<58} {n:>9} calls")
    check(all(calls.values()), f"every one of the {len(calls)} wrapped bindings recorded calls")
    check(bound_objects() == before, "every original binding is restored")


if __name__ == "__main__":
    check_seeds()
    check_wrappers()
    print("selftest passed")
