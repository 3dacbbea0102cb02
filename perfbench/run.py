"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload road --seed 3 --seconds 15 --trace 0

Run from the root of a source checkout: the program under test is
imported from ``src/``.  Workloads and metrics are declared in
``BENCHMARK.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  A traced run also writes its spans to
``perfbench/out/<workload>.spans.tsv``.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import math
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _child_pids() -> list[int]:
    """Pids whose parent is this process, from ``/proc`` (empty elsewhere)."""
    me, pids = os.getpid(), []
    with contextlib.suppress(OSError):
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            with contextlib.suppress(OSError, IndexError, ValueError):
                with open(f"/proc/{entry}/stat") as fh:
                    # the command name may hold spaces; the ppid follows its ')'
                    if int(fh.read().rsplit(")", 1)[1].split()[1]) == me:
                        pids.append(int(entry))
    return pids


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The service's worker pool joins its workers when it stops, but the
    multiprocessing resource tracker it starts is meant to outlive the
    interpreter.  Registered before the program is imported, this runs
    after the program's own exit hooks, so no pool is left to restart it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        with contextlib.suppress(Exception):
            stop()
    for pid in _child_pids():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _import_program() -> None:
    """Put ``src/`` first on the path; refuse to run without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: {src}/repro is missing; run from a full source checkout")
    sys.path.insert(0, src)
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def main(argv=None) -> int:
    atexit.register(_stop_children)
    # a terminated run still unwinds, so the exit hooks above run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None, help="default: the zoo generator seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    res = workloads.run(args.workload, seed, args.seconds, bool(args.trace))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(res.metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(res.metrics) ^ set(units))}")
    bad = [k for k, v in res.metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")

    for line in res.report:
        print(line)
    for name, unit in units.items():
        print(f"  {name:<40} {res.metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':<40} {res.failed / res.attempted:>16.6g} ratio "
          f"({res.failed} of {res.attempted} ops)")
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{args.workload}.spans.tsv")
        res.tracer.write(path)
        print(f"  unaccounted share {res.metrics['trace.unaccounted_ratio']:.1%}, "
              f"tracing overhead {res.metrics['trace.overhead_s']:+.4f} s, "
              f"{len(res.tracer.spans)} spans -> {os.path.relpath(path, ROOT)}")
        for binding, calls in res.tracer.binding_calls.items():
            print(f"    {binding:<58} {calls:>9} calls")
    for error in res.errors:
        print(f"ERROR {error}")

    print(json.dumps({
        "correct": not res.errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": res.metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
