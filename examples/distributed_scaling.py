#!/usr/bin/env python
"""Strong-scaling study of the distributed RCM (the paper's Fig. 4).

Runs the simulated distributed RCM on one suite surrogate across the
paper's core counts, printing the five-way runtime breakdown and the
SpMSpV computation/communication split — a self-contained version of
what `repro-bench run fig4`/`fig5` do for the full suite.

Run:  python examples/distributed_scaling.py [matrix-name] [scale]
      (matrix defaults to 'nd24k'; see repro.matrices.PAPER_SUITE)
"""

import sys

from repro.bench import format_table
from repro.bench.sweep import strong_scaling_rcm
from repro.machine import edison, paper_core_counts
from repro.matrices import PAPER_SUITE


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "nd24k"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.8
    entry = PAPER_SUITE[name]
    A = entry.build(scale)
    print(f"{name}: n={A.nrows}, nnz={A.nnz} "
          f"(paper: n={entry.paper.n}, nnz={entry.paper.nnz})")

    # machine with communication constants calibrated to the surrogate's
    # size so the curve shape matches the paper's (see DESIGN.md)
    machine = edison().scaled(A.nnz / entry.paper.nnz)
    cores = paper_core_counts(1014)
    points = strong_scaling_rcm(A, cores, machine=machine)

    rows = []
    base = points[0]
    for p in points:
        b = p.breakdown
        rows.append(
            [
                p.cores,
                p.config.describe(),
                b.peripheral_spmspv + b.peripheral_other,
                b.ordering_spmspv,
                b.ordering_sort,
                b.ordering_other,
                b.total,
                f"{p.speedup_vs(base):.1f}x",
            ]
        )
    print()
    print(
        format_table(
            ["cores", "configuration", "peripheral", "ord spmspv",
             "ord sort", "ord other", "total s", "speedup"],
            rows,
            title="Strong scaling (modeled seconds, Edison-like machine)",
        )
    )

    print()
    rows = []
    for p in points:
        b = p.breakdown
        rows.append([p.cores, b.spmspv_compute, b.spmspv_comm])
    print(
        format_table(
            ["cores", "SpMSpV compute s", "SpMSpV comm s"],
            rows,
            title="SpMSpV split (Fig. 5 view)",
        )
    )

    identical = all(
        (p.ordering.perm == points[0].ordering.perm).all() for p in points
    )
    print(f"\nOrdering identical at every core count: {identical}")


if __name__ == "__main__":
    main()
