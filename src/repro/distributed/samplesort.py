"""General distributed samplesort — the HykSort stand-in for the ablation.

Engines: simulated + processes — sampling, routing and returning go
through the collective engine; the local sorts are ``lexsort3``
supersteps on workers under the processes engine.  Charges modeled
compute, sort and communication cost to the caller's region.

The paper justifies its specialized bucket sort by noting it beat
"state-of-the-art general sorting libraries, such as HykSort".  A general
sort cannot exploit the fact that parent labels already partition into
known contiguous ranges; it must (1) sample keys, (2) gather samples and
select splitters, (3) route by splitter search, (4) sort locally, and it
pays an extra splitter-selection round the bucket sort skips.

This module implements exactly that on the simulated machine so the
``sort-ablation`` bench can quantify the design choice.  Results are
identical to :func:`repro.distributed.sortperm.d_sortperm`; only cost
differs.

Everything but the choice of destination — tuple formation, both
Alltoalls, the local sorts, the scan and the placement — is the bucket
sort's per-rank pipeline, :func:`repro.distributed.sortperm.d_sortperm_routed`,
on both engines; this module supplies the sample Allgather and the
splitter search it routes by.
"""

from __future__ import annotations

import numpy as np

from .distvector import DistDenseVector, DistSparseVector
from .sortperm import d_sortperm_routed

__all__ = ["d_sortperm_samplesort"]

#: Oversampling factor per processor (HykSort-style).
_OVERSAMPLE = 8


def d_sortperm_samplesort(
    x: DistSparseVector,
    degrees: DistDenseVector,
    region: str,
) -> DistSparseVector:
    """SORTPERM via general samplesort (no parent-label range knowledge)."""
    ctx = x.ctx
    p = ctx.nprocs

    def splitter_search(tuples: np.ndarray) -> np.ndarray:
        # ---- sample + splitter selection (the extra round) --------------
        samples = []
        for k in range(p):
            t = tuples[x.starts[k] : x.starts[k + 1]]
            step = max(1, t.shape[0] // _OVERSAMPLE)
            samples.append(t[::step][:_OVERSAMPLE])
        all_samples = ctx.engine.allgather_groups([samples], region)[0]
        all_samples = all_samples[
            np.lexsort((all_samples[:, 2], all_samples[:, 1], all_samples[:, 0]))
        ]
        cut = np.linspace(0, all_samples.shape[0], p + 1)[1:-1].astype(int)
        splitters = all_samples[cut] if all_samples.shape[0] else all_samples

        # ---- route by lexicographic comparison against each splitter ----
        dest = np.zeros(tuples.shape[0], dtype=np.int64)
        for s, sp in enumerate(splitters):
            ge = (
                (tuples[:, 0] > sp[0])
                | ((tuples[:, 0] == sp[0]) & (tuples[:, 1] > sp[1]))
                | ((tuples[:, 0] == sp[0]) & (tuples[:, 1] == sp[1]) & (tuples[:, 2] >= sp[2]))
            )
            dest[ge] = s + 1
        ctx.charge_compute(region, x.rank_counts() * max(int(np.log2(p)), 1))
        return dest

    return d_sortperm_routed(x, degrees, region, splitter_search)
