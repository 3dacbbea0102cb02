"""Gather-to-root of a distributed matrix (the baseline the paper beats).

Engines: simulated + processes — both engines charge the same
``gather_to_root_cost`` / ``bcast_cost`` formulas of the collective
engine and reassemble the matrix in the driver with
:meth:`~repro.distributed.distmatrix.DistSparseMatrix.to_csr`; no bytes
move through workers.  Charges modeled communication cost,
root-injection bounded.

Section V.C: computing RCM with a shared-memory code (SpMP) on an
already-distributed matrix first requires gathering the structure onto a
single node — "it takes over 9 seconds to gather the nlpkkt240 matrix
from being distributed over 1024 cores into a single node/core ...
approximately 3x longer than computing RCM using our algorithm on the
same number of cores."  This module models exactly that step (plus the
scatter of the permutation back), so the gather-vs-distributed benchmark
can reproduce the claim.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from .distmatrix import DistSparseMatrix

__all__ = ["gather_matrix_to_root", "scatter_permutation", "matrix_wire_words"]


def matrix_wire_words(n: int, nnz: int) -> int:
    """Words needed to ship a CSR structure: indptr + column indices.

    Values are not needed for ordering, matching how a real gather for
    RCM would ship only the pattern (8-byte indices).
    """
    return (n + 1) + nnz


def gather_matrix_to_root(A: DistSparseMatrix, region: str = "gather:matrix") -> CSRMatrix:
    """Assemble the global matrix at a root rank, charging the gather.

    The data volume is the sum of every non-root rank's local block
    structure; the bottleneck is the root's injection bandwidth (the
    ``beta_node`` machine constant).
    """
    ctx = A.ctx
    per_rank_words = []
    g = ctx.grid
    for r in range(g.size):
        blk = A.blocks[g.coords(r)]
        per_rank_words.append(matrix_wire_words(blk.ncols, blk.nnz))
    total = sum(per_rank_words) - per_rank_words[0]  # root keeps its own
    sec, msgs, wrds = ctx.engine.gather_to_root_cost(g.size, total)
    ctx.ledger.charge_comm(region, sec, msgs, wrds)
    return A.to_csr()


def scatter_permutation(
    A: DistSparseMatrix, perm: np.ndarray, region: str = "gather:scatter"
) -> None:
    """Charge the broadcast of the computed permutation back to all ranks."""
    ctx = A.ctx
    words = int(perm.size)
    sec, msgs, wrds = ctx.engine.bcast_cost(ctx.nprocs, words)
    ctx.ledger.charge_comm(region, sec, msgs, wrds)
