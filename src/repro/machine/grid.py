"""Two-dimensional process grid (CombBLAS layout).

Engines: simulated + processes — the grid describes SPMD *ranks*, which
the simulated engine loops over and the processes engine maps onto
worker processes in contiguous chunks; pure geometry, charges no
modeled cost.

The paper distributes matrices on a ``pr x pc`` grid; processor ``P(i, j)``
owns the block of rows ``i*m/pr .. (i+1)*m/pr`` and columns
``j*n/pc .. (j+1)*n/pc``.  Vectors live on the same grid: the paper's
CombBLAS layout assigns vector segment ``k`` to the diagonal-ish owner so
that SpMSpV needs an Allgather along processor columns and an Alltoall
(or reduce-scatter) along processor rows.

Only square grids are exercised by the paper ("rectangular grids are not
supported in CombBLAS"); the class supports rectangular grids anyway, and
the experiments use square ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ProcessGrid", "block_range", "block_owner", "square_grid_side"]


def square_grid_side(nprocs: int) -> int:
    """``sqrt(nprocs)`` for perfect squares; raises otherwise."""
    side = int(math.isqrt(nprocs))
    if side * side != nprocs:
        raise ValueError(f"{nprocs} processes do not form a square grid")
    return side


def block_range(n: int, nblocks: int, b: int) -> tuple[int, int]:
    """Half-open index range of block ``b`` when ``n`` items split ``nblocks`` ways.

    Uses the balanced formula ``floor(b * n / nblocks)`` so sizes differ by
    at most one — the same convention as CombBLAS block distribution.
    """
    if not (0 <= b < nblocks):
        raise ValueError("block index out of range")
    lo = (b * n) // nblocks
    hi = ((b + 1) * n) // nblocks
    return lo, hi


def block_owner(n: int, nblocks: int, index: int) -> int:
    """The block that owns dense index ``index`` under :func:`block_range`."""
    if not (0 <= index < n):
        raise ValueError("index out of range")
    # owner b satisfies floor(b*n/nblocks) <= index < floor((b+1)*n/nblocks)
    b = (index * nblocks + nblocks - 1) // n if n else 0
    while b > 0 and (b * n) // nblocks > index:
        b -= 1
    while ((b + 1) * n) // nblocks <= index:
        b += 1
    return b


@dataclass(frozen=True)
class ProcessGrid:
    """A ``pr x pc`` grid of simulated MPI processes.

    Ranks are row-major: rank ``r`` sits at ``(r // pc, r % pc)``.
    """

    pr: int
    pc: int

    def __post_init__(self) -> None:
        if self.pr < 1 or self.pc < 1:
            raise ValueError("grid dimensions must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def square(cls, nprocs: int) -> "ProcessGrid":
        side = square_grid_side(nprocs)
        return cls(side, side)

    @classmethod
    def fitting(cls, nprocs: int) -> "ProcessGrid":
        """Square grid when ``nprocs`` is a perfect square, else ``1 x n``.

        The calibration bench accepts any worker count (CI smoke runs
        ``--procs 2``); non-square counts fall back to a one-row grid,
        which every 2D kernel supports.
        """
        side = int(math.isqrt(nprocs))
        if side * side == nprocs:
            return cls(side, side)
        return cls(1, nprocs)

    @property
    def size(self) -> int:
        return self.pr * self.pc

    def coords(self, rank: int) -> tuple[int, int]:
        if not (0 <= rank < self.size):
            raise ValueError("rank out of range")
        return divmod(rank, self.pc)

    def rank_of(self, i: int, j: int) -> int:
        if not (0 <= i < self.pr and 0 <= j < self.pc):
            raise ValueError("grid coordinates out of range")
        return i * self.pc + j

    def row_group(self, i: int) -> list[int]:
        """Ranks in processor row ``i`` (an Alltoall subcommunicator)."""
        return [self.rank_of(i, j) for j in range(self.pc)]

    def col_group(self, j: int) -> list[int]:
        """Ranks in processor column ``j`` (an Allgather subcommunicator)."""
        return [self.rank_of(i, j) for i in range(self.pr)]

    def row_groups(self) -> list[list[int]]:
        return [self.row_group(i) for i in range(self.pr)]

    def col_groups(self) -> list[list[int]]:
        return [self.col_group(j) for j in range(self.pc)]

    # ------------------------------------------------------------------
    # Vector distribution (CombBLAS style): a length-n vector is split into
    # `size` contiguous segments, segment k owned by rank k.
    # ------------------------------------------------------------------
    def vector_owner(self, n: int, index: int) -> int:
        return block_owner(n, self.size, index)

    def vector_offsets(self, n: int) -> np.ndarray:
        """Start offsets (length ``size + 1``) of every vector segment.

        Vectorized (one ``arange`` instead of a per-rank Python loop):
        the balanced-split formula ``(k * n) // size`` evaluated for all
        ``k`` at once, which matters when offsets are recomputed per
        superstep on thousands of simulated ranks.
        """
        return (np.arange(self.size + 1, dtype=np.int64) * n) // self.size

    # ------------------------------------------------------------------
    # Matrix block ranges
    # ------------------------------------------------------------------
    def row_block(self, m: int, i: int) -> tuple[int, int]:
        return block_range(m, self.pr, i)

    def col_block(self, n: int, j: int) -> tuple[int, int]:
        return block_range(n, self.pc, j)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessGrid({self.pr}x{self.pc})"
