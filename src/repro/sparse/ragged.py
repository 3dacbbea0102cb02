"""Ragged gathers: storage positions of concatenated index ranges.

Every compressed-storage gather in the library — a frontier's adjacency
rows, an input vector's columns, the distributed drivers' multi-range
cell gathers — reads the ranges ``[starts[k], starts[k] + lens[k])``
back to back.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ragged_positions"]


def ragged_positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Positions of the ranges ``[starts[k], starts[k] + lens[k])``, concatenated.

    An exclusive scan of ``lens`` then one ``arange + repeat``: element
    ``t`` of range ``k`` is storage position ``starts[k] + t``.
    """
    ends = np.cumsum(lens)
    if not ends.size or not ends[-1]:
        # isolated vertices make empty gathers common; skip the arange
        return np.empty(0, dtype=np.int64)
    return np.arange(ends[-1], dtype=np.int64) + np.repeat(starts - (ends - lens), lens)
