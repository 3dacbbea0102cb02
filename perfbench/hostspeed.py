"""Host-speed reference: a fixed kernel outside the program, timed between measurements.

The shared 2-vCPU host the benchmark was built on changes speed by up to
1.8x in phases lasting from seconds to several minutes; CPU time tracks
wall time, so it is not steal.  A run cannot wait a slow phase out, so
each timed call is scaled by ``NOMINAL_S / t_ref``, where ``t_ref`` is
this kernel's time measured next to the call.  A timing metric then
reads seconds on a host where the kernel takes ``NOMINAL_S``.

The kernel uses only numpy and the interpreter, on data fixed here, so a
change to the program cannot move it.  It mixes what RCM spends its time
on: interpreter loops, many numpy calls on small arrays, sorts, a
breadth-first search over a cache-sized random graph, and a random
gather from an array larger than the caches.  The slow phases hit
interpreter-bound code hardest (rmat14 serial RCM 1.53x slower, an
interpreter loop 1.6x, small numpy calls 1.5x, the search and the gather
1.4x), so the interpreter and small calls take most of the kernel's time.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.05  # about the kernel's time in the host's fast phase
REPEATS = 3  # kernel calls per sample; the sample is their median

_rng = np.random.default_rng(2017)
_SORT = _rng.random(100_000)
_SMALL = _rng.integers(0, 1000, 1000)
_KEYS = list(range(200_000))
_N = 16_384  # random graph the size of rmat14: 16 out-edges per vertex
_INDPTR = np.arange(0, 16 * _N + 1, 16)
_INDICES = _rng.integers(0, _N, 16 * _N)
_BIG = _rng.random(4_000_000)  # 32 MB
_GATHER = _rng.integers(0, _BIG.size, 1_000_000)


def _bfs() -> int:
    visited = np.zeros(_N, dtype=bool)
    visited[0] = True
    frontier = np.array([0])
    levels = 0
    while frontier.size:
        starts = _INDPTR[frontier]
        lengths = _INDPTR[frontier + 1] - starts
        offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        neighbours = _INDICES[offsets + np.arange(lengths.sum())]
        frontier = np.unique(neighbours[~visited[neighbours]])
        visited[frontier] = True
        levels += 1
    return levels


def kernel() -> None:
    np.sort(_SORT)
    for _ in range(1000):
        np.cumsum(_SMALL[_SMALL > 500])
    counts: dict[int, int] = {}
    for i in _KEYS:
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    _bfs()
    _BIG[_GATHER].sum()


def sample() -> float:
    """Median seconds of ``REPEATS`` kernel calls, now."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def factor(*refs: float) -> float:
    """Scale for a timing taken between reference samples ``refs``."""
    return NOMINAL_S / float(np.mean(refs))


class Timeline:
    """Reference samples taken between timed calls.

    Some phases flip within a second, so a call is scaled by the samples
    just before and just after it: call :meth:`mark` before the call and
    keep its index, :meth:`close` after the last call, then
    :meth:`scale` the index.
    """

    def __init__(self) -> None:
        self.refs = [sample()]
        self._last = time.perf_counter()

    def mark(self, every: float = 0.0) -> int:
        """Sample unless one was taken in the last ``every`` seconds (for
        calls much shorter than a sample); the index a following call
        starts after."""
        if time.perf_counter() - self._last >= every:
            self.refs.append(sample())
            self._last = time.perf_counter()
        return len(self.refs) - 1

    def close(self) -> None:
        self.refs.append(sample())

    def scale(self, index: int) -> float:
        return factor(self.refs[index], self.refs[index + 1])


kernel()  # first-call costs stay out of every sample
