"""Direction optimization for level-synchronous BFS (push vs pull).

The paper's BFS supersteps are *push* (top-down) SpMSpV calls: every
frontier vertex scatters to its neighbors, costing
``sum_{v in frontier} deg(v)`` work per level.  On low-diameter graphs
the frontier covers most of the graph in the middle levels, and push
then touches almost every edge twice while discovering only the few
remaining vertices.  Direction optimization (Beamer et al., "Direction-
Optimizing Breadth-First Search", SC'12) switches those dense levels to
a *pull* (bottom-up) step — every still-unvisited vertex scans its own
adjacency for a frontier neighbor — costing
``sum_{v in unvisited} deg(v)`` instead.

This module holds the **decision logic only**; the kernels live in
:mod:`repro.semiring.spmspv` (``spmspv_pull``),
:mod:`repro.backends.numpy_backend` (``expand_frontier_pull``) and
:mod:`repro.distributed.spmspv`
(``dist_spmspv_pull``).  Centralizing the heuristic keeps the serial,
batched and distributed BFS loops switching at the same levels, and —
because the inputs are global scalars every engine computes identically
— makes the decision deterministic across engines and drivers.

Every caller guarantees **bit-identical results** regardless of the
direction taken: pull kernels visit candidates in the same ascending-
index order the push kernels produce after their dedup sort, so levels,
parents, payloads and RCM orderings never depend on the switch.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DirectionPolicy",
    "PUSH",
    "PULL",
    "ADAPTIVE",
    "DIRECTION_MODES",
    "resolve_direction",
]

#: The three accepted ``direction=`` spellings.
PUSH = "push"
PULL = "pull"
ADAPTIVE = "adaptive"
DIRECTION_MODES = (PUSH, PULL, ADAPTIVE)

#: Beamer-style default thresholds.  ``alpha`` guards the push->pull
#: switch (pull once the frontier's edges outnumber 1/alpha of the
#: unvisited edges); ``beta`` guards the pull->push switch back (push
#: again once the frontier shrinks below n/beta vertices).  The defaults
#: follow the SC'12 paper's tuned values (alpha=14 there, but our
#: vectorized kernels have no early-exit advantage, so the crossover
#: sits where the *scanned edge counts* cross — alpha near 4 measures
#: best on the suite's dense matrices).
DEFAULT_ALPHA = 4.0
DEFAULT_BETA = 24.0


@dataclass(frozen=True)
class DirectionPolicy:
    """When to run a BFS level as push (top-down) or pull (bottom-up).

    ``mode`` is one of :data:`DIRECTION_MODES`: the forced ``"push"`` /
    ``"pull"`` modes always answer their own name (the equivalence tests
    and benches use them), while ``"adaptive"`` applies the two-threshold
    hysteresis of :meth:`choose`.
    """

    mode: str = ADAPTIVE
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        if self.mode not in DIRECTION_MODES:
            raise ValueError(
                f"unknown direction {self.mode!r}; expected one of {DIRECTION_MODES}"
            )
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")

    @property
    def adaptive(self) -> bool:
        """True when :meth:`choose` actually needs the edge counters."""
        return self.mode == ADAPTIVE

    def choose(
        self,
        *,
        frontier_nnz: int,
        frontier_edges: float,
        unvisited_edges: float,
        n: int,
        current: str,
    ) -> str:
        """Direction of the next level given the global frontier state.

        All inputs are exact integers (vertex and edge counts, possibly
        carried in float64 — exact below 2**53), so every engine and
        driver evaluating the same level reaches the same answer.  The
        hysteresis matches Beamer: switch to pull when
        ``frontier_edges > unvisited_edges / alpha`` and back to push
        when ``frontier_nnz < n / beta``.
        """
        if self.mode != ADAPTIVE:
            return self.mode
        if current == PUSH:
            if frontier_edges * self.alpha > unvisited_edges:
                return PULL
            return PUSH
        if frontier_nnz * self.beta < n:
            return PUSH
        return PULL


#: Policy singletons the resolvers hand out for string spellings.
_POLICIES = {mode: DirectionPolicy(mode=mode) for mode in DIRECTION_MODES}

#: The library-wide default: adaptive switching.  BFS results are
#: direction-independent by contract, so callers that do not care get
#: the fast path automatically; benches force ``"push"`` to measure the
#: paper's original kernels.
DEFAULT_DIRECTION = ADAPTIVE


def resolve_direction(direction: str | DirectionPolicy | None) -> DirectionPolicy:
    """Normalize a ``direction=`` argument to a :class:`DirectionPolicy`.

    Accepts a policy instance (passed through), one of the
    :data:`DIRECTION_MODES` strings, or ``None`` for the library default
    (:data:`DEFAULT_DIRECTION`).
    """
    if direction is None:
        return _POLICIES[DEFAULT_DIRECTION]
    if isinstance(direction, DirectionPolicy):
        return direction
    try:
        return _POLICIES[direction]
    except KeyError:
        raise ValueError(
            f"unknown direction {direction!r}; expected one of {DIRECTION_MODES}"
        ) from None
