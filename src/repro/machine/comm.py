"""Simulated MPI collectives: real data movement + modeled cost.

Engines: this module *is* the simulated engine; the processes engine
(:class:`repro.runtime.engine.ProcessCollectiveEngine`) subclasses
:class:`CollectiveEngine` and charges through the same
``charge_allgather`` / ``charge_alltoall`` methods below, so the modeled
ledger is bit-identical under both engines.  Charges modeled
communication time for every collective.

Each collective here does two things at once:

1. **Moves the actual bytes.**  Inputs are per-rank numpy arrays; outputs
   are exactly what each simulated rank would hold after the collective.
   Algorithm correctness therefore never depends on the cost model.
2. **Charges modeled time** to a :class:`~repro.machine.cost.CostLedger`
   using textbook α-β costs that match the complexities quoted in the
   paper (Section IV.B): Allgather/Allreduce are logarithmic in latency,
   personalized All-to-all pays ``alpha * (q - 1)`` latency (hence the
   ``|iters| * alpha * p`` term in T_SORTPERM), and gather-to-root is
   bottlenecked by the root's injection bandwidth.

Groups of concurrent collectives (e.g. one Allgather per processor column)
charge ``max`` over groups, because the groups run simultaneously on
disjoint subcommunicators.

The **collectives contract** both engines satisfy (see DESIGN.md,
"Execution engines"): identical results to this module's reference
implementation, identical modeled charges, for ``allgather_groups``,
``alltoall`` / ``alltoall_groups``, ``allreduce_scalar`` /
``allreduce_lexmin`` and ``exscan_counts``.

**One charge per collective kind.**  ``charge_allgather`` and
``charge_alltoall`` charge concurrent collectives from per-group /
per-rank word counts.  The buffer collectives count their buffers'
words and call them; the rank-vectorized kernels (DESIGN.md §7), which
never materialize per-rank buffers, call them directly with counts
computed as arrays.  Either way one formula produces the ledger.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .cost import CostLedger
from .params import WORD_BYTES, MachineParams

__all__ = ["CollectiveEngine", "words_of"]


def words_of(arr: np.ndarray) -> int:
    """Wire size of an array in machine words (rounded up)."""
    return (int(arr.nbytes) + WORD_BYTES - 1) // WORD_BYTES


def _log2_ceil(q: int) -> int:
    return max(1, math.ceil(math.log2(q))) if q > 1 else 0


class CollectiveEngine:
    """Executes collectives on lists of per-rank buffers and charges cost."""

    def __init__(self, machine: MachineParams, ledger: CostLedger) -> None:
        self.machine = machine
        self.ledger = ledger

    # ------------------------------------------------------------------
    # Cost formulas (pure; exposed for the analysis benches and tests)
    # ------------------------------------------------------------------
    def allgather_cost(self, q: int, result_words: int) -> tuple[float, int, int]:
        """(seconds, messages, words) for an Allgather on ``q`` ranks.

        Recursive doubling: ``ceil(log2 q)`` rounds; every rank ends with
        ``result_words`` words, of which it received ``(q-1)/q``.
        """
        if q <= 1:
            return 0.0, 0, 0
        rounds = _log2_ceil(q)
        moved = int(result_words * (q - 1) / q)
        seconds = self.machine.alpha * rounds + self.machine.beta * moved
        return seconds, rounds, moved

    def alltoall_cost(self, q: int, max_words_per_rank: int) -> tuple[float, int, int]:
        """(seconds, messages, words) for personalized All-to-all.

        Pairwise exchange: ``q - 1`` message rounds (this is the
        ``alpha * p`` latency the paper's SORTPERM bound carries), with
        bandwidth charged at the busiest rank.
        """
        if q <= 1:
            return 0.0, 0, 0
        rounds = q - 1
        seconds = self.machine.alpha * rounds + self.machine.beta * max_words_per_rank
        return seconds, rounds, max_words_per_rank

    def allreduce_cost(self, q: int, words: int) -> tuple[float, int, int]:
        if q <= 1:
            return 0.0, 0, 0
        rounds = _log2_ceil(q)
        moved = 2 * words * rounds
        seconds = self.machine.alpha * rounds + self.machine.beta * moved
        return seconds, rounds, moved

    def bcast_cost(self, q: int, words: int) -> tuple[float, int, int]:
        if q <= 1:
            return 0.0, 0, 0
        rounds = _log2_ceil(q)
        seconds = self.machine.alpha * rounds + self.machine.beta * words
        return seconds, rounds, words

    def gather_to_root_cost(self, q: int, total_words: int) -> tuple[float, int, int]:
        """Gather of ``total_words`` onto one root: root injection bound."""
        if q <= 1:
            return 0.0, 0, 0
        seconds = self.machine.alpha * (q - 1) + self.machine.beta_node * total_words
        return seconds, q - 1, total_words

    # ------------------------------------------------------------------
    # Charges (the one formula per collective kind, shared by the buffer
    # collectives of both engines and the rank-vectorized kernels)
    # ------------------------------------------------------------------
    def charge_allgather(
        self,
        group_sizes: Sequence[int],
        words: Sequence[int],
        region: str,
    ) -> None:
        """Charge concurrent Allgathers from per-group result word counts.

        Group ``g`` has ``group_sizes[g]`` contributors and its
        concatenated result occupies ``words[g]`` words.  Groups overlap
        in time (max); message and word counters accumulate across them.
        """
        worst = 0.0
        tot_msgs = 0
        tot_words = 0
        for q, w in zip(group_sizes, words):
            sec, msgs, wrds = self.allgather_cost(q, w)
            worst = max(worst, sec)
            tot_msgs += msgs * max(q, 1)
            tot_words += wrds * max(q, 1)
        self.ledger.charge_comm(region, worst, tot_msgs, tot_words)

    def charge_alltoall(
        self,
        sent: np.ndarray,
        recv: np.ndarray,
        region: str,
    ) -> None:
        """Charge concurrent personalized All-to-alls from word counts.

        ``sent[g, i]`` / ``recv[g, j]`` are the words rank ``i``/``j`` of
        group ``g`` sends/receives in total; every group has the same
        size ``q = sent.shape[1]``.  Each group costs
        :meth:`alltoall_cost` at its busiest rank; groups overlap in time,
        so the slowest group's cost (the one with the busiest rank
        overall) is charged, and message/word counters accumulate across
        groups.
        """
        sent = np.asarray(sent, dtype=np.int64)
        recv = np.asarray(recv, dtype=np.int64)
        ngroups, q = sent.shape
        busiest = int(max(sent.max(initial=0), recv.max(initial=0)))
        sec, rounds, _ = self.alltoall_cost(q, busiest)
        self.ledger.charge_comm(region, sec, ngroups * rounds * q, int(sent.sum()))

    # ------------------------------------------------------------------
    # Data-moving collectives
    # ------------------------------------------------------------------
    def allgather_groups(
        self,
        groups: Sequence[Sequence[np.ndarray]],
        region: str,
    ) -> list[np.ndarray]:
        """Concurrent Allgathers: one per group, all groups in parallel.

        ``groups[g][k]`` is the contribution of the ``k``-th rank of group
        ``g``.  Returns, per group, the concatenation every member ends up
        holding.  Charges the maximum group cost once (groups overlap in
        time) and counts messages/words across all groups.
        """
        results = [self._concat_group(list(group)) for group in groups]
        self.charge_allgather(
            [len(group) for group in groups],
            [words_of(out) for out in results],
            region,
        )
        return results

    @staticmethod
    def _concat_group(parts: list[np.ndarray]) -> np.ndarray:
        """Reference result of one Allgather group (concatenation)."""
        if not parts:
            return np.empty(0)
        return np.concatenate(parts) if len(parts) > 1 else parts[0].copy()

    @staticmethod
    def _alltoall_words(
        groups: Sequence[Sequence[Sequence[np.ndarray]]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate equal-size square groups; return per-rank sent/received words."""
        q = len(groups[0]) if groups else 0
        for send in groups:
            if len(send) != q:
                raise ValueError("every group must have the same number of ranks")
            for i, row in enumerate(send):
                if len(row) != q:
                    raise ValueError(f"send[{i}] must list one buffer per rank")
        words = np.array(
            [[[words_of(b) for b in row] for row in send] for send in groups],
            dtype=np.int64,
        ).reshape(len(groups), q, q)
        return words.sum(axis=2), words.sum(axis=1)

    def alltoall(
        self,
        send: Sequence[Sequence[np.ndarray]],
        region: str,
    ) -> list[list[np.ndarray]]:
        """Personalized all-to-all on ``q`` ranks.

        ``send[i][j]`` is what rank ``i`` sends to rank ``j``; the result
        has ``recv[j][i] = send[i][j]``.  Bandwidth is charged at the
        busiest rank (max of words sent or received per rank).
        """
        return self.alltoall_groups([send], region)[0]

    def alltoall_groups(
        self,
        groups: Sequence[Sequence[Sequence[np.ndarray]]],
        region: str,
    ) -> list[list[list[np.ndarray]]]:
        """Concurrent personalized all-to-alls on disjoint subcommunicators.

        ``groups[g][i][j]`` is what rank ``i`` of group ``g`` sends to
        rank ``j`` of the same group (e.g. one exchange per processor
        row).  Charges the maximum group cost once, like
        :meth:`allgather_groups`; messages and words accumulate across
        groups; every group must have the same size.  Returns ``recv``
        with ``recv[g][j][i] = groups[g][i][j]``.
        """
        sent, recv = self._alltoall_words(groups)
        recv_groups = [[list(col) for col in zip(*send)] for send in groups]
        self.charge_alltoall(sent, recv, region)
        return recv_groups

    def allreduce_scalar(
        self,
        per_rank_values: Sequence[float],
        op: Callable[[np.ndarray], float],
        region: str,
    ) -> float:
        """Reduce one scalar per rank to a single value everyone holds."""
        q = len(per_rank_values)
        result = op(np.asarray(per_rank_values, dtype=np.float64))
        sec, msgs, wrds = self.allreduce_cost(q, 1)
        self.ledger.charge_comm(region, sec, msgs * q, wrds * q)
        return float(result)

    def allreduce_lexmin(
        self,
        per_rank_pairs: Sequence[tuple[float, float]],
        region: str,
    ) -> tuple[float, float]:
        """Lexicographic minimum of (value, index) pairs across ranks.

        This is the paper's REDUCE with deterministic tie-breaking: the
        minimum value wins, ties resolve to the smallest index.  MPI would
        implement it as an Allreduce with MINLOC.  ``per_rank_pairs`` is a
        ``(q, 2)`` float array or anything ``np.asarray`` makes one of.
        """
        pairs = np.asarray(per_rank_pairs, dtype=np.float64)
        q = pairs.shape[0]
        j = np.lexsort((pairs[:, 1], pairs[:, 0]))[0]
        best = (float(pairs[j, 0]), float(pairs[j, 1]))
        sec, msgs, wrds = self.allreduce_cost(q, 2)
        self.ledger.charge_comm(region, sec, msgs * q, wrds * q)
        return best

    def exscan_counts(self, per_rank_counts: Sequence[int], region: str) -> np.ndarray:
        """Exclusive prefix sums of one count per rank (Allgather of ints)."""
        q = len(per_rank_counts)
        counts = np.asarray(per_rank_counts, dtype=np.int64)
        sec, msgs, wrds = self.allgather_cost(q, q)
        self.ledger.charge_comm(region, sec, msgs * q, wrds * q)
        out = np.zeros(q, dtype=np.int64)
        np.cumsum(counts[:-1], out=out[1:])
        return out
