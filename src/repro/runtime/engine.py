"""The processes engine's collectives: worker-copied shared memory.

Engines: processes-only (this class *is* the processes engine's
communicator).  Charges modeled communication cost through the
``charge_allgather`` / ``charge_alltoall`` methods of the simulated
:class:`CollectiveEngine`, after counting its buffers' words the same
way — the modeled ledger is therefore bit-identical under both engines
— and additionally records **measured** wall-clock into a second ledger.

Data-moving collectives (``allgather_groups``, ``alltoall`` /
``alltoall_groups``) stage the per-rank buffers into a shared-memory
input arena, have the worker processes copy every buffer to its
destination offset in the output arena (disjoint spans, no locking),
and rebuild the result arrays from the output arena.  The copies are
pure byte movement — no floating-point reassociation — so results match
the simulated reference bit-for-bit.

Latency-bound collectives (``allreduce_scalar``, ``allreduce_lexmin``,
``exscan_counts``) compute their few words in the driver exactly like
the base class (guaranteeing the deterministic reduction order the
paper's MINLOC tie-breaking needs) and measure a full worker round trip
as their synchronization cost.

Measured accounting convention: the worker-side seconds of a collective
land in its ``region``; driver-side staging/unpacking overhead lands in
``region + ":host"`` — prefix aggregation (`CostLedger.prefix`) folds
both into phase totals, while exact-name lookup isolates the transport.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..machine.comm import CollectiveEngine, words_of
from ..machine.cost import CostLedger
from ..machine.params import MachineParams
from .pool import WorkerPool

__all__ = ["ProcessCollectiveEngine"]


def _align8(nbytes: int) -> int:
    return (nbytes + 7) & ~7


class ProcessCollectiveEngine(CollectiveEngine):
    """Collectives executed by worker processes over shared memory."""

    def __init__(
        self,
        machine: MachineParams,
        ledger: CostLedger,
        pool: WorkerPool,
        measured: CostLedger,
    ) -> None:
        super().__init__(machine, ledger)
        self.pool = pool
        self.measured = measured

    # ------------------------------------------------------------------
    # Shared-memory transport
    # ------------------------------------------------------------------
    def _move(
        self,
        parts: list[np.ndarray],
        dst_offsets: list[int],
        out_nbytes: int,
        region: str,
        t0: float,
    ) -> memoryview:
        """Stage ``parts``, worker-copy each to its output offset, return
        the output arena buffer.  Records measured time (worker copy to
        ``region``, staging to ``region:host``)."""
        staged = 0
        spans: list[tuple[int, int, int]] = []
        total_in = sum(_align8(p.nbytes) for p in parts)
        self.pool.in_arena.ensure(total_in)
        self.pool.out_arena.ensure(out_nbytes)
        inbuf = self.pool.in_arena.buf
        for p, dst in zip(parts, dst_offsets):
            nb = p.nbytes
            if nb:
                np.frombuffer(inbuf, dtype=np.uint8, count=nb, offset=staged)[
                    :
                ] = p.view(np.uint8).reshape(-1)
                spans.append((staged, dst, nb))
            staged += _align8(nb)
        worker_secs, _ = self.pool.run_copy(spans)
        wall = time.perf_counter() - t0
        moved = sum(nb for _, _, nb in spans)
        self.measured.charge_comm(
            region, worker_secs, messages=len(spans), words=moved // 8
        )
        self.measured.charge_comm(region + ":host", max(wall - worker_secs, 0.0))
        return self.pool.out_arena.buf

    @staticmethod
    def _read(buf: memoryview, offset: int, dtype, shape) -> np.ndarray:
        count = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        return arr.reshape(shape).copy()

    @staticmethod
    def _concat_plan(parts: list[np.ndarray]):
        """Output ``(dtype, shape)`` of concatenating ``parts`` by bytes,
        or ``None`` when byte-concat would differ from ``np.concatenate``
        (mixed dtypes / trailing shapes -> driver fallback)."""
        head = parts[0]
        if head.ndim == 0:
            return None
        if any(
            p.dtype != head.dtype or p.shape[1:] != head.shape[1:] for p in parts
        ):
            return None
        rows = sum(p.shape[0] for p in parts)
        return head.dtype, (rows, *head.shape[1:])

    # ------------------------------------------------------------------
    # Data-moving collectives
    # ------------------------------------------------------------------
    def allgather_groups(
        self,
        groups: Sequence[Sequence[np.ndarray]],
        region: str,
    ) -> list[np.ndarray]:
        t0 = time.perf_counter()
        prepared = [
            [np.ascontiguousarray(p) for p in group] for group in groups
        ]
        flat_parts: list[np.ndarray] = []
        flat_dsts: list[int] = []
        specs: list[tuple] = []  # ("direct", arr) | ("move", dtype, shape, off)
        cursor = 0
        for parts in prepared:
            plan = self._concat_plan(parts) if parts else None
            if plan is None:
                specs.append(("direct", self._concat_group(parts)))
                continue
            dtype, shape = plan
            off = cursor
            for p in parts:
                flat_parts.append(p)
                flat_dsts.append(off)
                off += p.nbytes
            specs.append(("move", dtype, shape, cursor))
            cursor = _align8(off)
        outbuf = self._move(flat_parts, flat_dsts, cursor, region, t0)
        results = [
            spec[1]
            if spec[0] == "direct"
            else self._read(outbuf, spec[3], spec[1], spec[2])
            for spec in specs
        ]
        self.charge_allgather(
            [len(parts) for parts in prepared],
            [words_of(out) for out in results],
            region,
        )
        return results

    def alltoall_groups(
        self,
        groups: Sequence[Sequence[Sequence[np.ndarray]]],
        region: str,
    ) -> list[list[list[np.ndarray]]]:
        t0 = time.perf_counter()
        prepared = [
            [[np.ascontiguousarray(b) for b in row] for row in send] for send in groups
        ]
        sent, recv = self._alltoall_words(prepared)
        flat_parts: list[np.ndarray] = []
        flat_dsts: list[int] = []
        slots: list[list[list[tuple]]] = []  # [g][j][i] -> (off, dtype, shape)
        cursor = 0
        for send in prepared:
            q = len(send)
            recv_specs = [[None] * q for _ in range(q)]
            for j in range(q):
                for i in range(q):
                    buf = send[i][j]
                    flat_parts.append(buf)
                    flat_dsts.append(cursor)
                    recv_specs[j][i] = (cursor, buf.dtype, buf.shape)
                    cursor += _align8(buf.nbytes)
            slots.append(recv_specs)
        outbuf = self._move(flat_parts, flat_dsts, cursor, region, t0)
        recv_groups = [
            [
                [self._read(outbuf, off, dtype, shape) for off, dtype, shape in row]
                for row in recv_specs
            ]
            for recv_specs in slots
        ]
        self.charge_alltoall(sent, recv, region)
        return recv_groups

    # ------------------------------------------------------------------
    # Latency-bound collectives: driver math + measured synchronization
    # ------------------------------------------------------------------
    def _measure_sync(self, region: str) -> None:
        _, wall = self.pool.ping()
        self.measured.charge_comm(region, wall, messages=1)

    def allreduce_scalar(self, per_rank_values, op, region):
        out = super().allreduce_scalar(per_rank_values, op, region)
        self._measure_sync(region)
        return out

    def allreduce_lexmin(self, per_rank_pairs, region):
        out = super().allreduce_lexmin(per_rank_pairs, region)
        self._measure_sync(region)
        return out

    def exscan_counts(self, per_rank_counts, region):
        out = super().exscan_counts(per_rank_counts, region)
        self._measure_sync(region)
        return out
