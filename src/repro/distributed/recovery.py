"""Supervised shard recovery: retry policy, in-flight journal, supervisor.

The executors detect worker death (:class:`~repro.distributed.executor.ShardExecutionError`)
but, on their own, only fail fast.  This module adds the layer that turns a
detected failure back into a healthy shard:

* :class:`RecoveryPolicy` — the knobs: restart budget, exponential backoff,
  wall-clock deadline, journal bound, ack deadline, and whether to keep
  serving from surviving shards once the budget is spent.
* :class:`BatchJournal` — a bounded, sequence-numbered retention of every
  dispatched per-shard group list.  Entries are pruned once every involved
  worker has acknowledged them (acknowledged counters live in the shared
  arena, which survives the worker), so the journal holds exactly the
  batches a worker death could lose.
* :class:`ShardSupervisor` — on failure, restarts the shard worker with
  bounded exponential backoff, rebinds its arena, and replays journaled
  batches idempotently (the arena's applied-sequence slot tells the
  supervisor which journaled batches the dead worker already committed).
  A recovered run is bit-exact with an unfaulted one; an exhausted budget
  either poisons the engine (default) or, with ``degraded_serving=True``,
  drops the shard and keeps serving with widened confidence bounds.

The supervisor drives an executor through ``restart_shard(shards, index)``,
``replay(shards, index, groups, seq)``, ``acked_seq(index)``,
``applied_seq(index)`` and ``mark_failed(index)`` — the
:class:`~repro.distributed.shared_memory.SharedMemoryExecutor` surface.  An
executor without ``restart_shard``/``replay`` (the in-process sequential
backend) cannot be supervised: nothing is journaled for it, and failures
propagate exactly as before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.batch_router import PartitionGroup
from repro.distributed.executor import ShardExecutionError
from repro.distributed.shard import SketchShard
from repro.observability import metrics as _obs
from repro.observability.instruments import (
    DEGRADED_DROPPED_ELEMENTS,
    DEGRADED_SHARDS,
    RECOVERY_EVENTS,
    RECOVERY_SECONDS,
)
from repro.observability.tracing import get_recorder


def can_supervise(executor) -> bool:
    """Whether the supervisor can restart and replay ``executor``'s shards."""
    return hasattr(executor, "restart_shard") and hasattr(executor, "replay")


@dataclass(frozen=True)
class RecoveryPolicy:
    """How hard to try bringing a dead shard worker back.

    Attributes:
        max_restarts: restart attempts per failure incident before the
            budget is exhausted.
        backoff_seconds: sleep before the second attempt (the first is
            immediate); doubles (``backoff_multiplier``) per further attempt.
        backoff_multiplier: exponential backoff factor.
        deadline_seconds: wall-clock budget per incident; no new attempt
            starts past it.
        journal_limit: journaled batches retained before the coordinator
            forces a flush (bounds replay work and memory).
        ack_deadline_seconds: how long to wait for a worker acknowledgement
            before declaring the worker failed (catches dropped and slow
            acks, not just dead processes).  ``None`` waits indefinitely
            (death detection only).
        degraded_serving: after retry exhaustion, keep serving queries from
            surviving shards (with ``Provenance.degraded`` and widened
            union-bound confidence intervals) instead of poisoning reads.
    """

    max_restarts: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    deadline_seconds: float = 10.0
    journal_limit: int = 64
    ack_deadline_seconds: Optional[float] = None
    degraded_serving: bool = False

    def __post_init__(self) -> None:
        if self.max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {self.max_restarts}")
        if self.journal_limit < 1:
            raise ValueError(f"journal_limit must be >= 1, got {self.journal_limit}")
        if self.backoff_seconds < 0 or self.deadline_seconds <= 0:
            raise ValueError("backoff_seconds must be >= 0 and deadline_seconds > 0")
        if self.ack_deadline_seconds is not None and self.ack_deadline_seconds <= 0:
            raise ValueError(
                f"ack_deadline_seconds must be > 0, got {self.ack_deadline_seconds}"
            )


class BatchJournal:
    """Sequence-numbered retention of dispatched per-shard work lists.

    Sequence numbers are global and strictly increasing, so per-shard
    dispatch order is monotonic in them — replaying a shard's entries with
    ``seq > applied_seq`` in journal order reproduces exactly the batches
    the dead worker never committed, in the original order.
    """

    def __init__(self, limit: int) -> None:
        self._limit = limit
        self._entries: List[Tuple[int, Dict[int, Sequence[PartitionGroup]]]] = []
        self._next_seq = 1

    def append(self, work: Mapping[int, Sequence[PartitionGroup]]) -> int:
        """Retain one dispatched batch; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        self._entries.append((seq, dict(work)))
        return seq

    def entries_for(
        self, shard_index: int, after: Optional[int] = None
    ) -> List[Tuple[int, Sequence[PartitionGroup]]]:
        """This shard's retained ``(seq, groups)`` entries, oldest first.

        ``after`` (the shard's applied-sequence watermark) filters out
        entries the worker already committed; ``None`` returns everything
        retained.
        """
        floor = -1 if after is None else after
        return [
            (seq, work[shard_index])
            for seq, work in self._entries
            if shard_index in work and seq > floor
        ]

    def mass_for(
        self, shard_index: int, after: Optional[int] = None
    ) -> Tuple[int, float]:
        """``(elements, frequency mass)`` of this shard's unapplied entries."""
        elements = 0
        frequency = 0.0
        for _, groups in self.entries_for(shard_index, after):
            for group in groups:
                elements += len(group)
                frequency += float(group.counts.sum())
        return elements, frequency

    def prune_acked(self, acked: Mapping[int, Optional[int]]) -> None:
        """Drop entries every involved shard has acknowledged.

        ``acked`` maps shard index → highest acknowledged sequence (``None``
        = nothing acknowledged).  Shards absent from the mapping (dead,
        dropped) do not hold entries back.
        """
        def settled(seq: int, work: Dict[int, Sequence[PartitionGroup]]) -> bool:
            for shard_index in work:
                floor = acked.get(shard_index)
                if shard_index in acked and (floor is None or floor < seq):
                    return False
            return True

        self._entries = [
            entry for entry in self._entries if not settled(entry[0], entry[1])
        ]

    def drop_shard(self, shard_index: int) -> None:
        """Remove a dead shard's work from all retained entries."""
        pruned: List[Tuple[int, Dict[int, Sequence[PartitionGroup]]]] = []
        for seq, work in self._entries:
            remaining = {
                index: groups
                for index, groups in work.items()
                if index != shard_index
            }
            if remaining:
                pruned.append((seq, remaining))
        self._entries = pruned

    def clear(self) -> None:
        self._entries = []

    @property
    def limit(self) -> int:
        return self._limit

    def __len__(self) -> int:
        return len(self._entries)


class ShardSupervisor:
    """Per-engine recovery driver: restart, replay, degrade, account.

    One supervisor serves one :class:`~repro.distributed.coordinator.ShardedGSketch`;
    it owns the batch journal, the dead-shard set and the lost-mass
    accounting that widens degraded-mode confidence bounds.
    """

    def __init__(self, policy: RecoveryPolicy, num_shards: int) -> None:
        self.policy = policy
        self.num_shards = num_shards
        self.journal = BatchJournal(policy.journal_limit)
        self.dead_shards: Set[int] = set()
        self.restarts = 0
        self.lost_elements = 0
        self._lost_frequency: Dict[int, float] = {}
        self._credited: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def recover(self, executor, shards: Sequence[SketchShard], shard_index: int) -> bool:
        """Try to bring a failed shard back; True when it is in service again.

        Bounded exponential backoff between attempts, a wall-clock deadline
        across the incident.  Each attempt restarts the worker (rebinding
        its arena), then replays the journaled batches the worker had not
        committed — crediting scalar totals exactly once for batches whose
        original dispatch never got to credit them.
        """
        if not can_supervise(executor) or shard_index in self.dead_shards:
            return False
        policy = self.policy
        begin = time.monotonic()
        deadline = begin + policy.deadline_seconds
        delay = policy.backoff_seconds
        for attempt in range(policy.max_restarts):
            if attempt:
                time.sleep(min(delay, max(deadline - time.monotonic(), 0.0)))
                delay *= policy.backoff_multiplier
                if time.monotonic() >= deadline:
                    break
            try:
                applied = executor.restart_shard(shards, shard_index)
                for seq, groups in self.journal.entries_for(shard_index, after=applied):
                    executor.replay(shards, shard_index, groups, seq)
                    if seq > self._credited.get(shard_index, 0):
                        shards[shard_index].credit_groups(groups)
                        self._credited[shard_index] = seq
            except ShardExecutionError:
                continue
            self.restarts += 1
            elapsed = time.monotonic() - begin
            if _obs._ENABLED:
                RECOVERY_SECONDS.observe(elapsed)
                RECOVERY_EVENTS["recovered"].inc()
                get_recorder().record(
                    "recovery", "restart", elapsed, shard=shard_index, attempt=attempt
                )
            return True
        if _obs._ENABLED:
            RECOVERY_EVENTS["exhausted"].inc()
            get_recorder().record(
                "recovery", "exhausted", time.monotonic() - begin, shard=shard_index
            )
        return False

    def mark_dead(self, executor, shard_index: int) -> None:
        """Abandon a shard after retry exhaustion (degraded-serving path).

        The shard's unapplied journal mass becomes *lost mass* — it widens
        every later confidence interval the shard would have answered — and
        its worker resources are released while its last-applied counters
        keep serving reads.
        """
        if shard_index in self.dead_shards:
            return
        applied: Optional[int] = None
        applied_fn = getattr(executor, "applied_seq", None)
        if applied_fn is not None:
            applied = applied_fn(shard_index)
        elements, frequency = self.journal.mass_for(shard_index, after=applied)
        self.dead_shards.add(shard_index)
        self.lost_elements += elements
        self._lost_frequency[shard_index] = (
            self._lost_frequency.get(shard_index, 0.0) + frequency
        )
        mark = getattr(executor, "mark_failed", None)
        if mark is not None:
            mark(shard_index)
        self.journal.drop_shard(shard_index)
        DEGRADED_SHARDS.set(float(len(self.dead_shards)))
        if _obs._ENABLED and elements:
            DEGRADED_DROPPED_ELEMENTS.inc(elements)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def record_dropped(self, shard_index: int, groups: Sequence[PartitionGroup]) -> None:
        """Account a batch's groups dropped because their shard is dead."""
        elements = sum(len(group) for group in groups)
        frequency = float(sum(float(group.counts.sum()) for group in groups))
        self.lost_elements += elements
        self._lost_frequency[shard_index] = (
            self._lost_frequency.get(shard_index, 0.0) + frequency
        )
        if _obs._ENABLED and elements:
            DEGRADED_DROPPED_ELEMENTS.inc(elements)

    def note_credited(self, shard_index: int, seq: Optional[int]) -> None:
        """Record that the coordinator credited scalar totals through ``seq``."""
        if seq is not None and seq > self._credited.get(shard_index, 0):
            self._credited[shard_index] = seq

    def lost_frequency(self, shard_index: int) -> float:
        """Frequency mass lost by a dead shard (widens its error bound)."""
        return self._lost_frequency.get(shard_index, 0.0)

    # ------------------------------------------------------------------ #
    # Journal lifecycle hooks (driven by the coordinator)
    # ------------------------------------------------------------------ #
    def after_dispatch(self, executor) -> None:
        """Prune entries every live worker has acknowledged."""
        if not can_supervise(executor):
            return
        acked = {
            shard_index: executor.acked_seq(shard_index)
            for shard_index in range(self.num_shards)
            if shard_index not in self.dead_shards
        }
        self.journal.prune_acked(acked)

    def on_sync(self) -> None:
        """A full drain settled everything retained: clear the journal."""
        self.journal.clear()

    def needs_flush(self) -> bool:
        """Whether the journal bound forces a pipeline flush now."""
        return len(self.journal) >= self.policy.journal_limit

    def reset(self) -> None:
        """Forget incident state after a checkpoint restore / merge."""
        self.journal.clear()
        self.dead_shards.clear()
        self.lost_elements = 0
        self._lost_frequency.clear()
        self._credited.clear()
        DEGRADED_SHARDS.set(0.0)

    def telemetry(self) -> dict:
        """Supervisor state for the engine's telemetry snapshot."""
        return {
            "dead_shards": sorted(self.dead_shards),
            "degraded": bool(self.dead_shards),
            "restarts": self.restarts,
            "lost_elements": self.lost_elements,
            "lost_frequency": float(sum(self._lost_frequency.values())),
            "journal_entries": len(self.journal),
        }
