"""A shard: the localized sketches owned by one worker.

A :class:`SketchShard` holds the physical Count-Min sketches of the partitions
a :class:`~repro.distributed.plan.ShardPlan` assigned to it — possibly
including the outlier sketch — and applies pre-routed
:class:`~repro.core.batch_router.PartitionGroup` blocks to them.

Shards are the unit of distribution, so they are fully serializable: a shard
can be checkpointed to disk, revived, and **merged** — two shards populated
from disjoint sub-streams combine, counter by counter, into the shard that
would have resulted from ingesting the concatenated stream.  Merging is exact
because Count-Min tables are linear in the input.
"""

from __future__ import annotations

import pickle
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.core.batch_router import PartitionGroup
from repro.sketches.countmin import CountMinSketch


class SketchShard:
    """Partition-local sketch state plus the batch-apply hot path.

    Args:
        index: this shard's position in the plan.
        sketches: partition index → physical sketch.  The mapping may include
            :data:`~repro.core.router.OUTLIER_PARTITION`.
    """

    def __init__(self, index: int, sketches: Mapping[int, CountMinSketch]) -> None:
        if index < 0:
            raise ValueError(f"shard index must be >= 0, got {index}")
        self.index = index
        self._sketches: Dict[int, CountMinSketch] = dict(sketches)

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def partition_ids(self) -> Tuple[int, ...]:
        """The partitions this shard owns, in sorted order."""
        return tuple(sorted(self._sketches))

    def owns(self, partition: int) -> bool:
        return partition in self._sketches

    def sketch_for(self, partition: int) -> CountMinSketch:
        """The physical sketch of one owned partition."""
        try:
            return self._sketches[partition]
        except KeyError:
            raise KeyError(
                f"shard {self.index} does not own partition {partition}; "
                f"owned: {self.partition_ids}"
            ) from None

    # ------------------------------------------------------------------ #
    # Ingestion / queries
    # ------------------------------------------------------------------ #
    def apply(self, groups: Sequence[PartitionGroup]) -> int:
        """Apply pre-routed groups to the owned sketches; returns elements applied."""
        applied = 0
        for group in groups:
            self.sketch_for(group.partition).update_batch(group.keys, group.counts)
            applied += len(group)
        return applied

    def estimate_group(self, group: PartitionGroup) -> np.ndarray:
        """Vectorized point estimates for one pre-routed group of edge keys."""
        return self.sketch_for(group.partition).estimate_batch(group.keys)

    def credit_groups(self, groups: Sequence[PartitionGroup]) -> int:
        """Account groups whose counter updates are applied out-of-process.

        Mirrors :meth:`apply` for the scalar side of the update only (totals
        and update counts, via
        :meth:`~repro.sketches.countmin.CountMinSketch.credit_batch`); the
        shared-memory executor calls this on dispatch while the worker applies
        the counters through the shared arena.  Returns elements credited.
        """
        credited = 0
        for group in groups:
            self.sketch_for(group.partition).credit_batch(group.counts)
            credited += len(group)
        return credited

    # ------------------------------------------------------------------ #
    # State: checkpoint, revive, merge
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Complete shard state as plain dictionaries and arrays."""
        return {
            "index": self.index,
            "sketches": {
                partition: sketch.state_dict()
                for partition, sketch in self._sketches.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "SketchShard":
        """Revive a shard from a :meth:`state_dict` snapshot."""
        sketches = {
            int(partition): CountMinSketch.from_state(sketch_state)
            for partition, sketch_state in state["sketches"].items()
        }
        return cls(index=int(state["index"]), sketches=sketches)

    def serialize(self) -> bytes:
        """Checkpoint the shard to bytes (numpy arrays pickled in-band)."""
        return pickle.dumps(self.state_dict(), protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def deserialize(cls, payload: bytes) -> "SketchShard":
        """Revive a shard from :meth:`serialize` output."""
        return cls.from_state(pickle.loads(payload))

    def load_state_from(self, other: "SketchShard") -> None:
        """Adopt another shard's sketch state in place (executor sync-back)."""
        if other.index != self.index or other.partition_ids != self.partition_ids:
            raise ValueError(
                f"cannot adopt state of shard {other.index} "
                f"(partitions {other.partition_ids}) into shard {self.index} "
                f"(partitions {self.partition_ids})"
            )
        self._sketches = dict(other._sketches)

    def merge(self, other: "SketchShard") -> None:
        """Add ``other``'s counters into this shard, partition by partition.

        Both shards must cover the same partitions with identically-seeded
        sketches (i.e. descend from the same plan).  After merging, this shard
        equals the shard that would have ingested both sub-streams.
        """
        if self.partition_ids != other.partition_ids:
            raise ValueError(
                f"cannot merge shards covering different partitions: "
                f"{self.partition_ids} vs {other.partition_ids}"
            )
        for partition, sketch in self._sketches.items():
            sketch.merge(other._sketches[partition])

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total_count(self) -> float:
        """Total frequency mass absorbed by this shard's sketches."""
        return float(sum(s.total_count for s in self._sketches.values()))

    @property
    def memory_cells(self) -> int:
        """Allocated counter cells across the shard's sketches."""
        return sum(s.memory_cells for s in self._sketches.values())

    def sketches(self) -> Iterable[Tuple[int, CountMinSketch]]:
        """Iterate ``(partition, sketch)`` pairs (coordinator re-aggregation)."""
        return self._sketches.items()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SketchShard(index={self.index}, partitions={len(self._sketches)}, "
            f"N={self.total_count:.0f})"
        )
