"""Sharded ingestion & query engine over localized gSketch partitions.

gSketch routes every stream element to exactly one localized sketch by the
edge's source vertex, so the structure is embarrassingly shardable: the paper
flags distributed deployment of the partitioned sketches as the natural
scale-out path, and this subpackage implements it.

Layers (coordinator → shards → localized sketches):

* :class:`~repro.distributed.plan.ShardPlan` — frequency-balanced LPT bin
  packing of partition-tree leaves onto N shards;
* :class:`~repro.core.batch_router.BatchRouter` — vectorized
  hash + route + group of columnar edge blocks;
* :class:`~repro.distributed.shard.SketchShard` — partition-local sketch
  state: batch apply, serialize/deserialize checkpoints, exact merge;
* :mod:`~repro.distributed.executor` — the execution-backend protocol and
  the in-process sequential reference backend;
* :mod:`~repro.distributed.shared_memory` — the production backend:
  per-shard workers over shared-memory counter arenas with fused apply
  kernels and pipelined (double-buffered) dispatch;
* :mod:`~repro.distributed.recovery` — supervised restart and journal
  replay of shared-memory workers, and opt-in degraded serving;
* :class:`~repro.distributed.coordinator.ShardedGSketch` — the engine:
  batch ingestion, vectorized queries, checkpointing and re-aggregation back
  into a plain :class:`~repro.core.gsketch.GSketch`.

Every configuration produces counters bit-identical to a single
:class:`~repro.core.gsketch.GSketch` over the same stream.
"""

from repro.core.batch_router import BatchRouter, PartitionGroup, RoutedBatch
from repro.distributed.coordinator import ShardedGSketch
from repro.distributed.executor import (
    SequentialExecutor,
    ShardExecutionError,
    ShardExecutor,
    make_executor,
)
from repro.distributed.plan import ShardPlan
from repro.distributed.recovery import BatchJournal, RecoveryPolicy, ShardSupervisor
from repro.distributed.shard import SketchShard
from repro.distributed.shared_memory import SharedMemoryExecutor

__all__ = [
    "BatchJournal",
    "BatchRouter",
    "PartitionGroup",
    "RecoveryPolicy",
    "RoutedBatch",
    "SequentialExecutor",
    "ShardExecutionError",
    "ShardExecutor",
    "ShardPlan",
    "ShardSupervisor",
    "ShardedGSketch",
    "SharedMemoryExecutor",
    "SketchShard",
    "make_executor",
]
