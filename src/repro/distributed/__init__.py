"""Sharded ingestion & query engine over localized gSketch partitions.

gSketch routes every stream element to exactly one localized sketch by the
edge's source vertex, so the structure is embarrassingly shardable: the paper
flags distributed deployment of the partitioned sketches as the natural
scale-out path, and this subpackage implements its in-process form.

Layers (coordinator → shards → localized sketches):

* :class:`~repro.distributed.plan.ShardPlan` — frequency-balanced LPT bin
  packing of partition-tree leaves onto N shards;
* :class:`~repro.distributed.shard.SketchShard` — partition-local sketch
  state: serialize/deserialize checkpoints, exact merge;
* :class:`~repro.distributed.coordinator.ShardedGSketch` — the engine: every
  shard's sketches in one arena, ingested and queried through the compiled
  plan like :class:`~repro.core.gsketch.GSketch`, with per-shard incremental
  checkpoints, merge and re-aggregation back into a plain ``GSketch``.

Every shard count produces counters bit-identical to a single
:class:`~repro.core.gsketch.GSketch` over the same stream.
"""

from repro.core.batch_router import BatchRouter, PartitionGroup, RoutedBatch
from repro.distributed.coordinator import ShardedGSketch
from repro.distributed.plan import ShardPlan
from repro.distributed.shard import SketchShard

__all__ = [
    "BatchRouter",
    "PartitionGroup",
    "RoutedBatch",
    "ShardPlan",
    "ShardedGSketch",
    "SketchShard",
]
