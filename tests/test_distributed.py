"""Parity and state tests for the sharded ingestion & query engine.

The acceptance bar: a :class:`~repro.distributed.coordinator.ShardedGSketch`
with **any** shard count and **any** executor returns estimates identical to
a single :class:`~repro.core.gsketch.GSketch` over the same stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gsketch import GSketch
from repro.core.router import OUTLIER_PARTITION, VertexRouter
from repro.distributed import (
    SequentialExecutor,
    ShardedGSketch,
    ShardPlan,
    SharedMemoryExecutor,
)
from repro.graph.edge import StreamEdge


@pytest.fixture(scope="module")
def reference(zipf_stream, zipf_sample, small_config):
    gsketch = GSketch.build(
        zipf_sample, small_config, stream_size_hint=len(zipf_stream)
    )
    for edge in zipf_stream:
        gsketch.update(edge.source, edge.target, edge.frequency)
    return gsketch


@pytest.fixture(scope="module")
def query_edges(zipf_stream):
    edges = sorted(zipf_stream.distinct_edges())[:300]
    edges.append((987_654_321, 42))  # outlier-routed query
    return edges


class TestShardPlan:
    def test_every_partition_assigned_exactly_once(self, reference):
        plan = ShardPlan.from_tree(reference.tree, 3, stats=reference.stats)
        assigned = sorted(plan.assignments)
        assert assigned == sorted(
            list(range(reference.num_partitions)) + [OUTLIER_PARTITION]
        )

    def test_loads_are_balanced(self, reference):
        plan = ShardPlan.from_tree(reference.tree, 2, stats=reference.stats)
        loads = plan.shard_loads()
        total = sum(loads)
        # LPT keeps the heaviest bin within a modest factor of the mean
        # whenever there are enough items to pack (4/3 bound for many items;
        # leave slack for degenerate leaf distributions).
        assert max(loads) <= 0.95 * total
        assert min(loads) > 0

    def test_lookup_table_matches_assignments(self, reference):
        plan = ShardPlan.from_tree(reference.tree, 4, stats=reference.stats)
        table = plan.lookup_table()
        for partition in range(plan.num_partitions):
            assert table[partition] == plan.shard_of(partition)
        assert table[OUTLIER_PARTITION] == plan.shard_of(OUTLIER_PARTITION)

    def test_more_shards_than_partitions_is_allowed(self, reference):
        many = reference.num_partitions + 5
        plan = ShardPlan.from_tree(reference.tree, many, stats=reference.stats)
        assert plan.num_shards == many

    def test_rejects_incomplete_assignments(self):
        with pytest.raises(ValueError):
            ShardPlan(num_shards=2, num_partitions=2, assignments={0: 0, -1: 1})


class TestVertexRouterBatch:
    def test_route_batch_matches_partition_of(self, reference, zipf_stream):
        batch = next(zipf_stream.iter_batches(1_000))
        routed = reference.router.route_batch(batch.sources)
        for i, source in enumerate(batch.sources.tolist()):
            assert routed[i] == reference.router.partition_of(source)

    def test_route_batch_marks_unseen_vertices_as_outliers(self, reference):
        routed = reference.router.route_batch(np.array([10**12, 10**12 + 1]))
        assert (routed == OUTLIER_PARTITION).all()

    def test_route_batch_fallback_for_string_labels(self):
        router = VertexRouter({"a": 0, "b": 1}, num_partitions=2)
        routed = router.route_batch(["a", "b", "zz"])
        assert routed.tolist() == [0, 1, OUTLIER_PARTITION]


@pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
def test_sharded_estimates_identical_to_single_gsketch(
    zipf_stream, zipf_sample, small_config, reference, query_edges, num_shards
):
    sharded = ShardedGSketch.build(
        zipf_sample, small_config, num_shards=num_shards,
        stream_size_hint=len(zipf_stream),
    )
    sharded.ingest(zipf_stream, batch_size=1024)
    assert sharded.query_edges(query_edges) == reference.query_edges(query_edges)
    assert sharded.elements_processed == reference.elements_processed
    assert sharded.outlier_elements == reference.outlier_elements
    assert sharded.total_frequency == reference.total_frequency


@pytest.mark.parametrize(
    "executor_factory",
    [SequentialExecutor, SharedMemoryExecutor],
    ids=["sequential", "shared"],
)
def test_every_executor_produces_identical_state(
    zipf_stream, zipf_sample, small_config, reference, query_edges, executor_factory
):
    with ShardedGSketch.build(
        zipf_sample, small_config, num_shards=2, executor=executor_factory(),
        stream_size_hint=len(zipf_stream),
    ) as sharded:
        sharded.ingest(zipf_stream, batch_size=2048)
        assert sharded.query_edges(query_edges) == reference.query_edges(query_edges)
        reassembled = sharded.to_gsketch()
    for left, right in zip(reference.partitions, reassembled.partitions):
        assert np.array_equal(left.table, right.table)
    assert np.array_equal(
        reference.outlier_sketch.table, reassembled.outlier_sketch.table
    )


def test_checkpoint_round_trip(zipf_stream, zipf_sample, small_config, query_edges,
                               reference):
    source = ShardedGSketch.build(
        zipf_sample, small_config, num_shards=3, stream_size_hint=len(zipf_stream)
    )
    source.ingest(zipf_stream)
    states = source.shard_states()
    assert all(isinstance(state, bytes) for state in states)

    restored = ShardedGSketch.build(
        zipf_sample, small_config, num_shards=3, stream_size_hint=len(zipf_stream)
    )
    restored.load_shard_states(states)
    assert restored.query_edges(query_edges) == reference.query_edges(query_edges)


def test_merge_equals_concatenated_stream(
    zipf_stream, zipf_sample, small_config, query_edges, reference
):
    half = len(zipf_stream) // 2

    def build():
        return ShardedGSketch.build(
            zipf_sample, small_config, num_shards=2,
            stream_size_hint=len(zipf_stream),
        )

    first, second = build(), build()
    first.ingest(zipf_stream.prefix(half))
    second.ingest(zipf_stream.suffix(half))
    first.merge(second)
    assert first.query_edges(query_edges) == reference.query_edges(query_edges)
    assert first.elements_processed == reference.elements_processed


def test_from_gsketch_preserves_populated_state(reference, query_edges):
    sharded = ShardedGSketch.from_gsketch(reference, num_shards=2)
    assert sharded.query_edges(query_edges) == reference.query_edges(query_edges)
    assert sharded.elements_processed == reference.elements_processed
    # and it keeps ingesting correctly from there
    sharded.update(987_654_321, 42)
    assert sharded.query_edge((987_654_321, 42)) >= 1.0


def test_single_element_update_path(zipf_sample, small_config):
    sharded = ShardedGSketch.build(zipf_sample, small_config, num_shards=2)
    sharded.update(1, 2, 3.0)
    assert sharded.query_edge((1, 2)) >= 3.0
    assert sharded.elements_processed == 1


def test_merge_rejects_mismatched_plans(zipf_sample, small_config):
    a = ShardedGSketch.build(zipf_sample, small_config, num_shards=2)
    b = ShardedGSketch.build(zipf_sample, small_config, num_shards=3)
    with pytest.raises(ValueError):
        a.merge(b)


def test_ingest_accepts_plain_edge_iterables(zipf_sample, small_config):
    sharded = ShardedGSketch.build(zipf_sample, small_config, num_shards=2)
    edges = [StreamEdge(1, 2), StreamEdge(3, 4), StreamEdge(1, 2)]
    assert sharded.ingest(edges) == 3
    assert sharded.query_edge((1, 2)) >= 2.0


def test_ingest_consumes_generators_lazily(zipf_sample, small_config):
    """Generator input is chunked without materializing the whole stream."""
    sharded = ShardedGSketch.build(zipf_sample, small_config, num_shards=2)
    consumed = []

    def edge_source():
        for i in range(5_000):
            consumed.append(i)
            yield StreamEdge(i % 50, (i * 3) % 50)

    assert sharded.ingest(edge_source(), batch_size=256) == 5_000
    assert len(consumed) == 5_000
    assert sharded.elements_processed == 5_000


def test_checkpoint_restore_recovers_element_counters(
    zipf_stream, zipf_sample, small_config
):
    source = ShardedGSketch.build(
        zipf_sample, small_config, num_shards=2, stream_size_hint=len(zipf_stream)
    )
    source.ingest(zipf_stream)
    restored = ShardedGSketch.build(
        zipf_sample, small_config, num_shards=2, stream_size_hint=len(zipf_stream)
    )
    restored.load_shard_states(source.shard_states())
    assert restored.elements_processed == source.elements_processed
    assert restored.outlier_elements == source.outlier_elements
    assert restored.total_frequency == source.total_frequency


def test_merge_survives_process_executor_and_further_ingest(
    zipf_stream, zipf_sample, small_config, query_edges, reference
):
    """Coordinator-side merges must not be overwritten by stale worker state."""
    half = len(zipf_stream) // 2
    with ShardedGSketch.build(
        zipf_sample, small_config, num_shards=2, executor=SharedMemoryExecutor(),
        stream_size_hint=len(zipf_stream),
    ) as first:
        first.ingest(zipf_stream.prefix(half), batch_size=1024)
        second = ShardedGSketch.build(
            zipf_sample, small_config, num_shards=2,
            stream_size_hint=len(zipf_stream),
        )
        second.ingest(zipf_stream.suffix(half + 100), batch_size=1024)
        first.merge(second)
        # Keep ingesting through the (restarted) workers after the merge.
        first.ingest(
            zipf_stream.prefix(half + 100).suffix(half), batch_size=1024
        )
        assert first.query_edges(query_edges) == reference.query_edges(query_edges)
        assert first.elements_processed == reference.elements_processed


def test_load_shard_states_survives_process_executor(
    zipf_stream, zipf_sample, small_config, query_edges, reference
):
    """Restoring a checkpoint discards stale worker state, not the checkpoint."""
    source = ShardedGSketch.build(
        zipf_sample, small_config, num_shards=2, stream_size_hint=len(zipf_stream)
    )
    source.ingest(zipf_stream)
    with ShardedGSketch.build(
        zipf_sample, small_config, num_shards=2, executor=SharedMemoryExecutor(),
        stream_size_hint=len(zipf_stream),
    ) as target:
        target.ingest(zipf_stream.prefix(300), batch_size=128)  # stale state
        target.load_shard_states(source.shard_states())
        assert target.query_edges(query_edges) == reference.query_edges(query_edges)
        assert target.elements_processed == reference.elements_processed
