"""Distributing one partitioning: routing, merge and checkpoint parity.

gSketch routes every element by its source vertex to exactly one localized
sketch, so engines built from one partitioning can each absorb a disjoint
sub-stream and be combined afterwards: Count-Min tables are linear, and
:meth:`~repro.core.gsketch.GSketch.merge` adds them exactly.  The acceptance
bar is bit-exact state versus a single engine fed the whole stream per edge —
plan answers, direct answers, tables, totals and counts — across merge,
checkpoint restore and further ingest.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.api.snapshot import load_checkpoint, save_checkpoint
from repro.core.gsketch import GSketch
from repro.core.router import DIRECT_SLOTS_PER_VERTEX, OUTLIER_PARTITION, VertexRouter
from repro.graph.edge import StreamEdge
from repro.graph.sampling import reservoir_sample


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


def _build(zipf_stream, zipf_sample, small_config) -> GSketch:
    return GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))


def _assert_matches(engine: GSketch, reference: GSketch, edges) -> None:
    """Answers, tables, totals and counts equal the reference engine's."""
    expected = reference.query_edges(edges)
    assert engine.query_edges(edges) == expected
    assert engine.query_edges_direct(edges) == expected
    assert engine.elements_processed == reference.elements_processed
    assert engine.outlier_elements == reference.outlier_elements
    assert engine.total_frequency == reference.total_frequency
    pairs = list(zip(engine.partitions, reference.partitions))
    pairs.append((engine.outlier_sketch, reference.outlier_sketch))
    for index, (left, right) in enumerate(pairs):
        assert np.array_equal(left.table, right.table), f"slot {index}: tables diverge"
        assert left.total_count == right.total_count
        assert left.update_count == right.update_count


INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)
_DENSE_SPAN = 40 * DIRECT_SLOTS_PER_VERTEX

#: ``(labels, lookup the router picks)`` for the route contract test.
ROUTE_CONTRACT_LABELS = [
    (list(range(0, 120, 2)), "direct"),
    (list(range(-60, 60, 3)), "direct"),
    ([int(v) for v in np.random.default_rng(3).choice(10**9, 50, replace=False)], "sorted"),
    ([7], "direct"),
    # The density limit: a span of exactly DIRECT_SLOTS_PER_VERTEX slots per
    # vertex is direct, one more slot is sorted.
    ([0, *range(_DENSE_SPAN - 39, _DENSE_SPAN)], "direct"),
    ([0, *range(_DENSE_SPAN - 38, _DENSE_SPAN + 1)], "sorted"),
    # Labels near ±2^62: direct inside the limit, sorted past it.
    (list(range(2**62 - 3, 2**62 + 1)), "direct"),
    (list(range(-(2**62), -(2**62) + 4)), "direct"),
    ([2**62 + 1, 2**62 + 2], "sorted"),
    ([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX], "sorted"),
]
ROUTE_CONTRACT_IDS = [
    "dense", "dense-negative", "sparse", "one-vertex", "span-at-limit",
    "span-past-limit", "near-2^62", "near-minus-2^62", "past-2^62", "int64-ends",
]


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
        assert router.lookup == "dict"

    def test_route_batch_keeps_mixed_and_tuple_labels_apart(self):
        router = VertexRouter({"a": 0, 3: 1, (4, 5): 2}, num_partitions=3)
        probes = ["a", 3, "3", (4, 5), 4]
        assert router.route_batch(probes).tolist() == [0, 1, -1, 2, -1]
        assert router.route_batch(probes).tolist() == [router.partition_of(p) for p in probes]

    @pytest.mark.parametrize("constructor", ["mapping", "columns"])
    @pytest.mark.parametrize("labels, lookup", ROUTE_CONTRACT_LABELS, ids=ROUTE_CONTRACT_IDS)
    def test_route_batch_contract(self, labels, lookup, constructor):
        """Every table agrees with ``partition_of`` on every probe dtype."""
        partitions = np.arange(len(labels), dtype=np.int64) % 3
        if constructor == "mapping":
            router = VertexRouter(dict(zip(labels, partitions.tolist())), num_partitions=3)
        else:
            router = VertexRouter.from_arrays(
                labels, np.array(labels, dtype=np.int64), partitions, num_partitions=3
            )
        assert router.lookup == lookup
        lo, hi = min(labels), max(labels)
        extra = {lo - 1, hi + 1, 0, -1, 10**12, INT64_MIN, INT64_MAX}
        probes = sorted(p for p in set(labels) | extra if INT64_MIN <= p <= INT64_MAX)
        for dtype in (np.int64, np.int32, np.uint32, np.uint64):
            info = np.iinfo(dtype)
            block = np.array([p for p in probes if info.min <= p <= info.max], dtype=dtype)
            self._assert_agrees(router, block, block.tolist())
        self._assert_agrees(router, np.array(probes, dtype=object), probes)
        self._assert_agrees(router, np.zeros(0, dtype=np.int64), [])
        self._assert_agrees(router, [], [])

    @staticmethod
    def _assert_agrees(router, block, probes):
        routed = router.route_batch(block)
        assert routed.dtype == np.int64
        assert routed.tolist() == [router.partition_of(p) for p in probes]

    def test_pickled_router_carries_no_table(self):
        router = VertexRouter({v: v % 3 for v in range(1, 50)}, num_partitions=3)
        assert set(router.__getstate__()) == {"_assignments", "_num_partitions"}
        restored = pickle.loads(pickle.dumps(router))
        assert restored.lookup == "direct"
        probes = np.arange(-2, 53)
        assert restored.route_batch(probes).tolist() == router.route_batch(probes).tolist()

    def test_state_with_searchsorted_table_still_routes(self):
        """A router pickled with the sorted ``(keys, partitions)`` lookup in
        ``_int_lookup`` (snapshots and checkpoints written before the
        direct-address table) rebuilds its table on load."""
        assignments = {9: 2, 2: 0, 5: 1}
        state = {
            "_assignments": assignments,
            "_num_partitions": 3,
            "_int_lookup": (np.array([2, 5, 9]), np.array([0, 1, 2])),
        }

        class SearchsortedLayout:
            def __reduce__(self):
                return object.__new__, (VertexRouter,), state

        restored = pickle.loads(pickle.dumps(SearchsortedLayout()))
        assert not hasattr(restored, "_int_lookup")
        probes = list(range(-1, 12))
        routed = restored.route_batch(np.array(probes, dtype=np.int64))
        assert routed.tolist() == [restored.partition_of(p) for p in probes]
        assert routed.tolist()[3:11] == [0, -1, -1, 1, -1, -1, -1, 2]


def test_checkpoint_round_trip(
    zipf_stream, zipf_sample, small_config, query_edges, reference, tmp_path
):
    source = _build(zipf_stream, zipf_sample, small_config)
    source.process(zipf_stream)
    restored = load_checkpoint(save_checkpoint(source, tmp_path / "ckpt"))
    _assert_matches(restored, reference, query_edges)


def test_checkpoint_restore_recovers_element_counters(
    zipf_stream, zipf_sample, small_config, tmp_path
):
    source = _build(zipf_stream, zipf_sample, small_config)
    source.process(zipf_stream)
    assert source.outlier_elements > 0
    restored = load_checkpoint(save_checkpoint(source, tmp_path / "ckpt"))
    assert restored.elements_processed == source.elements_processed
    assert restored.outlier_elements == source.outlier_elements
    assert restored.total_frequency == source.total_frequency
    restored.update(987_654_321, 42)
    assert restored.elements_processed == source.elements_processed + 1
    assert restored.outlier_elements == source.outlier_elements + 1


def test_merge_equals_concatenated_stream(
    zipf_stream, zipf_sample, small_config, query_edges, reference
):
    half = len(zipf_stream) // 2
    first = _build(zipf_stream, zipf_sample, small_config)
    second = _build(zipf_stream, zipf_sample, small_config)
    first.process(zipf_stream.prefix(half))
    second.process(zipf_stream.suffix(half))
    first.merge(second)
    _assert_matches(first, reference, query_edges)


def test_single_element_update_path(zipf_sample, small_config):
    gsketch = GSketch.build(zipf_sample, small_config)
    gsketch.update(1, 2, 3.0)
    assert gsketch.query_edge((1, 2)) >= 3.0
    assert gsketch.elements_processed == 1


def test_merge_rejects_mismatched_plans(zipf_stream, zipf_sample, small_config):
    """Engines from another sample or config are refused before any counter
    moves: another routing over identical sketches, or identical routing
    where only the last sketch pair (the outlier) differs."""
    engine = _build(zipf_stream, zipf_sample, small_config)
    engine.process(zipf_stream.prefix(2_000))
    other_sample = GSketch.build(
        reservoir_sample(zipf_stream, 700, seed=99), small_config
    )
    shifted = {
        vertex: (partition + 1) % engine.num_partitions
        for vertex, partition in engine.tree.vertex_partition_map().items()
    }
    other_routing = GSketch(
        config=small_config,
        tree=engine.tree,
        router=VertexRouter(shifted, engine.num_partitions),
        stats=engine.stats,
    )
    other_seed = GSketch.build(
        zipf_sample,
        small_config.with_seed(small_config.seed + 1),
        stream_size_hint=len(zipf_stream),
    )
    other_outlier = GSketch(
        config=dataclasses.replace(small_config, outlier_fraction=0.2),
        tree=engine.tree,
        router=engine.router,
        stats=engine.stats,
    )
    assert other_outlier.router.same_routing(engine.router)
    keys = sorted(zipf_stream.distinct_edges())[:100] + [(987_654_321, 42)]
    for other in (other_sample, other_routing, other_seed, other_outlier):
        other.process(zipf_stream.suffix(len(zipf_stream) - 1_000))
        before = (engine.query_edges(keys), other.query_edges(keys))
        tables = [sketch.table.copy() for sketch in engine.partitions]
        with pytest.raises(ValueError):
            engine.merge(other)
        assert (engine.query_edges(keys), other.query_edges(keys)) == before
        assert engine.query_edges_direct(keys) == before[0]
        for sketch, table in zip(engine.partitions, tables):
            assert np.array_equal(sketch.table, table)
        assert engine.elements_processed == 2_000


def test_ingest_accepts_plain_edge_iterables(zipf_sample, small_config):
    gsketch = GSketch.build(zipf_sample, small_config)
    edges = [StreamEdge(1, 2), StreamEdge(3, 4), StreamEdge(1, 2)]
    assert gsketch.process(edges) == 3
    assert gsketch.query_edge((1, 2)) >= 2.0


def test_ingest_consumes_generators_lazily(zipf_sample, small_config):
    """Generator input is chunked without materializing the whole stream."""
    gsketch = GSketch.build(zipf_sample, small_config)
    consumed = []

    def edge_source():
        for i in range(5_000):
            consumed.append(i)
            yield StreamEdge(i % 50, (i * 3) % 50)

    assert gsketch.process(edge_source(), batch_size=256) == 5_000
    assert len(consumed) == 5_000
    assert gsketch.elements_processed == 5_000


def test_merge_then_further_ingest_matches_reference(
    zipf_stream, zipf_sample, small_config, query_edges, reference
):
    """A merge folds counters into the live arena; later ingest adds to them."""
    half = len(zipf_stream) // 2
    first = _build(zipf_stream, zipf_sample, small_config)
    first.process(zipf_stream.prefix(half), batch_size=1024)
    first.query_edges(query_edges)  # compile the plan before the merge
    second = _build(zipf_stream, zipf_sample, small_config)
    second.process(zipf_stream.suffix(half + 100), batch_size=1024)
    first.merge(second)
    first.process(zipf_stream.prefix(half + 100).suffix(half), batch_size=1024)
    _assert_matches(first, reference, query_edges)


# ---------------------------------------------------------------------- #
# Lifecycle: restore and merge, then further ingest
# ---------------------------------------------------------------------- #
class TestShardedLifecycle:
    def test_checkpoint_and_merge_then_ingest(
        self, zipf_stream, zipf_sample, small_config, reference, tmp_path
    ):
        """A checkpoint-restored engine merges and keeps ingesting."""
        half = len(zipf_stream) // 2
        edges = sorted(zipf_stream.distinct_edges())[:100]
        first = _build(zipf_stream, zipf_sample, small_config)
        first.process(zipf_stream.prefix(half), batch_size=1024)
        restored = load_checkpoint(save_checkpoint(first, tmp_path / "ckpt"))
        second = _build(zipf_stream, zipf_sample, small_config)
        second.process(zipf_stream.suffix(half), batch_size=1024)
        restored.merge(second)
        _assert_matches(restored, reference, edges)
        restored.update(987_654_321, 42)
        assert restored.query_edge((987_654_321, 42)) >= 1.0
        assert restored.query_edges(edges) == restored.query_edges_direct(edges)
