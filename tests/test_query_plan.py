"""The compiled query plane: bit-exact parity, cache lifecycle, stale rebuild.

The invariant under test everywhere: the read-optimized path (arena gather +
hot-edge cache) answers **bit-identically** to the pre-plan routed path, for
every backend, through every mutation (per-element update, batch ingest,
merge, snapshot restore) and for every query flavour (in-partition, outlier,
fractional counts, conservative updates).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.engine import SketchEngine
from repro.api.snapshot import load_checkpoint, load_snapshot, save_checkpoint, save_snapshot
from repro.core.config import GSketchConfig
from repro.core.estimator import countmin_confidence, intervals_from_arrays
from repro.core.gsketch import GSketch
from repro.core.global_sketch import GlobalSketch
from repro.core.router import OUTLIER_PARTITION
from repro.core.windowed import WindowedGSketch
from repro.queries import plan as plan_module
from repro.queries.plan import (
    HOT_CACHE_MAX_BATCH,
    CompiledQueryPlan,
    HotEdgeCache,
)
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashing import key_to_uint64


def _query_set(stream, count=300):
    """Stream edges plus never-seen sources (the outlier slot must serve)."""
    keys = sorted(stream.distinct_edges())[:count]
    keys += [(10**9 + index, 3) for index in range(6)]
    return keys


def _build_backend(kind, stream, sample, config):
    if kind == "global":
        estimator = GlobalSketch(config)
        estimator.process(stream)
    elif kind == "gsketch":
        estimator = GSketch.build(sample, config, stream_size_hint=len(stream))
        estimator.process(stream)
    elif kind == "windowed":
        estimator = WindowedGSketch(
            config, window_length=len(stream) / 3.0, sample_size=400, seed=7
        )
        estimator.process(stream)
    else:  # pragma: no cover - parametrization guard
        raise ValueError(kind)
    return estimator


BACKENDS = ("global", "gsketch", "windowed")


# ---------------------------------------------------------------------- #
# Plan-vs-live parity
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", BACKENDS)
def test_plan_matches_direct_path(kind, zipf_stream, zipf_sample, small_config):
    estimator = _build_backend(kind, zipf_stream, zipf_sample, small_config)
    keys = _query_set(zipf_stream)
    assert estimator.query_edges(keys) == estimator.query_edges_direct(keys)
    # Small batches ride the hot-edge cache; repeated calls must stay exact.
    small = keys[:HOT_CACHE_MAX_BATCH]
    first = estimator.query_edges(small)
    assert first == estimator.query_edges(small)
    assert first == estimator.query_edges_direct(small)


@pytest.mark.parametrize("kind", BACKENDS)
def test_plan_matches_direct_on_fractional_counts(
    kind, weighted_stream, small_config
):
    sample = weighted_stream  # partition from the full weighted stream
    estimator = _build_backend(kind, weighted_stream, sample, small_config)
    keys = _query_set(weighted_stream, count=200)
    assert estimator.query_edges(keys) == estimator.query_edges_direct(keys)


@pytest.mark.parametrize("kind", ("global", "gsketch"))
def test_plan_matches_direct_with_conservative_updates(
    kind, zipf_stream, zipf_sample
):
    config = GSketchConfig(
        total_cells=8_000, depth=4, seed=7, conservative_updates=True
    )
    estimator = _build_backend(kind, zipf_stream, zipf_sample, config)
    keys = _query_set(zipf_stream, count=200)
    assert estimator.query_edges(keys) == estimator.query_edges_direct(keys)


def test_confidence_batch_rides_the_plan(zipf_stream, zipf_sample, small_config):
    gsketch = _build_backend("gsketch", zipf_stream, zipf_sample, small_config)
    keys = _query_set(zipf_stream, count=150)
    estimates, bounds, failures, partitions = gsketch.confidence_columns(keys)
    plan_intervals = intervals_from_arrays(estimates, bounds, failures)
    plan_partitions = partitions.tolist()
    direct_intervals, direct_partitions = gsketch.confidence_batch_direct(keys)
    assert plan_intervals == direct_intervals
    assert plan_partitions == direct_partitions
    # Scalar path agreement (different code path, same constants).
    for key, interval in zip(keys[:20], plan_intervals[:20]):
        assert gsketch.confidence(key) == interval


def test_windowed_confidence_composes_per_window(zipf_stream, small_config):
    windowed = _build_backend("windowed", zipf_stream, None, small_config)
    assert windowed.num_windows >= 2
    keys = _query_set(zipf_stream, count=60)
    intervals = windowed.confidence_batch(keys)
    for key, interval in zip(keys[:10], intervals[:10]):
        assert windowed.confidence(key) == interval
        assert interval.failure_probability <= 1.0


def test_subgraph_queries_ride_the_plan(zipf_stream, zipf_sample, small_config):
    from repro.queries.subgraph_query import SubgraphQuery

    gsketch = _build_backend("gsketch", zipf_stream, zipf_sample, small_config)
    edges = tuple(sorted(zipf_stream.distinct_edges())[:6])
    query = SubgraphQuery(edges=edges)
    expected = query.combine(gsketch.query_edges_direct(list(edges)))
    assert gsketch.query_subgraph(query) == expected


# ---------------------------------------------------------------------- #
# Staleness: ingest invalidates plan and cache
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", BACKENDS)
def test_plan_rebuilds_after_ingest(kind, zipf_stream, zipf_sample, small_config):
    estimator = _build_backend(kind, zipf_stream, zipf_sample, small_config)
    keys = _query_set(zipf_stream, count=100)
    before = estimator.query_edges(keys)
    # Re-ingest a slice: every queried edge estimate must move with the
    # live state, not the stale arena.
    extra = list(zipf_stream)[:500]
    if kind == "windowed":
        # Windowed streams must stay timestamp-ordered; re-observe the tail.
        extra = list(zipf_stream)[-500:]
    estimator.ingest_batch(extra)
    after = estimator.query_edges(keys)
    assert after == estimator.query_edges_direct(keys)
    assert sum(after) > sum(before)


def test_point_query_cache_invalidates_on_update(zipf_sample, small_config):
    gsketch = GSketch.build(zipf_sample, small_config)
    edge = next(iter(zipf_sample.distinct_edges()))
    assert gsketch.query_edge(edge) == 0.0
    gsketch.update(edge[0], edge[1], 2.5)
    assert gsketch.query_edge(edge) == gsketch.query_edges_direct([edge])[0]
    assert gsketch.query_edge(edge) >= 2.5


def test_plan_survives_sharded_merge(zipf_stream, zipf_sample, small_config):
    """Two engines fed the halves of a stream merge under a compiled plan."""
    left = GSketch.build(zipf_sample, small_config)
    right = GSketch.build(zipf_sample, small_config)
    half = len(zipf_stream) // 2
    edges = list(zipf_stream)
    left.process(edges[:half])
    right.process(edges[half:])
    keys = _query_set(zipf_stream, count=100)
    left.query_edges(keys)  # compile the plan pre-merge
    left.merge(right)
    reference = GSketch.build(zipf_sample, small_config)
    reference.process(zipf_stream)
    assert left.query_edges(keys) == reference.query_edges(keys)
    assert left.query_edges(keys) == left.query_edges_direct(keys)


def test_plan_refreshes_after_checkpoint_restore(
    tmp_path, zipf_stream, zipf_sample, small_config
):
    gsketch = GSketch.build(zipf_sample, small_config)
    gsketch.process(zipf_stream)
    keys = _query_set(zipf_stream, count=80)
    populated = gsketch.query_edges(keys)
    save_checkpoint(gsketch, tmp_path / "ckpt")
    gsketch.ingest_batch(list(zipf_stream)[:400])
    assert gsketch.query_edges(keys) != populated
    restored = load_checkpoint(tmp_path / "ckpt")
    # The restored engine serves the checkpoint's counters, and its plan
    # follows later ingest like any other.
    assert restored.query_edges(keys) == populated
    assert restored.query_edges(keys) == restored.query_edges_direct(keys)
    restored.ingest_batch(list(zipf_stream)[:400])
    assert restored.query_edges(keys) == gsketch.query_edges(keys)
    assert restored.query_edges(keys) == restored.query_edges_direct(keys)


def test_cache_invalidates_across_snapshot_restore(
    tmp_path, zipf_stream, zipf_sample, small_config
):
    gsketch = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
    gsketch.process(zipf_stream)
    keys = _query_set(zipf_stream, count=4)
    warm = gsketch.query_edges(keys)  # memoized
    path = tmp_path / "plan.snap"
    save_snapshot(gsketch, path)
    restored = load_snapshot(path)
    assert restored.query_edges(keys) == warm
    # Restored estimators start with a cold plane; ingesting must not serve
    # the pre-restore memo.
    restored.ingest_batch(list(zipf_stream)[:300])
    assert restored.query_edges(keys) == restored.query_edges_direct(keys)


# ---------------------------------------------------------------------- #
# Plan internals
# ---------------------------------------------------------------------- #
def test_outlier_sentinel_mirrors_router():
    assert plan_module.OUTLIER_PARTITION == OUTLIER_PARTITION


def test_compiled_plan_matches_estimate_batch():
    # One seed: an arena hashes every slot with one shared family.
    sketches = [CountMinSketch(width=97 + 13 * index, depth=4, seed=5) for index in range(3)]
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2**63, size=500, dtype=np.int64).astype(np.uint64)
    for index, sketch in enumerate(sketches):
        sketch.update_batch(keys[index::3], np.ones(len(keys[index::3])))
    plan = CompiledQueryPlan.compile(sketches, router=None)
    slots = np.asarray([index % 3 for index in range(len(keys))], dtype=np.int64)
    estimates = plan.estimate_keys(keys, slots)
    for slot, sketch in enumerate(sketches):
        mask = slots == slot
        assert np.array_equal(estimates[mask], sketch.estimate_batch(keys[mask]))


def test_compiled_plan_rejects_mixed_depths():
    sketches = [
        CountMinSketch(width=50, depth=4, seed=0),
        CountMinSketch(width=50, depth=5, seed=1),
    ]
    with pytest.raises(ValueError, match="depth"):
        CompiledQueryPlan.compile(sketches, router=None)


def test_compiled_plan_rejects_mixed_hash_families():
    sketches = [
        CountMinSketch(width=50, depth=4, seed=0),
        CountMinSketch(width=60, depth=4, seed=1),
    ]
    live = sketches[1].table
    with pytest.raises(ValueError, match="hash family"):
        CompiledQueryPlan.compile(sketches, router=None)
    # Refused before any table moved into an arena.
    assert np.shares_memory(sketches[1].table, live)


def test_refreshed_constants_are_countmin_confidence_per_slot(weighted_stream, small_config):
    hint = len(weighted_stream)
    gsketch = GSketch.build(weighted_stream, small_config, stream_size_hint=hint)
    sketches = [*gsketch.partitions, gsketch.outlier_sketch]
    slots = np.arange(len(sketches))
    half = len(weighted_stream) // 2
    for part in (weighted_stream.prefix(half), weighted_stream.suffix(half)):
        gsketch.process(part, batch_size=333)
        gsketch.update(10**9, 1, 0.3)  # fractional mass into the outlier slot
        bounds, failures = gsketch.compile_plan().confidence_constants(slots)
        for slot, sketch in enumerate(sketches):
            template = countmin_confidence(sketch, 0.0)
            assert bounds[slot] == template.additive_bound, f"slot {slot}"
            assert failures[slot] == template.failure_probability, f"slot {slot}"


def test_attached_plan_sees_ingest_without_refresh(zipf_sample, small_config):
    gsketch = GSketch.build(zipf_sample, small_config)
    plan = gsketch.compile_plan()
    edge = next(iter(zipf_sample.distinct_edges()))
    gsketch.update(edge[0], edge[1], 3.0)
    # The arena is the live table: no refresh needed for raw estimates.
    assert float(plan.query_edges([edge])[0]) == gsketch.query_edges_direct([edge])[0]


def test_edge_key_memo_keeps_equal_but_distinct_labels_apart(small_config):
    # Each pair compares equal to its neighbour but canonicalizes differently;
    # a memo that let them share an entry would answer for the wrong edge.
    edges = [(-1, 2), (-1.0, 2), ((-1,), 2), ((-1.0,), 2), (2, (-1,)), (2, (-1.0,))]
    global_sketch = GlobalSketch(small_config)
    for weight, (source, target) in enumerate(edges, start=1):
        global_sketch.update(source, target, float(weight))
    for _ in range(2):  # the second pass is served from the memo
        for edge in edges:
            assert plan_module.edge_uint64(*edge) == key_to_uint64(edge)
            direct = global_sketch.query_edges_direct([edge])
            assert global_sketch.query_edges([edge]) == direct


def test_hot_cache_generation_and_capacity():
    cache = HotEdgeCache(capacity=4)
    cache.store_many(1, [10, 11], [1.0, 2.0])
    assert cache.lookup_many(1, [10, 11]) == [1.0, 2.0]
    assert cache.lookup_many(1, [10, 12]) is None  # partial miss
    assert cache.lookup_many(2, [10, 11]) is None  # generation moved → cleared
    assert len(cache) == 0
    cache.store_many(2, [1, 2, 3], [1.0, 2.0, 3.0])
    cache.store_many(2, [4, 5], [4.0, 5.0])  # would exceed capacity → clears
    assert cache.lookup_many(2, [1]) is None
    assert cache.lookup_many(2, [4, 5]) == [4.0, 5.0]


def test_hot_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        HotEdgeCache(capacity=0)


# ---------------------------------------------------------------------- #
# Hot-cache telemetry counters
# ---------------------------------------------------------------------- #
def test_hot_cache_counts_hits_misses_evictions_invalidations():
    cache = HotEdgeCache(capacity=4)
    assert cache.lookup_many(1, [10]) is None
    assert cache.misses == 1
    cache.store_many(1, [10, 11], [1.0, 2.0])
    assert cache.lookup_many(1, [10, 11]) == [1.0, 2.0]
    assert cache.hits == 1
    # Overflow clears wholesale: both resident entries count as evicted.
    cache.store_many(1, [12, 13, 14], [3.0, 4.0, 5.0])
    assert cache.evictions == 2
    # A generation move after adoption is an invalidation; the initial
    # adoption (generation -1 -> 1) was not.
    assert cache.invalidations == 0
    assert cache.lookup_many(2, [12]) is None
    assert cache.invalidations == 1
    telemetry = cache.telemetry()
    assert telemetry["hits"] == 1
    assert telemetry["misses"] == 2
    assert telemetry["evictions"] == 2
    assert telemetry["invalidations"] == 1


def test_cache_invalidation_counter_on_ingest(zipf_stream, zipf_sample, small_config):
    gsketch = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
    gsketch.process(zipf_stream)
    keys = sorted(zipf_stream.distinct_edges())[:4]  # under HOT_CACHE_MAX_BATCH
    cache = gsketch._hot_cache
    gsketch.query_edges(keys)  # compile + miss + store
    gsketch.query_edges(keys)  # memo hit
    assert cache.hits >= 1 and cache.misses >= 1
    before = cache.invalidations
    gsketch.ingest_batch(list(zipf_stream)[:200])
    gsketch.query_edges(keys)  # generation moved: stale memo dropped
    assert cache.invalidations == before + 1


def test_cache_invalidation_counter_on_restore(
    tmp_path, zipf_stream, zipf_sample, small_config
):
    gsketch = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
    gsketch.process(zipf_stream)
    keys = sorted(zipf_stream.distinct_edges())[:4]
    gsketch.query_edges(keys)
    path = tmp_path / "plan.snap"
    save_snapshot(gsketch, path)
    restored = load_snapshot(path)
    restored.query_edges(keys)
    # A restored estimator's cache starts cold: its first sync adopts the
    # generation without counting an invalidation.
    assert restored._hot_cache.invalidations == 0
    restored.ingest_batch(list(zipf_stream)[:200])
    restored.query_edges(keys)
    assert restored._hot_cache.invalidations == 1


def test_cache_invalidation_counter_on_merge(zipf_stream, zipf_sample, small_config):
    left = GSketch.build(zipf_sample, small_config)
    right = GSketch.build(zipf_sample, small_config)
    half = len(zipf_stream) // 2
    edges = list(zipf_stream)
    left.process(edges[:half])
    right.process(edges[half:])
    keys = sorted(zipf_stream.distinct_edges())[:4]
    left.query_edges(keys)  # warm the memo pre-merge
    before = left._hot_cache.invalidations
    left.merge(right)
    left.query_edges(keys)  # merged counters: the memo must not survive
    assert left._hot_cache.invalidations == before + 1


# ---------------------------------------------------------------------- #
# Facade integration
# ---------------------------------------------------------------------- #
def test_engine_frozen_precompiles_and_chains(zipf_stream, zipf_sample, small_config):
    engine = (
        SketchEngine.builder()
        .config(small_config)
        .sample(zipf_sample)
        .stream_size_hint(len(zipf_stream))
        .build()
    )
    engine.ingest(zipf_stream)
    assert engine.frozen() is engine
    estimator = engine.estimator
    assert estimator.compile_plan().generation == estimator.ingest_generation
    keys = _query_set(zipf_stream, count=50)
    estimates = engine.query(keys)
    direct_intervals, direct_partitions = estimator.confidence_batch_direct(keys)
    for estimate, interval, partition in zip(
        estimates, direct_intervals, direct_partitions
    ):
        assert estimate.value == interval.estimate
        assert estimate.interval == interval
        assert estimate.provenance.partition == partition
        assert estimate.provenance.outlier == (partition == OUTLIER_PARTITION)


def test_non_integer_labels_served_through_plan(small_config):
    from repro.graph.stream import GraphStream

    stream = GraphStream.from_tuples(
        (f"v{i % 17}", f"w{i % 11}", float(i), 1.0) for i in range(600)
    )
    gsketch = GSketch.build(stream, small_config)
    gsketch.process(stream)
    keys = sorted(stream.distinct_edges())[:60] + [("never-seen", "w1")]
    assert gsketch.query_edges(keys) == gsketch.query_edges_direct(keys)
    assert gsketch.query_edges(keys[:3]) == gsketch.query_edges_direct(keys[:3])


# ---------------------------------------------------------------------- #
# HotEdgeCache.lookup_partial (no program path calls it; perfbench wraps it)
# ---------------------------------------------------------------------- #
def test_hot_cache_lookup_partial_serves_hits_and_marks_misses():
    cache = HotEdgeCache(capacity=8)
    # Empty memo: no values, and the probe costs no counter churn.
    assert cache.lookup_partial(1, [1, 2]) == (None, None)
    assert cache.hits == 0 and cache.misses == 0
    cache.store_many(1, [1, 3], [10.0, 30.0])
    values, miss = cache.lookup_partial(1, [1, 2, 3, 4])
    assert values.tolist() == [10.0, 0.0, 30.0, 0.0]
    assert miss.tolist() == [False, True, False, True]
    # Unlike lookup_many's all-or-nothing contract, hits and misses are
    # tallied per key.
    assert cache.hits == 2 and cache.misses == 2


def test_hot_cache_lookup_partial_generation_move_clears():
    cache = HotEdgeCache(capacity=8)
    cache.store_many(1, [1, 2], [1.0, 2.0])
    assert cache.lookup_partial(2, [1, 2]) == (None, None)
    assert len(cache) == 0
    assert cache.invalidations == 1


# ---------------------------------------------------------------------- #
# Large (coalesced) batches: one arena gather, no memo
# ---------------------------------------------------------------------- #
def _large_batch(stream):
    """3 × ``HOT_CACHE_MAX_BATCH`` keys: stream edges, one unseen-source
    (outlier) key and three repeats."""
    keys = sorted(stream.distinct_edges())[: 3 * HOT_CACHE_MAX_BATCH - 4]
    keys += [(10**9, 3)] + keys[:3]
    assert len(keys) == 3 * HOT_CACHE_MAX_BATCH
    return keys


def _memo_state(cache):
    return cache.hits, cache.misses, len(cache)


def test_large_batch_is_gathered_from_the_arena_on_a_cold_memo(
    zipf_stream, zipf_sample, small_config
):
    """A batch above ``HOT_CACHE_MAX_BATCH`` keys answers bit-exact from one
    arena gather and neither reads nor fills the memo."""
    gsketch = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
    gsketch.process(zipf_stream)
    keys = _large_batch(zipf_stream)
    cache = gsketch._hot_cache
    direct = gsketch.query_edges_direct(keys)
    assert _memo_state(cache) == (0, 0, 0)
    assert list(gsketch.query_edges(keys)) == list(direct)
    assert _memo_state(cache) == (0, 0, 0)

    # A small batch of the same keys afterwards still misses once, then hits.
    small = keys[-HOT_CACHE_MAX_BATCH:]
    assert list(gsketch.query_edges(small)) == list(direct[-HOT_CACHE_MAX_BATCH:])
    assert (cache.hits, cache.misses) == (0, 1)
    assert list(gsketch.query_edges(small)) == list(direct[-HOT_CACHE_MAX_BATCH:])
    assert (cache.hits, cache.misses) == (1, 1)


def test_large_batch_ignores_keys_small_batches_memoized(
    zipf_stream, zipf_sample, small_config
):
    gsketch = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
    gsketch.process(zipf_stream)
    keys = _large_batch(zipf_stream)
    cache = gsketch._hot_cache
    direct = gsketch.query_edges_direct(keys)
    # Memoize the first two thirds through small batches (the outlier key
    # and the repeats stay out of the memo).
    for start in range(0, 2 * HOT_CACHE_MAX_BATCH, HOT_CACHE_MAX_BATCH):
        gsketch.query_edges(keys[start : start + HOT_CACHE_MAX_BATCH])
    warm = _memo_state(cache)
    assert warm == (0, 2, 2 * HOT_CACHE_MAX_BATCH)
    for _ in range(2):
        assert list(gsketch.query_edges(keys)) == list(direct)
        assert _memo_state(cache) == warm


def test_large_batch_partial_hits_survive_duplicate_keys(
    zipf_stream, zipf_sample, small_config
):
    gsketch = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
    gsketch.process(zipf_stream)
    base = _query_set(zipf_stream, count=2 * HOT_CACHE_MAX_BATCH)
    gsketch.query_edges(base[: len(base) // 2])
    doubled = base + base[:7]  # repeats spanning both the hit and miss sets
    assert list(gsketch.query_edges(doubled)) == list(
        gsketch.query_edges_direct(doubled)
    )
