"""Build → ingest → query round trips for the single-process GSketch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.core.gsketch import GSketch
from repro.datasets.zipf import zipf_stream as make_zipf
from repro.graph.edge import StreamEdge


def test_build_and_query_round_trip(zipf_stream, zipf_sample, small_config):
    gsketch = GSketch.build(
        zipf_sample, small_config, stream_size_hint=len(zipf_stream)
    )
    gsketch.process(zipf_stream)

    truth = zipf_stream.edge_frequencies()
    assert gsketch.elements_processed == len(zipf_stream)
    assert gsketch.total_frequency == sum(truth.values())

    # One-sided guarantee on every distinct edge.
    for edge, frequency in truth.items():
        assert gsketch.query_edge(edge) >= frequency

    # Accuracy sanity: the average estimate should stay within a small
    # multiple of the truth at this load factor (not a paper-grade metric,
    # just a regression tripwire).
    edges = sorted(truth)[:400]
    estimates = gsketch.query_edges(edges)
    relative_errors = [
        (estimate - truth[edge]) / truth[edge]
        for edge, estimate in zip(edges, estimates)
    ]
    assert np.mean(relative_errors) < 5.0


def test_query_edges_accepts_numpy_arrays(zipf_stream, zipf_sample, small_config):
    """A (n, 2) ndarray of edges queries like the equivalent list of tuples."""
    gsketch = GSketch.build(zipf_sample, small_config)
    gsketch.process(zipf_stream.prefix(1_000))
    edges = sorted(zipf_stream.distinct_edges())[:50]
    as_array = np.array(edges)
    assert gsketch.query_edges(as_array) == gsketch.query_edges(edges)
    assert gsketch.query_edges(np.empty((0, 2), dtype=np.int64)) == []


def test_unseen_vertices_route_to_outlier(zipf_stream, zipf_sample, small_config):
    gsketch = GSketch.build(zipf_sample, small_config)
    before = gsketch.outlier_elements
    gsketch.update(10_000_001, 5)
    assert gsketch.outlier_elements == before + 1
    assert gsketch.is_outlier_query((10_000_001, 5))
    assert gsketch.query_edge((10_000_001, 5)) >= 1.0


def test_confidence_interval_brackets_estimate(zipf_stream, zipf_sample, small_config):
    gsketch = GSketch.build(zipf_sample, small_config)
    gsketch.process(zipf_stream.prefix(2_000))
    edge = next(iter(zipf_stream.distinct_edges()))
    interval = gsketch.confidence(edge)
    estimate = gsketch.query_edge(edge)
    assert interval.lower <= estimate
    assert interval.upper == estimate
    assert 0.0 <= interval.failure_probability < 1.0


def test_partition_summaries_cover_all_partitions(zipf_sample, small_config):
    gsketch = GSketch.build(zipf_sample, small_config)
    summaries = gsketch.partition_summaries()
    assert len(summaries) == gsketch.num_partitions + 1  # + outlier
    assert summaries[-1].leaf_reason == "outlier"


def test_rejected_batch_leaves_earlier_partition_groups_unapplied():
    """Groups are applied in partition order; a bad frequency in partition 2
    must not leave partition 1's valid edge counted."""
    stream = make_zipf(20_000, population=512, seed=7)
    engine = (
        SketchEngine.builder()
        .config(GSketchConfig(total_cells=20_000, depth=4, seed=7))
        .dataset(stream)
        .build()
    )
    engine.ingest(stream)
    estimator = engine.estimator
    assert estimator.num_partitions > 2
    early = next(iter(estimator.router.vertices_of(1)))
    late = next(iter(estimator.router.vertices_of(2)))
    before = estimator.query_edges_direct([(early, 2)])
    elements = estimator.elements_processed
    generation = estimator.ingest_generation

    with pytest.raises(ValueError, match="finite and >= 0"):
        engine.ingest_batch(
            [StreamEdge(early, 2, 0.0, 5.0), StreamEdge(late, 3, 0.0, -1.0)]
        )

    assert estimator.query_edges_direct([(early, 2)]) == before
    assert estimator.elements_processed == elements
    assert estimator.ingest_generation == generation
