"""Batched ingestion must be *bit-identical* to per-edge ingestion.

These tests pin the core contract of the vectorized hot path: grouping a
stream by partition and applying ``update_batch`` produces exactly the
counters that arrival-order ``update`` calls produce, and the serialized
engines of two halves of a stream merge into the state of the whole stream.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import GSketchConfig
from repro.core.gsketch import GSketch
from repro.graph.sampling import reservoir_sample


def assert_same_counters(a: GSketch, b: GSketch) -> None:
    assert a.num_partitions == b.num_partitions
    for left, right in zip(a.partitions, b.partitions):
        assert np.array_equal(left.table, right.table)
        assert left.total_count == right.total_count
        assert left.update_count == right.update_count
    assert np.array_equal(a.outlier_sketch.table, b.outlier_sketch.table)
    assert a.elements_processed == b.elements_processed
    assert a.outlier_elements == b.outlier_elements


def _per_edge_ingest(gsketch: GSketch, stream) -> None:
    for edge in stream:
        gsketch.update(edge.source, edge.target, edge.frequency)


@pytest.mark.parametrize("conservative", [False, True])
@pytest.mark.parametrize("batch_size", [1, 17, 1024, 100_000])
def test_process_bit_identical_to_per_edge(
    zipf_stream, zipf_sample, conservative, batch_size
):
    config = GSketchConfig(
        total_cells=8_000, depth=4, seed=7, conservative_updates=conservative
    )
    stream = zipf_stream.prefix(3_000) if conservative else zipf_stream

    reference = GSketch.build(zipf_sample, config, stream_size_hint=len(stream))
    _per_edge_ingest(reference, stream)

    batched = GSketch.build(zipf_sample, config, stream_size_hint=len(stream))
    batched.process(stream, batch_size=batch_size)

    assert_same_counters(reference, batched)


def test_ingest_batch_accepts_raw_edge_sequences(zipf_stream, zipf_sample, small_config):
    reference = GSketch.build(zipf_sample, small_config)
    _per_edge_ingest(reference, zipf_stream.prefix(500))

    batched = GSketch.build(zipf_sample, small_config)
    batched.ingest_batch(list(zipf_stream.prefix(500)))

    assert_same_counters(reference, batched)


def test_fractional_frequencies_keep_parity(weighted_stream, small_config):
    sample = reservoir_sample(weighted_stream, 600, seed=3)
    reference = GSketch.build(sample, small_config)
    _per_edge_ingest(reference, weighted_stream)

    batched = GSketch.build(sample, small_config)
    batched.process(weighted_stream, batch_size=256)

    for left, right in zip(reference.partitions, batched.partitions):
        assert np.array_equal(left.table, right.table)
    assert np.array_equal(
        reference.outlier_sketch.table, batched.outlier_sketch.table
    )


def test_string_labelled_streams_take_fallback_path(small_config):
    """Non-integer labels exercise the per-element fallback, same parity."""
    from repro.graph.stream import GraphStream

    edges = [
        (f"u{i % 40}", f"v{(i * 7) % 30}", float(i), 1.0) for i in range(2_000)
    ]
    stream = GraphStream.from_tuples(edges, name="strings")
    sample = reservoir_sample(stream, 400, seed=2)

    reference = GSketch.build(sample, small_config)
    _per_edge_ingest(reference, stream)

    batched = GSketch.build(sample, small_config)
    batched.process(stream, batch_size=333)

    assert_same_counters(reference, batched)


def test_shard_merge_of_serialized_halves_equals_concatenated_ingest(
    zipf_stream, zipf_sample, small_config
):
    """merge(serialize(a), serialize(b)) == ingest(a ++ b), counter for counter."""
    whole = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
    whole.process(zipf_stream)

    half = len(zipf_stream) // 2
    first = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
    first.process(zipf_stream.prefix(half))
    second = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
    second.process(zipf_stream.suffix(half))

    def revive(gsketch: GSketch) -> GSketch:
        return GSketch.from_state(pickle.loads(pickle.dumps(gsketch.state_dict())))

    merged = revive(first)
    merged.merge(revive(second))
    assert_same_counters(merged, whole)
