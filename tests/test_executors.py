"""Batch execution over the shared arena: bit-exact parity and lifecycle.

Every partition sketch of a :class:`~repro.core.gsketch.GSketch` keeps its
Count-Min table in one engine-wide arena, and the batch kernel
(:func:`~repro.sketches.arena.apply_batch`) executes each ingest batch against
that shared memory in process.  The acceptance bar is bit-exact state versus
per-edge :meth:`~repro.core.gsketch.GSketch.update` ingestion — counter
tables, totals and update counts alike — for unit, fractional and
conservative-update streams, across interleaved queries and snapshots, engine
close and snapshot restore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.core.gsketch import GSketch
from repro.graph.sampling import reservoir_sample


def _per_edge(sample, config, stream, prefix=None) -> GSketch:
    gsketch = GSketch.build(sample, config, stream_size_hint=len(stream))
    for edge in stream if prefix is None else stream.prefix(prefix):
        gsketch.update(edge.source, edge.target, edge.frequency)
    return gsketch


def _assert_matches(engine: GSketch, gsketch: GSketch) -> None:
    """Table-, total- and count-exact equality with a per-edge sketch."""
    assert engine.elements_processed == gsketch.elements_processed
    assert engine.outlier_elements == gsketch.outlier_elements
    pairs = list(zip(engine.partitions, gsketch.partitions))
    pairs.append((engine.outlier_sketch, gsketch.outlier_sketch))
    for index, (left, right) in enumerate(pairs):
        assert np.array_equal(left.table, right.table), f"slot {index}: tables diverge"
        assert left.total_count == right.total_count
        assert left.update_count == right.update_count


@pytest.fixture(scope="module")
def reference(zipf_stream, zipf_sample, small_config):
    return _per_edge(zipf_sample, small_config, zipf_stream)


class TestSharedMemoryParity:
    def test_interleaved_ingest_query_snapshot_bit_exact(
        self, zipf_stream, zipf_sample, small_config
    ):
        """Ingest → query → snapshot → ingest again: state stays bit-exact."""
        half = len(zipf_stream) // 2
        edges = sorted(zipf_stream.distinct_edges())[:150]
        engine = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
        engine.process(zipf_stream.prefix(half), batch_size=512)
        midway = _per_edge(zipf_sample, small_config, zipf_stream, prefix=half)
        assert engine.query_edges(edges) == midway.query_edges(edges)
        _assert_matches(GSketch.from_state(engine.state_dict()), midway)

        engine.process(zipf_stream.suffix(half), batch_size=512)
        whole = _per_edge(zipf_sample, small_config, zipf_stream)
        assert engine.query_edges(edges) == whole.query_edges(edges)
        _assert_matches(engine, whole)
        assert engine.total_frequency == whole.total_frequency

    def test_fractional_frequencies_bit_exact(self, weighted_stream, small_config):
        """Float (non-integral) frequencies keep bit-exact tables and totals."""
        sample = reservoir_sample(weighted_stream, 400, seed=3)
        engine = GSketch.build(sample, small_config, stream_size_hint=len(weighted_stream))
        engine.process(weighted_stream, batch_size=256)
        reference = _per_edge(sample, small_config, weighted_stream)
        _assert_matches(engine, reference)
        assert engine.total_frequency == reference.total_frequency

    def test_conservative_updates_bit_exact(self, zipf_stream, zipf_sample):
        """Conservative update keeps its per-element rule inside the kernel."""
        config = GSketchConfig(
            total_cells=4_000, depth=3, seed=11, conservative_updates=True
        )
        prefix = zipf_stream.prefix(1_500)
        engine = GSketch.build(zipf_sample, config, stream_size_hint=len(prefix))
        engine.process(prefix, batch_size=256)
        _assert_matches(engine, _per_edge(zipf_sample, config, prefix))


class TestSharedMemoryLifecycle:
    def test_restart_after_close(self, zipf_stream, zipf_sample, small_config, reference):
        """Ingest resumes after ``SketchEngine.close()``; close is idempotent."""
        half = len(zipf_stream) // 2
        engine = (
            SketchEngine.builder()
            .config(small_config)
            .sample(zipf_sample)
            .stream_size_hint(len(zipf_stream))
            .build()
        )
        engine.ingest(zipf_stream.prefix(half), batch_size=1024)
        engine.close()
        engine.ingest(zipf_stream.suffix(half), batch_size=1024)
        _assert_matches(engine.estimator, reference)
        engine.close()
        engine.close()

    def test_snapshot_restore_resumes_exactly(
        self, zipf_stream, zipf_sample, small_config, reference
    ):
        """A mid-stream snapshot restores to a bit-exact resume."""
        half = len(zipf_stream) // 2
        engine = GSketch.build(zipf_sample, small_config, stream_size_hint=len(zipf_stream))
        engine.process(zipf_stream.prefix(half), batch_size=512)
        resumed = GSketch.from_state(engine.state_dict())
        resumed.process(zipf_stream.suffix(half), batch_size=512)
        _assert_matches(resumed, reference)
