"""GraphStream construction-time validation and batched access."""

from __future__ import annotations


import numpy as np
import pytest

from repro.graph.batch import EdgeBatch, label_column
from repro.graph.edge import StreamEdge
from repro.graph.stream import GraphStream


class TestFrequencyValidation:
    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError, match="invalid frequency"):
            GraphStream([StreamEdge(1, 2, 0.0, -1.0)])

    def test_nan_frequency_rejected(self):
        with pytest.raises(ValueError, match="invalid frequency"):
            GraphStream([StreamEdge(1, 2, 0.0, float("nan"))])

    def test_infinite_frequency_rejected(self):
        with pytest.raises(ValueError, match="invalid frequency"):
            GraphStream([StreamEdge(1, 2, 0.0, float("inf"))])

    def test_non_finite_timestamp_rejected(self):
        with pytest.raises(ValueError, match="timestamp"):
            GraphStream([StreamEdge(1, 2, float("nan"), 1.0)])

    def test_error_message_names_offending_element(self):
        with pytest.raises(ValueError, match=r"element 1 \('a', 'b'\)"):
            GraphStream([StreamEdge(1, 2), StreamEdge("a", "b", 0.0, -3.0)])

    def test_zero_frequency_allowed(self):
        stream = GraphStream([StreamEdge(1, 2, 0.0, 0.0)])
        assert stream.total_frequency() == 0.0

    def test_from_tuples_validates_too(self):
        with pytest.raises(ValueError):
            GraphStream.from_tuples([(1, 2, 0.0, -5.0)])


class TestIterBatches:
    def test_batches_cover_stream_in_order(self, zipf_stream):
        rebuilt = []
        for batch in zipf_stream.iter_batches(700):
            assert isinstance(batch, EdgeBatch)
            assert len(batch) <= 700
            rebuilt.extend(batch.iter_edges())
        assert rebuilt == list(zipf_stream)

    def test_batch_size_must_be_positive(self, zipf_stream):
        with pytest.raises(ValueError):
            next(zipf_stream.iter_batches(0))

    def test_integer_streams_columnarize(self, zipf_stream):
        batch = next(zipf_stream.iter_batches(100))
        assert batch.is_integer_labelled
        assert batch.sources.dtype == np.int64
        assert batch.frequencies.dtype == np.float64

    def test_string_streams_fall_back_to_object_columns(self):
        stream = GraphStream.from_pairs([("a", "b"), ("c", "d")])
        batch = stream.to_batch()
        assert not batch.is_integer_labelled
        assert batch.sources.dtype == object

    def test_mixed_labels_do_not_coerce(self):
        stream = GraphStream.from_pairs([(1, 2), ("a", 3)])
        batch = stream.to_batch()
        assert not batch.is_integer_labelled
        # Bools hash as themselves, not as 0/1: one among ints keeps the
        # whole column as objects.
        with_bool = label_column([1, True, 3])
        assert with_bool.dtype == object
        assert with_bool[1] is True
        assert label_column([np.int64(4), np.int64(5)]).dtype == np.int64
        oversized = label_column([1, 2**63])
        assert oversized.dtype == object
        assert oversized[1] == 2**63

    def test_hashed_keys_match_scalar_canonicalization(self, zipf_stream):
        from repro.sketches.hashing import key_to_uint64

        batch = next(zipf_stream.iter_batches(256))
        keys = batch.hashed_keys()
        for i, edge in enumerate(batch.iter_edges()):
            assert int(keys[i]) == key_to_uint64((edge.source, edge.target))

    def test_to_batch_is_cached(self, zipf_stream):
        assert zipf_stream.to_batch() is zipf_stream.to_batch()

    def test_empty_stream_yields_no_batches(self):
        assert list(GraphStream([]).iter_batches(10)) == []
