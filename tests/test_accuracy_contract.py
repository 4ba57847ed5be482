"""The Count-Min accuracy contract, checked against an exact census.

Equation 1 promises, per point query, ``truth <= estimate`` always and
``estimate <= truth + e·N/w`` with probability at least ``1 - δ``, where
``δ = e^-depth``.  Every backend answers through Count-Min tables, so every
backend must keep both halves.  :class:`AccuracyTracker` counts the first
4,096 distinct edges of a seeded Zipf stream exactly and replays them
through the estimator; the observed violation rate may exceed ``δ`` only by
three binomial standard deviations of that many trials.
"""

from __future__ import annotations

import math

import pytest

from conftest import make_zipf_stream
from repro.api import SketchEngine
from repro.core.config import GSketchConfig
from repro.graph.sampling import reservoir_sample
from repro.observability.accuracy import AccuracyTracker

DEPTH = 4
TRACKED_EDGES = 4_096
BATCH = 4_096


@pytest.fixture(scope="module")
def contract_stream():
    return make_zipf_stream(num_edges=60_000, population=3_000, seed=19)


def _engine(backend, stream):
    config = GSketchConfig(total_cells=12_000, depth=DEPTH, seed=5)
    builder = SketchEngine.builder().config(config)
    if backend == "gsketch":
        builder = builder.sample(reservoir_sample(stream, 6_000, seed=3))
        builder = builder.stream_size_hint(len(stream))
    elif backend == "windowed":
        builder = builder.windowed(20_000.0, sample_size=2_000)
    return builder.build()


@pytest.mark.parametrize("backend", ["global", "gsketch", "windowed"])
def test_no_underestimate_and_eq1_violations_within_delta(backend, contract_stream):
    engine = _engine(backend, contract_stream)
    assert engine.backend == backend
    tracker = AccuracyTracker(capacity=TRACKED_EDGES)
    for batch in contract_stream.iter_batches(BATCH):
        engine.ingest_batch(batch)
        tracker.observe_batch(batch)
    report = tracker.report(engine.estimator)
    trials = report["samples"]
    assert trials == TRACKED_EDGES
    assert report["elements_observed"] == len(contract_stream)
    assert report["underestimates"] == 0
    delta = math.exp(-DEPTH)
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    assert report["bound_violation_ratio"] <= delta + slack
