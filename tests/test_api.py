"""The unified estimator API: Protocol conformance, the SketchEngine facade,
typed query/result objects, and the versioned snapshot format.

The central suite here is the parametrized lifecycle test: the *same*
build → ingest → query → snapshot → restore scenario runs against all three
backends purely through the :class:`repro.api.Estimator` Protocol surface.
"""

from __future__ import annotations

import pickle

import pytest

import repro.api as api
from repro.api import (
    BACKEND_CLASSES,
    EdgeQuery,
    EngineError,
    Estimator,
    Provenance,
    SketchEngine,
    SnapshotError,
    SubgraphQuery,
    WindowQuery,
    load_snapshot,
)
from repro.core.config import GSketchConfig
from repro.core.global_sketch import GlobalSketch
from repro.core.router import OUTLIER_PARTITION
from repro.graph.edge import StreamEdge
from repro.observability import metrics as obs_metrics

#: Every backend, as "build a fresh engine from (stream, sample, config)".
BACKEND_BUILDERS = {
    "gsketch": lambda stream, sample, config: (
        SketchEngine.builder()
        .config(config)
        .sample(sample)
        .stream_size_hint(len(stream))
        .build()
    ),
    "global": lambda stream, sample, config: SketchEngine.builder().config(config).build(),
    "windowed": lambda stream, sample, config: (
        SketchEngine.builder().config(config).windowed(2_000.0, sample_size=800).build()
    ),
}


def query_keys(stream, count: int = 50):
    """Deterministic query block: frequent edges plus a guaranteed outlier."""
    keys = sorted(stream.distinct_edges())[:count]
    keys.append(("never-seen-source", "never-seen-target"))
    return keys


# ---------------------------------------------------------------------- #
# The one scenario, all three backends, through the Protocol
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", sorted(BACKEND_BUILDERS))
def test_lifecycle_roundtrip_through_protocol(
    backend, zipf_stream, zipf_sample, small_config, tmp_path
):
    engine = BACKEND_BUILDERS[backend](zipf_stream, zipf_sample, small_config)
    assert engine.backend == backend
    estimator = engine.estimator
    assert isinstance(estimator, Estimator)

    # -- ingest in two blocks through the facade ----------------------- #
    half = len(zipf_stream) // 2
    ingested = engine.ingest(zipf_stream.prefix(half))
    ingested += engine.ingest(zipf_stream.suffix(half))
    assert ingested == len(zipf_stream)
    assert engine.elements_processed == len(zipf_stream)

    # -- batch queries are aligned and self-consistent ------------------ #
    keys = query_keys(zipf_stream)
    estimates = estimator.query_edges(keys)
    assert len(estimates) == len(keys)
    intervals = estimator.confidence_batch(keys)
    assert [interval.estimate for interval in intervals] == estimates
    assert all(interval.lower <= interval.upper for interval in intervals)

    subgraph = SubgraphQuery.from_edges(keys[:10])
    assert estimator.query_subgraph(subgraph) == pytest.approx(sum(estimates[:10]))

    # -- snapshot → restore answers bit-identically --------------------- #
    path = tmp_path / f"{backend}.snap"
    engine.save(path)
    restored = SketchEngine.load(path)
    assert restored.backend == backend
    assert isinstance(restored.estimator, BACKEND_CLASSES[backend])
    assert restored.estimator.query_edges(keys) == estimates
    assert restored.estimator.confidence_batch(keys) == intervals
    assert restored.elements_processed == engine.elements_processed
    assert restored.estimator.query_subgraph(subgraph) == estimator.query_subgraph(subgraph)
    engine.close()
    restored.close()


@pytest.mark.parametrize("frequency", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("backend", sorted(BACKEND_BUILDERS))
def test_invalid_frequency_batch_is_rejected_whole(
    backend, frequency, zipf_stream, zipf_sample, small_config
):
    """One bad frequency rejects the whole batch before anything moves: the
    counters, the element count, the generation and the accuracy census."""
    engine = BACKEND_BUILDERS[backend](zipf_stream, zipf_sample, small_config)
    was_enabled = obs_metrics.enabled()
    obs_metrics.set_enabled(True)
    try:
        engine.ingest(zipf_stream)
        estimator = engine.estimator
        keys = query_keys(zipf_stream)

        def state():
            return (
                estimator.query_edges_direct(keys),
                engine.elements_processed,
                getattr(estimator, "ingest_generation", None),
                engine.accuracy_tracker.elements_observed,
            )

        before = state()
        stamp = float(len(zipf_stream))
        batch = [
            StreamEdge(keys[0][0], keys[0][1], stamp, 5.0),
            StreamEdge(keys[1][0], keys[1][1], stamp, frequency),
        ]
        with pytest.raises(ValueError, match="finite and >= 0"):
            engine.ingest_batch(batch)
        assert state() == before
    finally:
        obs_metrics.set_enabled(was_enabled)
        engine.close()


@pytest.mark.parametrize("backend", sorted(BACKEND_BUILDERS))
def test_restored_engine_continues_ingesting_identically(
    backend, zipf_stream, zipf_sample, small_config, tmp_path
):
    """A restore is a true resume: ingesting the tail into the original and
    into the restored engine produces bit-identical answers (including the
    windowed backend's reservoir RNG state)."""
    engine = BACKEND_BUILDERS[backend](zipf_stream, zipf_sample, small_config)
    half = len(zipf_stream) // 2
    engine.ingest(zipf_stream.prefix(half))
    path = tmp_path / f"{backend}-mid.snap"
    engine.save(path)
    restored = SketchEngine.load(path)

    tail = zipf_stream.suffix(half)
    engine.ingest(tail)
    restored.ingest(tail)

    keys = query_keys(zipf_stream)
    assert restored.estimator.query_edges(keys) == engine.estimator.query_edges(keys)
    assert restored.elements_processed == engine.elements_processed
    engine.close()
    restored.close()


# ---------------------------------------------------------------------- #
# Backend parity details
# ---------------------------------------------------------------------- #
def test_global_query_edges_matches_scalar_path(zipf_stream, small_config):
    baseline = GlobalSketch(small_config)
    baseline.process(zipf_stream)
    keys = query_keys(zipf_stream, count=200)
    assert baseline.query_edges(keys) == [baseline.query_edge(key) for key in keys]
    intervals = baseline.confidence_batch(keys)
    assert intervals == [baseline.confidence(key) for key in keys]


def test_windowed_lifetime_batch_queries_match_scalar(zipf_stream, small_config):
    engine = SketchEngine.builder().config(small_config).windowed(1_500.0, sample_size=500).build()
    engine.ingest(zipf_stream)
    windowed = engine.estimator
    assert windowed.num_windows >= 2
    keys = query_keys(zipf_stream, count=40)
    assert windowed.query_edges(keys) == [windowed.query_edge_lifetime(key) for key in keys]
    intervals = windowed.confidence_batch(keys)
    assert [interval.estimate for interval in intervals] == windowed.query_edges(keys)
    assert all(interval.failure_probability <= 1.0 for interval in intervals)


# ---------------------------------------------------------------------- #
# Typed results and dispatch
# ---------------------------------------------------------------------- #
def test_estimates_carry_partition_provenance(zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    known = sorted(zipf_stream.distinct_edges())[0]
    unknown = ("never-seen-source", "x")

    estimate = engine.query(EdgeQuery(*known))
    assert estimate.provenance.backend == "gsketch"
    assert estimate.provenance.partition is not None
    assert estimate.interval is not None
    assert estimate.value == estimate.interval.estimate
    assert float(estimate) == estimate.value

    outlier = engine.query(unknown)  # bare key shorthand
    assert outlier.provenance.outlier is True
    assert outlier.provenance.partition == OUTLIER_PARTITION

    # Mixed-type key blocks must not coerce labels: the int-labelled edge
    # keeps its real partition even when routed alongside a string label.
    mixed = engine.query([known, unknown])
    assert mixed[0].provenance.partition == estimate.provenance.partition
    assert mixed[0].provenance.outlier is False
    assert mixed[1].provenance.outlier is True

    document = estimate.to_dict()
    assert document["backend"] == "gsketch"
    assert "interval" in document and document["interval"]["lower"] >= 0.0


def _scalar_provenance(engine, key):
    """The provenance the scalar routing path assigns to ``key``."""
    estimator = engine.estimator
    generation = estimator.ingest_generation
    if engine.backend != "gsketch":
        return Provenance(backend=engine.backend, generation=generation)
    partition = estimator.router.partition_of(key[0])
    return Provenance(
        backend="gsketch",
        partition=partition,
        outlier=partition == OUTLIER_PARTITION,
        generation=generation,
    )


def _document(interval, provenance):
    """``Estimate.to_dict()`` of an edge answer, spelled out field by field."""
    document = {"value": interval.estimate, "backend": provenance.backend}
    if provenance.partition is not None:
        document["partition"] = provenance.partition
    if provenance.outlier is not None:
        document["outlier"] = provenance.outlier
    document["generation"] = provenance.generation
    document["interval"] = {
        "lower": interval.lower,
        "upper": interval.upper,
        "additive_bound": interval.additive_bound,
        "failure_probability": interval.failure_probability,
    }
    return document


@pytest.mark.parametrize("backend", sorted(BACKEND_BUILDERS))
def test_columnar_edge_answers_match_the_scalar_path(
    backend, zipf_stream, zipf_sample, small_config
):
    engine = BACKEND_BUILDERS[backend](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    estimator = engine.estimator
    keys = query_keys(zipf_stream, count=40)
    subgraph = SubgraphQuery.from_edges(keys[:5])
    window = WindowQuery(keys[0][0], keys[0][1], 0.0, 3_000.0)
    mixed = [EdgeQuery(*keys[0]), keys[1], subgraph, EdgeQuery(*keys[2]), keys[-1]]
    mixed_keys = [keys[0], keys[1], keys[2], keys[-1]]
    if backend == "windowed":
        mixed.insert(3, window)

    batches = {
        "edge-queries": (engine.query([EdgeQuery(*key) for key in keys]), keys),
        "bare-keys": (engine.query(list(keys)), keys),
        "mixed": (
            [a for a in engine.query(mixed) if a.interval is not None],
            mixed_keys,
        ),
    }
    for name, (answers, answered_keys) in batches.items():
        assert len(answers) == len(answered_keys), name
        for answer, key in zip(answers, answered_keys):
            interval = estimator.confidence(key)
            provenance = _scalar_provenance(engine, key)
            assert answer.value == interval.estimate, (name, key)
            assert answer.interval == interval, (name, key)
            assert answer.provenance == provenance, (name, key)
            assert answer.to_dict() == _document(interval, provenance), (name, key)
        if backend == "gsketch":
            direct, partitions = estimator.confidence_batch_direct(answered_keys)
            assert [a.interval for a in answers] == direct, name
            assert [a.provenance.partition for a in answers] == partitions, name

    mixed_answers = engine.query(mixed)
    subgraph_answer = mixed_answers[2]
    assert subgraph_answer.value == estimator.query_subgraph(subgraph)
    assert subgraph_answer.interval is None
    assert subgraph_answer.provenance == Provenance(backend=backend)
    if backend == "windowed":
        window_answer = mixed_answers[3]
        assert window_answer.value == estimator.query_edge(window.key, 0.0, 3_000.0)
        assert window_answer.interval is None
        assert window_answer.provenance == Provenance(backend="windowed")


def test_estimate_contract(zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    edges = sorted(zipf_stream.distinct_edges())
    first = edges[0]
    estimate = engine.query(EdgeQuery(*first))
    again = engine.query([first])[0]
    # The first edge whose value differs; neighbours in label order may
    # legitimately share a value, partition and bound.
    second = next(edge for edge in edges if engine.query([edge])[0].value != estimate.value)
    other = engine.query(EdgeQuery(*second))

    assert estimate == again and hash(estimate) == hash(again)
    assert estimate != other
    assert len({estimate, again, other}) == 2
    assert hash(estimate) == hash((estimate.value, estimate.interval, estimate.provenance))
    assert float(estimate) == estimate.value
    assert repr(estimate) == (
        f"Estimate(value={estimate.value!r}, interval={estimate.interval!r}, "
        f"provenance={estimate.provenance!r})"
    )
    for attribute in ("value", "interval", "provenance", "extra"):
        with pytest.raises(AttributeError):
            setattr(estimate, attribute, None)
    assert estimate == again  # nothing moved

    subgraph = engine.query(SubgraphQuery.from_edges([first, second]))
    assert subgraph.interval is None
    assert "interval" not in subgraph.to_dict()
    assert repr(subgraph) == (
        f"Estimate(value={subgraph.value!r}, interval=None, "
        f"provenance={subgraph.provenance!r})"
    )
    assert subgraph != estimate


def test_window_query_dispatch(zipf_stream, small_config):
    engine = SketchEngine.builder().config(small_config).windowed(2_000.0).build()
    engine.ingest(zipf_stream)
    key = sorted(zipf_stream.distinct_edges())[0]

    whole = engine.query(WindowQuery(key[0], key[1], 0.0, float(len(zipf_stream))))
    assert whole.value == pytest.approx(engine.estimator.query_edge_lifetime(key))
    assert whole.provenance.backend == "windowed"

    # EdgeQuery with an attached window lifts to the same path.
    lifted = engine.query(EdgeQuery(key[0], key[1], window=(0.0, float(len(zipf_stream)))))
    assert lifted.value == whole.value
    # ... also when a batch holds nothing but windowed EdgeQuerys.
    part = engine.query(WindowQuery(key[0], key[1], 0.0, 1_000.0))
    batch = engine.query([EdgeQuery(key[0], key[1], window=(0.0, 1_000.0))] * 2)
    assert [answer.value for answer in batch] == [part.value] * 2
    assert [answer.interval for answer in batch] == [None, None]

    with pytest.raises(ValueError):
        WindowQuery(key[0], key[1], 5.0, 5.0)


def test_window_query_rejected_on_non_windowed_backend(zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    with pytest.raises(EngineError):
        engine.query(WindowQuery("a", "b", 0.0, 1.0))


def test_query_batch_mixed_shapes(zipf_stream, zipf_sample, small_config):
    engine = BACKEND_BUILDERS["gsketch"](zipf_stream, zipf_sample, small_config)
    engine.ingest(zipf_stream)
    keys = sorted(zipf_stream.distinct_edges())[:4]
    queries = [
        EdgeQuery(*keys[0]),
        keys[1],
        SubgraphQuery.from_edges(keys),
        EdgeQuery(*keys[2]),
    ]
    estimates = engine.query(queries)
    assert len(estimates) == len(queries)
    assert estimates[0].value == engine.estimator.query_edge(keys[0])
    assert estimates[2].value == pytest.approx(
        sum(engine.estimator.query_edges(keys))
    )
    # batched edge answers agree with the one-at-a-time path
    assert [estimates[0].value, estimates[1].value, estimates[3].value] == [
        engine.query(EdgeQuery(*key)).value for key in (keys[0], keys[1], keys[2])
    ]
    # Only 2-tuples are edge keys, also in a batch of nothing but tuples.
    with pytest.raises(EngineError):
        engine.query([(*keys[0], 1.0), (*keys[1], 1.0)])


# ---------------------------------------------------------------------- #
# Builder validation
# ---------------------------------------------------------------------- #
def test_builder_requires_config():
    with pytest.raises(EngineError, match="config"):
        SketchEngine.builder().build()


def test_builder_config_kwargs(zipf_sample):
    engine = (
        SketchEngine.builder()
        .config(total_cells=4_000, depth=3, seed=11)
        .sample(zipf_sample)
        .build()
    )
    assert engine.backend == "gsketch"
    assert engine.estimator.config.depth == 3
    with pytest.raises(EngineError):
        SketchEngine.builder().config(GSketchConfig(total_cells=100), depth=3)


def test_builder_variant_conflicts(zipf_sample, small_config):
    with pytest.raises(EngineError, match="sample"):
        SketchEngine.builder().config(small_config).workload(zipf_sample).build()
    with pytest.raises(EngineError, match="workload"):
        (
            SketchEngine.builder()
            .config(small_config)
            .workload(zipf_sample)
            .windowed(10.0)
            .build()
        )


def test_builder_derives_sample_from_dataset(zipf_stream, small_config):
    engine = (
        SketchEngine.builder()
        .config(small_config)
        .dataset(zipf_stream)
        .sample_size(1_000)
        .build()
    )
    assert engine.backend == "gsketch"
    assert engine.estimator.num_partitions >= 1
    # The hint defaults to the dataset length (Theorem-1 extrapolation).
    assert engine.estimator.stats is not None


def test_builder_workload_partitioning(zipf_stream, zipf_sample, small_config):
    workload = zipf_stream.prefix(800)
    engine = (
        SketchEngine.builder()
        .config(small_config)
        .sample(zipf_sample)
        .workload(workload)
        .build()
    )
    assert engine.backend == "gsketch"
    assert engine.estimator.workload_weights is not None


# ---------------------------------------------------------------------- #
# Snapshot format
# ---------------------------------------------------------------------- #
def test_snapshot_rejects_foreign_and_versioned_files(tmp_path, zipf_sample, small_config):
    garbage = tmp_path / "garbage.snap"
    with open(garbage, "wb") as handle:
        pickle.dump({"format": "something-else"}, handle)
    with pytest.raises(SnapshotError, match="not a"):
        load_snapshot(garbage)

    not_pickle = tmp_path / "notes.txt"
    not_pickle.write_text("these are not the bytes you are looking for")
    with pytest.raises(SnapshotError, match="not a readable"):
        load_snapshot(not_pickle)
    truncated = tmp_path / "empty.snap"
    truncated.write_bytes(b"")
    with pytest.raises(SnapshotError):
        load_snapshot(truncated)

    engine = SketchEngine.builder().config(small_config).sample(zipf_sample).build()
    path = engine.save(tmp_path / "ok.snap")
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    payload["version"] = 999
    future = tmp_path / "future.snap"
    with open(future, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(SnapshotError, match="version"):
        load_snapshot(future)

    payload["version"] = api.SNAPSHOT_VERSION
    payload["backend"] = "quantum"
    unknown = tmp_path / "unknown.snap"
    with open(unknown, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(SnapshotError, match="backend"):
        load_snapshot(unknown)


def test_api_exports_import_cleanly():
    for name in api.__all__:
        assert getattr(api, name) is not None, name
