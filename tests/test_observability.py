"""The telemetry plane: registry, exposition, tracing, accuracy, surfaces.

Covers the metric primitives and their enabled-flag gating, the Prometheus
text renderer (escaping, bucket cumulativity, a line-grammar validator), the
trace ring/file sinks, the exact-census accuracy tracker, per-backend
``telemetry_snapshot()`` shapes, ``SketchEngine.metrics()`` and the
``python -m repro stats`` CLI.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.api.cli import main as cli_main
from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.core.global_sketch import GlobalSketch
from repro.core.gsketch import GSketch
from repro.core.router import OUTLIER_PARTITION
from repro.core.windowed import WindowedGSketch
from repro.graph.batch import EdgeBatch
from repro.observability import (
    AccuracyTracker,
    MetricsRegistry,
    configure_tracing,
    get_recorder,
    get_registry,
    registry_excerpt,
    render_prometheus,
    set_enabled,
    sketch_health,
    span,
    stage_clock,
    trace_events,
)
from repro.observability import metrics as obs_metrics
from repro.observability.metrics import DEFAULT_BUCKET_BOUNDS, NOOP_CLOCK, bucket_index
from repro.sketches.countmin import CountMinSketch


@pytest.fixture
def telemetry():
    """Enable telemetry against a clean global registry/recorder; restore after."""
    was = obs_metrics.enabled()
    get_registry().reset()
    get_recorder().reset()
    set_enabled(True)
    yield get_registry()
    set_enabled(was)
    get_recorder().attach_sink(None)


@pytest.fixture
def disabled_telemetry():
    was = obs_metrics.enabled()
    set_enabled(False)
    yield get_registry()
    set_enabled(was)


def _tiny_stream(n=2_000, seed=3):
    from repro.datasets.zipf import zipf_stream

    return zipf_stream(n, population=64, seed=seed)


# ---------------------------------------------------------------------- #
# Metric primitives and the enable flag
# ---------------------------------------------------------------------- #
def test_counter_and_gauge_gate_on_enabled_flag(disabled_telemetry):
    registry = MetricsRegistry()
    counter = registry.counter("t_total")
    gauge = registry.gauge("t_gauge")
    counter.inc()
    gauge.inc(2.0)
    assert counter.value == 0.0  # disabled: increments are dropped
    assert gauge.value == 0.0
    gauge.set(5.0)  # set() is ungated: snapshots mirror while disabled
    assert gauge.value == 5.0
    counter.set_total(7.0)  # ungated mirror for always-on sources
    assert counter.value == 7.0
    set_enabled(True)
    try:
        counter.inc(3.0)
        gauge.inc()
    finally:
        set_enabled(False)
    assert counter.value == 10.0
    assert gauge.value == 6.0


def test_histogram_buckets_and_quantiles(telemetry):
    registry = MetricsRegistry()
    histogram = registry.histogram("t_seconds")
    histogram.observe(3e-6)  # lands in the (2µs, 4µs] bucket
    histogram.observe(3e-6)
    histogram.observe(100.0)  # beyond the last bound: +Inf bucket
    assert histogram.count == 3
    assert histogram.sum == pytest.approx(100.000006)
    cumulative = histogram.cumulative_buckets()
    assert cumulative[-1] == (float("inf"), 3)
    index = bucket_index(DEFAULT_BUCKET_BOUNDS, 3e-6)
    assert DEFAULT_BUCKET_BOUNDS[index] == pytest.approx(4e-6)
    assert histogram.quantile(0.5) == pytest.approx(4e-6)
    assert histogram.quantile(0.99) == float("inf")
    assert histogram.mean == pytest.approx(100.000006 / 3)


def test_registry_get_or_create_and_type_conflict():
    registry = MetricsRegistry()
    a = registry.counter("x_total", labels={"stage": "route"})
    b = registry.counter("x_total", labels={"stage": "route"})
    c = registry.counter("x_total", labels={"stage": "apply"})
    assert a is b and a is not c
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("x_total")


def test_registry_reset_keeps_handles_connected(telemetry):
    registry = MetricsRegistry()
    counter = registry.counter("y_total")
    histogram = registry.histogram("y_seconds")
    counter.inc(4.0)
    histogram.observe(0.5)
    registry.reset()
    assert counter.value == 0.0
    assert histogram.count == 0
    counter.inc()  # the import-time handle must still feed the registry
    histogram.observe(0.25)
    snapshot = {entry["name"]: entry for entry in registry.snapshot()}
    assert snapshot["y_total"]["value"] == 1.0
    assert snapshot["y_seconds"]["count"] == 1


# ---------------------------------------------------------------------- #
# Prometheus exposition
# ---------------------------------------------------------------------- #
#: One metric line: name{labels} value — labels optional, value a float,
#: +/-Inf or NaN.  Comment lines are # HELP/# TYPE.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$"
)
_COMMENT_LINE = re.compile(
    r"^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram))$"
)


def _validate_exposition(text: str) -> None:
    assert text.endswith("\n")
    for line in text.rstrip("\n").splitlines():
        if line.startswith("#"):
            assert _COMMENT_LINE.match(line), f"bad comment line: {line!r}"
        else:
            assert _SAMPLE_LINE.match(line), f"bad sample line: {line!r}"


def test_prometheus_renders_valid_lines(telemetry):
    registry = MetricsRegistry()
    registry.counter("c_total", "a counter", labels={"backend": "gsketch"}).inc(2)
    registry.gauge("g_ratio", "a gauge").set(0.5)
    registry.histogram("h_seconds", "a histogram").observe(1e-5)
    text = render_prometheus(registry)
    _validate_exposition(text)
    assert '# TYPE c_total counter' in text
    assert 'c_total{backend="gsketch"} 2' in text
    assert "# HELP g_ratio a gauge" in text


def test_prometheus_escapes_label_values(telemetry):
    registry = MetricsRegistry()
    registry.counter(
        "esc_total", labels={"path": 'a\\b"c\nd'}
    ).inc()
    text = render_prometheus(registry)
    assert 'path="a\\\\b\\"c\\nd"' in text
    _validate_exposition(text)


def test_prometheus_histogram_buckets_are_cumulative(telemetry):
    registry = MetricsRegistry()
    histogram = registry.histogram("lat_seconds")
    for value in (1.5e-6, 3e-6, 3e-6, 1e3):
        histogram.observe(value)
    text = render_prometheus(registry)
    bucket_counts = [
        int(match.group(2))
        for match in re.finditer(r'lat_seconds_bucket\{le="([^"]+)"\} (\d+)', text)
    ]
    assert bucket_counts == sorted(bucket_counts)  # monotone non-decreasing
    assert bucket_counts[-1] == 4  # +Inf covers every observation
    assert 'le="+Inf"' in text
    assert "lat_seconds_count 4" in text
    assert re.search(r"lat_seconds_sum \d", text)


def test_registry_excerpt_filters_and_compacts(telemetry):
    registry = MetricsRegistry()
    registry.counter("repro_ingest_batches_total").inc()
    registry.histogram("repro_ingest_stage_seconds").observe(0.1)
    registry.counter("repro_query_batches_total").inc()
    entries = registry_excerpt(("repro_ingest_",), registry)
    names = {entry["name"] for entry in entries}
    assert names == {"repro_ingest_batches_total", "repro_ingest_stage_seconds"}
    assert all("buckets" not in entry for entry in entries)


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #
def test_span_and_stage_clock_noop_when_disabled(disabled_telemetry):
    assert span("ingest", "apply") is NOOP_CLOCK
    assert stage_clock("ingest", {}) is NOOP_CLOCK
    with span("ingest", "apply"):
        pass
    assert trace_events() == []


def test_span_records_event_and_histogram(telemetry):
    registry = MetricsRegistry()
    histogram = registry.histogram("sp_seconds")
    get_recorder().reset()
    with span("query", "gather", histogram, executor="shared"):
        pass
    events = trace_events()
    assert len(events) == 1
    assert events[0]["plane"] == "query"
    assert events[0]["stage"] == "gather"
    assert events[0]["executor"] == "shared"
    assert events[0]["seconds"] >= 0.0
    assert histogram.count == 1


def test_trace_ring_bounds_and_counts_drops(telemetry):
    recorder = get_recorder()
    recorder.reset(ring_size=4)
    for index in range(6):
        recorder.record("ingest", f"s{index}", 0.0)
    events = recorder.events()
    assert len(events) == 4
    assert events[0]["stage"] == "s2"  # oldest two evicted
    assert recorder.dropped == 2


def test_trace_file_sink_writes_json_lines(telemetry, tmp_path):
    path = tmp_path / "trace.jsonl"
    configure_tracing(str(path))
    with span("build", "split"):
        pass
    get_recorder().flush()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines and lines[-1]["plane"] == "build"
    assert lines[-1]["stage"] == "split"
    configure_tracing(None)


# ---------------------------------------------------------------------- #
# Accuracy tracker
# ---------------------------------------------------------------------- #
def test_accuracy_tracker_counts_exactly():
    rng = np.random.default_rng(5)
    edges = [(int(s), int(t)) for s, t in rng.integers(0, 12, size=(600, 2))]
    truth: dict = {}
    tracker = AccuracyTracker(capacity=1_000)  # room for every distinct key
    for start in range(0, len(edges), 100):
        chunk = edges[start : start + 100]
        tracker.observe_batch(
            EdgeBatch.from_arrays(
                np.asarray([s for s, _ in chunk], dtype=np.int64),
                np.asarray([t for _, t in chunk], dtype=np.int64),
            )
        )
        for key in chunk:
            truth[key] = truth.get(key, 0.0) + 1.0
    assert tracker.samples == len(truth)
    assert tracker.elements_observed == len(edges)
    assert tracker.tracked_mass == pytest.approx(sum(truth.values()))
    # Replay through an exact "estimator": errors must be zero.
    lookup = dict(truth)

    class Exact:
        def query_edges(self, keys):
            return [lookup[tuple(k)] for k in keys]

        def confidence_batch(self, keys):
            from repro.core.estimator import ConfidenceInterval

            return [
                ConfidenceInterval(lookup[tuple(k)], 0.5, 0.01) for k in keys
            ]

    report = tracker.report(Exact())
    assert report["mean_error"] == 0.0
    assert report["bound_violations"] == 0
    assert report["underestimates"] == 0


def test_accuracy_tracker_caps_admission():
    tracker = AccuracyTracker(capacity=8)
    batch = EdgeBatch.from_arrays(
        np.arange(32, dtype=np.int64), np.arange(1, 33, dtype=np.int64)
    )
    tracker.observe_batch(batch)
    assert tracker.samples == 8
    tracker.observe_batch(batch)  # steady state: tracked keys keep counting
    assert tracker.samples == 8
    assert tracker.tracked_mass == pytest.approx(16.0)


def test_accuracy_tracker_report_against_real_sketch():
    stream = _tiny_stream()
    estimator = GlobalSketch(GSketchConfig(total_cells=4_000, depth=4, seed=7))
    tracker = AccuracyTracker(capacity=256)
    batch = stream.to_batch()
    tracker.observe_batch(batch)
    estimator.ingest_batch(batch)
    report = tracker.report(estimator)
    assert report["samples"] > 0
    # Count-Min never underestimates, and truth here covers the full stream.
    assert report["underestimates"] == 0
    assert report["mean_error"] >= 0.0
    assert 0.0 <= report["bound_violation_ratio"] <= 1.0


def test_accuracy_tracker_empty_report_shape():
    report = AccuracyTracker().report(estimator=None)
    assert report["samples"] == 0
    assert report["bound_violation_ratio"] == 0.0


# ---------------------------------------------------------------------- #
# Health and per-backend snapshots
# ---------------------------------------------------------------------- #
def test_sketch_health_summary():
    sketch = CountMinSketch(width=50, depth=4, seed=1)
    keys = np.arange(10, dtype=np.uint64)
    sketch.update_batch(keys, np.full(10, 2.0))
    health = sketch_health(sketch)
    assert health["cells"] == 200
    assert 0.0 < health["fill_ratio"] <= 1.0
    assert health["total_count"] == pytest.approx(20.0)
    assert health["max_cell"] >= 2.0
    assert health["error_bound"] > 0.0


def test_telemetry_snapshot_shapes_per_backend(zipf_stream, zipf_sample, small_config):
    gsketch = GSketch.build(zipf_sample, small_config)
    gsketch.process(zipf_stream)
    snapshot = gsketch.telemetry_snapshot()
    assert snapshot["backend"] == "gsketch"
    assert snapshot["elements_processed"] == len(zipf_stream)
    partitions = {table["partition"] for table in snapshot["tables"]}
    assert OUTLIER_PARTITION in partitions
    # Batch ingest writes through the plan's arena, so it compiled the plan.
    assert snapshot["plan"]["compiled"] is True
    assert snapshot["plan"]["stale"] is True
    gsketch.query_edges(sorted(zipf_stream.distinct_edges())[:4])
    assert gsketch.telemetry_snapshot()["plan"]["stale"] is False

    baseline = GlobalSketch(small_config)
    baseline.process(zipf_stream)
    snapshot = baseline.telemetry_snapshot()
    assert snapshot["backend"] == "global"
    assert len(snapshot["tables"]) == 1

    windowed = WindowedGSketch(
        small_config, window_length=len(zipf_stream) / 3.0, sample_size=200, seed=7
    )
    windowed.process(zipf_stream)
    snapshot = windowed.telemetry_snapshot()
    assert snapshot["backend"] == "windowed"
    assert snapshot["num_windows"] == len(snapshot["windows"])
    assert all("tables" in window for window in snapshot["windows"])


# ---------------------------------------------------------------------- #
# Instrumented hot paths
# ---------------------------------------------------------------------- #
def test_ingest_and_query_stages_recorded(telemetry):
    stream = _tiny_stream()
    engine = (
        SketchEngine.builder()
        .config(total_cells=4_000, depth=4, seed=7)
        .dataset(stream)
        .build()
    )
    engine.ingest(stream, batch_size=512)
    keys = sorted(stream.distinct_edges())[:32]
    engine.frozen()
    engine.estimator.query_edges(keys)
    snapshot = {
        (entry["name"], tuple(sorted(entry["labels"].items()))): entry
        for entry in get_registry().snapshot()
    }
    for stage in ("route", "apply"):
        entry = snapshot[("repro_ingest_stage_seconds", (("stage", stage),))]
        assert entry["count"] > 0
    for stage in ("lexsort", "split", "materialize"):
        entry = snapshot[("repro_build_stage_seconds", (("stage", stage),))]
        assert entry["count"] > 0
    for stage in ("hash", "route", "gather"):
        entry = snapshot[("repro_query_stage_seconds", (("stage", stage),))]
        assert entry["count"] > 0
    assert snapshot[("repro_ingest_elements_total", ())]["value"] == len(stream)
    assert snapshot[("repro_query_plan_seconds", ())]["count"] > 0


def test_disabled_telemetry_records_nothing(disabled_telemetry):
    get_registry().reset()
    stream = _tiny_stream()
    engine = (
        SketchEngine.builder()
        .config(total_cells=4_000, depth=4, seed=7)
        .dataset(stream)
        .build()
    )
    engine.ingest(stream, batch_size=512)
    engine.estimator.query_edges(sorted(stream.distinct_edges())[:8])
    for entry in get_registry().snapshot():
        if entry["name"].startswith(("repro_ingest_", "repro_query_", "repro_build_")):
            assert entry.get("count", entry.get("value")) == 0


def test_engine_metrics_document(telemetry):
    stream = _tiny_stream()
    engine = (
        SketchEngine.builder()
        .config(total_cells=4_000, depth=4, seed=7)
        .dataset(stream)
        .build()
    )
    engine.ingest(stream, batch_size=512)
    keys = sorted(stream.distinct_edges())[:4]
    engine.estimator.query_edges(keys)
    engine.estimator.query_edges(keys)  # hot-cache hit
    document = engine.metrics()
    assert document["backend"] == "gsketch"
    assert document["accuracy"]["samples"] > 0
    assert document["accuracy"]["underestimates"] == 0
    assert document["health"]["hot_cache"]["hits"] >= 1
    names = {entry["name"] for entry in document["metrics"]}
    # The acceptance surface: stage timings, query latency, hot-cache
    # counters, fill ratios and the accuracy summary all in one registry.
    assert {
        "repro_ingest_stage_seconds",
        "repro_query_plan_seconds",
        "repro_hot_cache_hits_total",
        "repro_sketch_fill_ratio",
        "repro_accuracy_mean_error",
        "repro_accuracy_bound_violation_ratio",
    } <= names
    text = render_prometheus()
    _validate_exposition(text)
    assert "repro_sketch_fill_ratio{" in text
    assert "repro_accuracy_mean_error{" in text


def test_cli_stats_json(capsys):
    was = obs_metrics.enabled()
    try:
        exit_code = cli_main(
            [
                "stats",
                "--dataset",
                "zipf",
                "--edges",
                "2000",
                "--cells",
                "4000",
                "--queries",
                "32",
            ]
        )
    finally:
        set_enabled(was)
    assert exit_code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["backend"] == "gsketch"
    assert document["accuracy"]["samples"] > 0
    assert document["health"]["hot_cache"]["hits"] > 0
    names = {entry["name"] for entry in document["metrics"]}
    assert "repro_ingest_stage_seconds" in names
    assert "repro_query_plan_seconds" in names


def test_cli_stats_prometheus(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    was = obs_metrics.enabled()
    try:
        exit_code = cli_main(
            [
                "stats",
                "--dataset",
                "zipf",
                "--edges",
                "2000",
                "--cells",
                "4000",
                "--queries",
                "32",
                "--format",
                "prometheus",
                "--trace-file",
                str(trace_path),
            ]
        )
    finally:
        set_enabled(was)
        configure_tracing(None)
    assert exit_code == 0
    text = capsys.readouterr().out
    _validate_exposition(text)
    for family in (
        "repro_ingest_stage_seconds",
        "repro_query_plan_seconds",
        "repro_hot_cache_hits_total",
        "repro_sketch_fill_ratio",
        "repro_accuracy_mean_error",
    ):
        assert family in text
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert any(event["plane"] == "ingest" for event in events)


# ---------------------------------------------------------------------- #
# Overhead bench plumbing (numbers gated by experiments/overhead_bench.py)
# ---------------------------------------------------------------------- #
def test_overhead_bench_smoke():
    from repro.experiments.overhead_bench import run_overhead_bench

    report = run_overhead_bench(
        num_edges=2_000,
        batch_size=512,
        query_batch=64,
        num_queries=256,
        rounds=1,
        total_cells=4_000,
        sample_size=300,
        calibration_iterations=2_000,
    )
    assert report["disabled_overhead_ratio"] >= 0.0
    assert report["hook_counts"]["ingest_batches"] == 4
    assert set(report["primitives_ns"]) == {
        "gated_check",
        "observe",
        "stage_clock",
        "lap",
    }
    assert not obs_metrics.enabled()  # the bench restores the disabled state
