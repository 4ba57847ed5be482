"""Smoke tests for the throughput, partition-build and query-bench runners."""

from __future__ import annotations

import json

from repro.experiments.build_bench import main as build_bench_main
from repro.experiments.build_bench import run_build_bench
from repro.experiments.query_bench import run_query_bench
from repro.experiments.throughput import main, run_throughput
from repro.queries.plan import HOT_CACHE_MAX_BATCH


def test_run_throughput_reports_all_modes():
    report = run_throughput(
        num_edges=1_500,
        batch_size=512,
        total_cells=4_000,
        sample_size=300,
        parity_queries=50,
    )
    assert report["parity_ok"] is True
    modes = {(row["dataset"], row["mode"]) for row in report["results"]}
    for dataset in ("rmat", "zipf"):
        assert (dataset, "per-edge") in modes
        assert (dataset, "batched") in modes
    for row in report["results"]:
        assert row["edges_per_second"] > 0
        if row["mode"] != "per-edge":
            assert row["speedup_vs_per_edge"] > 0


def test_run_build_bench_verifies_equivalence():
    report = run_build_bench(sample_sizes=(4_000,), repeats=1)
    assert report["trees_identical"] is True
    scenarios = {row["scenario"] for row in report["results"]}
    assert scenarios == {"data-only", "workload-aware"}
    for row in report["results"]:
        assert row["leaves"] >= 1
        assert row["columnar_seconds"] > 0
        assert row["scalar_seconds"] > 0


def test_build_bench_main_writes_report(tmp_path, capsys):
    output = tmp_path / "build.json"
    exit_code = build_bench_main(
        ["--quick", "--output", str(output), "--repeats", "1", "--max-seconds", "120"]
    )
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert report["trees_identical"] is True
    assert "speedup" in capsys.readouterr().out


def test_main_writes_report(tmp_path, monkeypatch, capsys):
    output = tmp_path / "bench.json"
    # Shrink the workload below even --quick for test speed.
    monkeypatch.setattr("repro.experiments.throughput.QUICK_EDGES", 800)
    exit_code = main(["--quick", "--output", str(output), "--batch-size", "256"])
    assert exit_code == 0
    report = json.loads(output.read_text())
    assert report["parity_ok"] is True
    assert report["config"]["num_edges"] == 800
    assert "edges/s" in capsys.readouterr().out


def test_run_query_bench_reports_all_backends():
    report = run_query_bench(
        num_edges=1_500,
        backends=("global", "gsketch", "windowed"),
        batch_sizes=(1, 8, 64),
        num_queries=128,
        total_cells=4_000,
        sample_size=300,
        rounds=1,
        repeats=1,
    )
    assert report["parity_ok"] is True
    rows = {(row["backend"], row["batch_size"]) for row in report["results"]}
    for backend in ("global", "gsketch", "windowed"):
        for batch_size in (1, 8, 64):
            assert (backend, batch_size) in rows
    for row in report["results"]:
        assert row["parity_ok"] is True
        assert row["direct_qps"] > 0
        assert row["plan_qps"] > 0
        assert row["speedup"] == row["plan_qps"] / row["direct_qps"]
        assert 0 <= row["memo_hits"] <= row["memo_lookups"]
        # Batches above the memo's limit are gathered from the arena.
        if row["batch_size"] > HOT_CACHE_MAX_BATCH:
            assert row["memo_lookups"] == 0
    batch_one = {
        row["backend"]: row for row in report["results"] if row["batch_size"] == 1
    }
    assert batch_one["gsketch"]["memo_hits"] > 0
    telemetry = report["telemetry"]
    assert any(
        entry["name"] == "repro_query_plan_seconds" and entry["count"] > 0
        for entry in telemetry["query_plane"]
    )
    # Batch-1 passes over a Zipf workload must produce hot-cache traffic.
    assert telemetry["hot_cache"]["gsketch"]["hits"] > 0
