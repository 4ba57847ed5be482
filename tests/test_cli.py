"""``python -m repro`` CLI: build → ingest → query → bench smoke coverage.

Commands run in-process through :func:`repro.api.cli.main` so the suite stays
fast; every command must emit a single parseable JSON document.
"""

from __future__ import annotations

import json


from repro.api.cli import main

RMAT = ["--dataset", "rmat", "--edges", "3000", "--scale", "10"]


def run_cli(capsys, *argv: str) -> dict:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_build_ingest_query_bench_roundtrip(tmp_path, capsys):
    snapshot = str(tmp_path / "sketch.snap")

    built = run_cli(
        capsys,
        "build", *RMAT, "--cells", "12000", "--depth", "4", "--ingest", "--out", snapshot,
    )
    assert built["backend"] == "gsketch"
    assert built["ingested"] == 3000
    assert built["elements_processed"] == 3000

    ingested = run_cli(capsys, "ingest", "--snapshot", snapshot, *RMAT)
    assert ingested["ingested"] == 3000
    assert ingested["elements_processed"] == 6000

    queried = run_cli(
        capsys,
        "query", "--snapshot", snapshot, "--edge", "3", "17", "--sample", "4", *RMAT,
    )
    assert queried["backend"] == "gsketch"
    assert len(queried["estimates"]) == 5
    for estimate in queried["estimates"]:
        assert estimate["value"] >= 0.0
        assert "interval" in estimate

    benched = run_cli(
        capsys, "bench", *RMAT, "--cells", "12000", "--depth", "4", "--queries", "50"
    )
    assert benched["edges"] == 3000
    assert benched["queries"] == 50
    assert benched["edges_per_second"] > 0


def test_query_bench_mode(capsys):
    report = run_cli(
        capsys,
        "query-bench", *RMAT, "--cells", "12000", "--depth", "4",
        "--queries", "64", "--batch-sizes", "1", "8",
        "--rounds", "1", "--repeats", "1",
    )
    assert report["benchmark"] == "query-throughput"
    assert report["backend"] == "gsketch"
    assert report["parity_ok"] is True
    assert {row["batch_size"] for row in report["results"]} == {1, 8}
    for row in report["results"]:
        assert row["direct_qps"] > 0 and row["plan_qps"] > 0


def test_query_bench_baseline_conflicts(capsys):
    code = main(
        ["query-bench", *RMAT, "--baseline", "--windowed", "1000"]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "baseline" in err["error"]


def test_build_variants(tmp_path, capsys):
    windowed_snap = str(tmp_path / "windowed.snap")
    built = run_cli(
        capsys,
        "build", *RMAT, "--cells", "12000", "--windowed", "1000", "--ingest",
        "--out", windowed_snap,
    )
    assert built["backend"] == "windowed"
    assert built["num_windows"] == 3

    queried = run_cli(
        capsys,
        "query", "--snapshot", windowed_snap, "--edge", "3", "17",
        "--window", "0", "1000",
    )
    assert queried["backend"] == "windowed"
    assert queried["estimates"][0]["value"] >= 0.0

    baseline_snap = str(tmp_path / "global.snap")
    built = run_cli(
        capsys,
        "build", *RMAT, "--cells", "12000", "--baseline", "--ingest", "--out", baseline_snap,
    )
    assert built["backend"] == "global"


def test_workload_aware_build(tmp_path, capsys):
    snapshot = str(tmp_path / "workload.snap")
    built = run_cli(
        capsys,
        "build", *RMAT, "--cells", "12000", "--workload-alpha", "1.4",
        "--out", snapshot,
    )
    assert built["backend"] == "gsketch"
    assert built["elements_processed"] == 0  # no --ingest


def test_cli_errors_are_json(tmp_path, capsys):
    code = main(["query", "--snapshot", str(tmp_path / "missing.snap"), "--edge", "1", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err)

    corrupt = tmp_path / "corrupt.snap"
    corrupt.write_text("not a snapshot")
    code = main(["query", "--snapshot", str(corrupt), "--edge", "1", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err)

    code = main(["build", *RMAT, "--cells", "0", "--out", str(tmp_path / "x.snap")])
    captured = capsys.readouterr()
    assert code == 2
    assert "total_cells" in json.loads(captured.err)["error"]

    snapshot = str(tmp_path / "plain.snap")
    assert main(["build", *RMAT, "--cells", "12000", "--out", snapshot]) == 0
    capsys.readouterr()
    code = main(["query", "--snapshot", snapshot])  # nothing to query
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err)
