"""Unit tests for the benchmark regression gate (experiments/check_bench.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    pathlib.Path(__file__).resolve().parents[1] / "experiments" / "check_bench.py",
)
check_bench = importlib.util.module_from_spec(_SPEC)
sys.modules["check_bench"] = check_bench
_SPEC.loader.exec_module(check_bench)


def _throughput_report(rates: dict, parity: bool = True) -> dict:
    return {
        "parity_ok": parity,
        "results": [
            {"dataset": dataset, "mode": mode, "edges_per_second": value}
            for (dataset, mode), value in rates.items()
        ],
    }


BASELINES = {
    "tolerance": 0.1,
    "profiles": {
        "quick": {
            "throughput": {
                "require_parity": True,
                "floors": [
                    {
                        "dataset": "rmat",
                        "numerator": "batched",
                        "denominator": "per-edge",
                        "min_ratio": 5.0,
                    }
                ],
            },
            "build": {"require_equivalence": True, "min_speedup": 4.0},
        }
    },
}


@pytest.fixture
def reports(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    baselines = write("baselines.json", BASELINES)
    good_throughput = write(
        "tp_good.json",
        _throughput_report({("rmat", "per-edge"): 100.0, ("rmat", "batched"): 800.0}),
    )
    good_build = write(
        "build_good.json",
        {"trees_identical": True, "results": [{"speedup": 12.0}, {"speedup": 9.0}]},
    )
    return tmp_path, baselines, good_throughput, good_build, write


def test_gate_passes_on_healthy_reports(reports, capsys):
    _, baselines, throughput, build, _ = reports
    code = check_bench.main(
        [
            "--profile",
            "quick",
            "--throughput",
            throughput,
            "--build",
            build,
            "--baselines",
            baselines,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all 4 checks hold" in out


def test_gate_fails_on_ratio_regression(reports):
    _, baselines, _, build, write = reports
    slow = write(
        "tp_slow.json",
        _throughput_report({("rmat", "per-edge"): 100.0, ("rmat", "batched"): 300.0}),
    )
    code = check_bench.main(
        ["--profile", "quick", "--throughput", slow, "--build", build,
         "--baselines", baselines]
    )
    assert code == 1


def test_gate_fails_on_parity_break(reports):
    _, baselines, _, build, write = reports
    broken = write(
        "tp_parity.json",
        _throughput_report(
            {("rmat", "per-edge"): 100.0, ("rmat", "batched"): 900.0}, parity=False
        ),
    )
    code = check_bench.main(
        ["--profile", "quick", "--throughput", broken, "--build", build,
         "--baselines", baselines]
    )
    assert code == 1


def test_gate_fails_on_missing_mode(reports):
    _, baselines, _, build, write = reports
    missing = write(
        "tp_missing.json", _throughput_report({("rmat", "per-edge"): 100.0})
    )
    code = check_bench.main(
        ["--profile", "quick", "--throughput", missing, "--build", build,
         "--baselines", baselines]
    )
    assert code == 1


def test_gate_fails_on_build_regression(reports):
    _, baselines, throughput, _, write = reports
    slow_build = write(
        "build_slow.json",
        {"trees_identical": True, "results": [{"speedup": 1.5}]},
    )
    code = check_bench.main(
        ["--profile", "quick", "--throughput", throughput, "--build", slow_build,
         "--baselines", baselines]
    )
    assert code == 1


def test_tolerance_override_relaxes_floor(reports):
    _, baselines, _, build, write = reports
    borderline = write(
        "tp_borderline.json",
        _throughput_report({("rmat", "per-edge"): 100.0, ("rmat", "batched"): 420.0}),
    )
    strict = check_bench.main(
        ["--profile", "quick", "--throughput", borderline, "--build", build,
         "--baselines", baselines, "--tolerance", "0.0"]
    )
    relaxed = check_bench.main(
        ["--profile", "quick", "--throughput", borderline, "--build", build,
         "--baselines", baselines, "--tolerance", "0.2"]
    )
    assert strict == 1
    assert relaxed == 0


def test_markdown_summary_written(reports, monkeypatch):
    tmp_path, baselines, throughput, build, _ = reports
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    code = check_bench.main(
        ["--profile", "quick", "--throughput", throughput, "--build", build,
         "--baselines", baselines]
    )
    assert code == 0
    text = summary.read_text()
    assert "| check | measured | required | status |" in text
    assert "batched / per-edge" in text
    assert "✅" in text


QUERY_BASELINES = {
    "tolerance": 0.1,
    "profiles": {
        "quick": {
            "query": {
                "require_parity": True,
                "floors": [
                    {"backend": "gsketch", "batch_size": 1, "min_ratio": 5.0},
                    {"backend": "gsketch", "batch_size": 8, "min_ratio": 5.0},
                ],
            }
        }
    },
}


def _query_report(rows, parity: bool = True, row_parity: bool = True) -> dict:
    return {
        "parity_ok": parity,
        "results": [
            {
                "backend": backend,
                "batch_size": batch_size,
                "direct_qps": direct,
                "plan_qps": plan,
                "parity_ok": row_parity,
            }
            for backend, batch_size, direct, plan in rows
        ],
    }


@pytest.fixture
def query_reports(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    baselines = write("query_baselines.json", QUERY_BASELINES)
    healthy = write(
        "query_good.json",
        _query_report(
            [("gsketch", 1, 5_000.0, 200_000.0), ("gsketch", 8, 20_000.0, 300_000.0)]
        ),
    )
    return baselines, healthy, write


def test_query_gate_passes_on_healthy_report(query_reports, capsys):
    baselines, healthy, _ = query_reports
    code = check_bench.main(
        ["--profile", "quick", "--query", healthy, "--baselines", baselines]
    )
    assert code == 0
    assert "plan / direct" in capsys.readouterr().out


def test_query_gate_fails_on_speedup_regression(query_reports):
    baselines, _, write = query_reports
    slow = write(
        "query_slow.json",
        _query_report(
            [("gsketch", 1, 5_000.0, 15_000.0), ("gsketch", 8, 20_000.0, 300_000.0)]
        ),
    )
    code = check_bench.main(
        ["--profile", "quick", "--query", slow, "--baselines", baselines]
    )
    assert code == 1


def test_query_gate_fails_on_row_level_parity_break(query_reports):
    baselines, _, write = query_reports
    broken = write(
        "query_parity.json",
        _query_report(
            [("gsketch", 1, 5_000.0, 200_000.0), ("gsketch", 8, 20_000.0, 300_000.0)],
            parity=True,
            row_parity=False,
        ),
    )
    code = check_bench.main(
        ["--profile", "quick", "--query", broken, "--baselines", baselines]
    )
    assert code == 1


def test_query_gate_fails_on_missing_row(query_reports):
    baselines, _, write = query_reports
    missing = write(
        "query_missing.json",
        _query_report([("gsketch", 1, 5_000.0, 200_000.0)]),
    )
    code = check_bench.main(
        ["--profile", "quick", "--query", missing, "--baselines", baselines]
    )
    assert code == 1


SERVE_BASELINES = {
    "tolerance": 0.1,
    "profiles": {
        "quick": {
            "serve": {
                "require_parity": True,
                "require_overload": True,
                "floors": [
                    {
                        "clients": 64,
                        "baseline_clients": 1,
                        "min_qps_ratio": 2.0,
                        "max_p99_ms": 100.0,
                    }
                ],
            }
        }
    },
}


def _serve_report(
    rows,
    parity: bool = True,
    row_parity: bool = True,
    overload_ok: bool = True,
) -> dict:
    return {
        "parity_ok": parity,
        "results": [
            {
                "clients": clients,
                "qps": qps,
                "p99_ms": p99_ms,
                "parity_ok": row_parity,
            }
            for clients, qps, p99_ms in rows
        ],
        "overload": {
            "ok": overload_ok,
            "rejected": 17,
            "max_depth": 128,
            "max_pending": 128,
        },
    }


@pytest.fixture
def serve_reports(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    baselines = write("serve_baselines.json", SERVE_BASELINES)
    healthy = write(
        "serve_good.json", _serve_report([(1, 700.0, 3.0), (64, 6_000.0, 40.0)])
    )
    return baselines, healthy, write


def test_serve_gate_passes_on_healthy_report(serve_reports, capsys):
    baselines, healthy, _ = serve_reports
    code = check_bench.main(
        ["--profile", "quick", "--serve", healthy, "--baselines", baselines]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "64 clients" in out
    assert "overload" in out


def test_serve_gate_fails_on_qps_ratio_regression(serve_reports):
    baselines, _, write = serve_reports
    flat = write(
        "serve_flat.json", _serve_report([(1, 700.0, 3.0), (64, 900.0, 40.0)])
    )
    code = check_bench.main(
        ["--profile", "quick", "--serve", flat, "--baselines", baselines]
    )
    assert code == 1


def test_serve_gate_fails_on_p99_ceiling(serve_reports):
    baselines, _, write = serve_reports
    laggy = write(
        "serve_laggy.json", _serve_report([(1, 700.0, 3.0), (64, 6_000.0, 500.0)])
    )
    code = check_bench.main(
        ["--profile", "quick", "--serve", laggy, "--baselines", baselines]
    )
    assert code == 1


def test_serve_gate_fails_on_overload_drill(serve_reports):
    baselines, _, write = serve_reports
    hung = write(
        "serve_hung.json",
        _serve_report([(1, 700.0, 3.0), (64, 6_000.0, 40.0)], overload_ok=False),
    )
    code = check_bench.main(
        ["--profile", "quick", "--serve", hung, "--baselines", baselines]
    )
    assert code == 1


def test_serve_gate_fails_on_row_level_parity_break(serve_reports):
    baselines, _, write = serve_reports
    broken = write(
        "serve_parity.json",
        _serve_report([(1, 700.0, 3.0), (64, 6_000.0, 40.0)], row_parity=False),
    )
    code = check_bench.main(
        ["--profile", "quick", "--serve", broken, "--baselines", baselines]
    )
    assert code == 1


def test_serve_gate_fails_on_missing_concurrency_row(serve_reports):
    baselines, _, write = serve_reports
    missing = write("serve_missing.json", _serve_report([(1, 700.0, 3.0)]))
    code = check_bench.main(
        ["--profile", "quick", "--serve", missing, "--baselines", baselines]
    )
    assert code == 1


CHAOS_BASELINES = {
    "tolerance": 0.1,
    "profiles": {"quick": {"chaos": {"max_p99_ms": 250.0}}},
}


def _chaos_report(
    incorrect: int = 0,
    other_errors: int = 0,
    unresolved: int = 0,
    mismatches: int = 0,
    injected: dict = None,
    p99_ms: float = 12.0,
) -> dict:
    return {
        "load": {
            "requests": 4_000,
            "incorrect": incorrect,
            "other_errors": other_errors,
            "unresolved": unresolved,
            "p99_ms": p99_ms,
        },
        "chaos": {
            "faults_injected": (
                {"serving_torn_frame": 3, "serving_stall_connection": 3}
                if injected is None
                else injected
            )
        },
        "final_sweep": {"keys": 50_000, "mismatches": mismatches},
    }


@pytest.fixture
def chaos_reports(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write("chaos_baselines.json", CHAOS_BASELINES), write


def test_chaos_gate_passes_on_healthy_report(chaos_reports, capsys):
    baselines, write = chaos_reports
    healthy = write("chaos_good.json", _chaos_report())
    code = check_bench.main(
        ["--profile", "quick", "--chaos", healthy, "--baselines", baselines]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "final sweep" in out
    assert "p99" in out


@pytest.mark.parametrize(
    "broken",
    [
        {"incorrect": 1},
        {"other_errors": 1},
        {"unresolved": 1},
        {"mismatches": 1},
        {"injected": {"serving_torn_frame": 0}},
        {"p99_ms": 400.0},
    ],
    ids=[
        "incorrect-answer",
        "untyped-error",
        "unresolved-request",
        "final-sweep-mismatch",
        "no-injected-faults",
        "p99-over-ceiling",
    ],
)
def test_chaos_gate_fails_on_any_broken_clause(chaos_reports, broken):
    baselines, write = chaos_reports
    report = write("chaos_broken.json", _chaos_report(**broken))
    code = check_bench.main(
        ["--profile", "quick", "--chaos", report, "--baselines", baselines]
    )
    assert code == 1


def test_committed_baselines_parse_and_cover_both_profiles():
    """The checked-in floor file stays loadable and structurally sound."""
    path = pathlib.Path(__file__).resolve().parents[1] / "experiments" / "bench_baselines.json"
    data = json.loads(path.read_text())
    assert 0.0 <= data["tolerance"] < 1.0
    for profile in ("quick", "full"):
        rules = data["profiles"][profile]
        assert rules["throughput"]["require_parity"] is True
        for floor in rules["throughput"]["floors"]:
            assert floor["min_ratio"] > 0
    # The ingest acceptance bars: the full profile holds fused batched ingest
    # >= 20x per-edge on both streams (a return to per-partition apply reads
    # about 10x) and sharded-4 >= 0.5x batched on the R-MAT stream.
    full_floors = {
        (f["dataset"], f["numerator"], f["denominator"]): f["min_ratio"]
        for f in data["profiles"]["full"]["throughput"]["floors"]
    }
    assert full_floors[("rmat", "batched", "per-edge")] >= 20.0
    assert full_floors[("zipf", "batched", "per-edge")] >= 20.0
    assert full_floors[("rmat", "sharded-4", "batched")] >= 0.5
    # The query-plane acceptance bar: both profiles enforce the compiled
    # plan >= 5x the pre-plan path on small gsketch batches, parity required.
    for profile in ("quick", "full"):
        query_rules = data["profiles"][profile]["query"]
        assert query_rules["require_parity"] is True
        query_floors = {
            (f["backend"], f["batch_size"]): f["min_ratio"]
            for f in query_rules["floors"]
        }
        assert query_floors[("gsketch", 1)] >= 5.0
        assert query_floors[("gsketch", 8)] >= 5.0
        # At least one floor must sit beyond the hot-edge cache's batch
        # ceiling, so the arena gather path itself is gated (a cache-only
        # floor would let an estimate_keys regression through).
        assert query_floors[("gsketch", 64)] > 1.0
    # The serving acceptance bar: both profiles require wire parity and the
    # overload drill, and gate the coalescing dividend (concurrent QPS over
    # 1-client QPS); the full profile additionally bounds p99 at 256 clients
    # so throughput can't be bought with unbounded queueing.
    for profile in ("quick", "full"):
        serve_rules = data["profiles"][profile]["serve"]
        assert serve_rules["require_parity"] is True
        assert serve_rules["require_overload"] is True
        for floor in serve_rules["floors"]:
            assert floor["clients"] > floor.get("baseline_clients", 1)
            assert floor["min_qps_ratio"] >= 2.0
    full_serve = {
        f["clients"]: f for f in data["profiles"]["full"]["serve"]["floors"]
    }
    assert full_serve[256]["min_qps_ratio"] >= 3.0
    assert full_serve[256]["max_p99_ms"] <= 250.0
