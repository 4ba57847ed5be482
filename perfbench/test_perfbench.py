"""Smoke self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that each run prints exactly the metrics ``BENCHMARK.json`` declares,
with their units, that the traced run covers every per-layer metric, that a
corrupted oracle value trips the check of answers given during the measured
phases, and that the command refuses to report anything when the program is
missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def run(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def declared_units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


def reported_units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_declaration(workload):
    proc, result = run("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert reported_units(result) == declared_units("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    proc, result = run("--workload", workload, "--seed", "4", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert reported_units(result) == declared_units("per_layer")
    metrics = result["metrics"]
    assert metrics["core.partitions"]["value"] > 1
    assert metrics["trace.overhead.qps"]["value"] > 0
    assert metrics["trace.overhead.ingest_eps"]["value"] > 0
    if workload.startswith("serve"):
        assert metrics["coalesce.batch_keys"]["value"] >= 1
        assert metrics["client.codec_us"]["value"] > 0
    else:
        assert metrics["api.query_self_us_per_key"]["value"] > 0


#: The check of answers given during the measured phases, per workload.
IN_PHASE_CHECK = {"serve-mixed": "open", "embedded-bulk": "edge queries"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_oracle_trips_the_in_phase_check(workload):
    proc, result = run("--workload", workload, "--seed", "5", "--corrupt-oracle")
    assert proc.returncode != 0
    assert result["correct"] is False
    tripped = [line for line in proc.stdout.splitlines() if "incorrect of" in line]
    assert any(line.startswith(f"{workload}: {IN_PHASE_CHECK[workload]}:") for line in tripped)
    assert not any("final" in line for line in tripped), tripped


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
