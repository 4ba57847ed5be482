"""The paper-figure harness runs end to end at the tiny tier."""

from __future__ import annotations

from repro.experiments.figures import base_config
from repro.experiments.runner import run_memory_sweep


def test_memory_sweep_runs_every_budget_for_both_methods():
    result = run_memory_sweep(base_config("dblp", "tiny"))
    assert len(result.points) == 5
    budgets = [point.memory_bytes for point in result.points]
    assert budgets == sorted(set(budgets))
    for point in result.points:
        assert set(point.cells) == {"gSketch", "Global Sketch"}
