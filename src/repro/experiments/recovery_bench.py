"""Recovery drill: seeded fault schedules against the supervised engine.

The fault-tolerance plane promises three things, and this runner turns each
into a recorded, gated artifact:

* **crash-and-recover parity** — under a seeded
  :meth:`~repro.faults.FaultPlan.seeded` schedule covering every worker
  injection point, a supervised run over the shared-memory executor ends
  with ``state_dict()`` bit-exact to an unfaulted sequential run;
* **bounded recovery cost** — restart counts and the wall-clock cost of the
  faulted run relative to a clean shared-memory run are recorded
  (advisory; machine-dependent);
* **sound degraded serving** — after a persistently-crashing shard exhausts
  its restart budget, the surviving shards keep answering and every widened
  Equation-1 interval still contains the exact ground-truth frequency.

The parity and soundness checks gate the run itself (non-zero exit); the
recorded numbers surface as advisory rows through
``experiments/check_bench.py --recovery``.  Run from the repo root::

    python experiments/recovery_bench.py             # full run (60k edges)
    python experiments/recovery_bench.py --quick     # CI smoke (8k edges)
    python experiments/recovery_bench.py --seed 3    # a different schedule
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import faults
from repro.core.config import GSketchConfig
from repro.datasets.zipf import zipf_stream
from repro.distributed import (
    RecoveryPolicy,
    SequentialExecutor,
    ShardedGSketch,
    SharedMemoryExecutor,
)
from repro.graph.sampling import reservoir_sample

DEFAULT_EDGES = 60_000
QUICK_EDGES = 8_000
DEFAULT_OUTPUT = "BENCH_recovery.json"
NUM_SHARDS = 3


def _build(sample, config, stream, executor, recovery=None) -> ShardedGSketch:
    return ShardedGSketch.build(
        sample,
        config,
        num_shards=NUM_SHARDS,
        executor=executor,
        stream_size_hint=len(stream),
        recovery=recovery,
    )


def _states_bit_exact(left: dict, right: dict) -> bool:
    if left["elements_processed"] != right["elements_processed"]:
        return False
    for shard_left, shard_right in zip(left["shards"], right["shards"]):
        if shard_left["sketches"].keys() != shard_right["sketches"].keys():
            return False
        for partition, sketch in shard_left["sketches"].items():
            other = shard_right["sketches"][partition]
            if not np.array_equal(sketch["table"], other["table"]):
                return False
            if sketch["total"] != other["total"]:
                return False
    return True


def _timed_run(sample, config, stream, executor, batch_size, recovery=None):
    engine = _build(sample, config, stream, executor, recovery=recovery)
    start = time.perf_counter()
    try:
        engine.ingest(stream, batch_size=batch_size)
        engine.flush()
        wall = time.perf_counter() - start
        state = engine.state_dict()
        telemetry = (
            engine.supervisor.telemetry() if engine.supervisor is not None else None
        )
    finally:
        engine.close()
    return state, wall, telemetry


def _parity_drill(
    sample, config, stream, baseline: dict, seed: int, batch_size: int
) -> List[dict]:
    """Seeded all-site schedule on the shared executor: crash, recover, compare."""
    policy = RecoveryPolicy(
        max_restarts=3, backoff_seconds=0.01, ack_deadline_seconds=0.5
    )
    _, clean_wall, _ = _timed_run(
        sample, config, stream, SharedMemoryExecutor(), batch_size
    )
    faults.install(faults.FaultPlan.seeded(seed, num_shards=NUM_SHARDS))
    try:
        state, faulted_wall, telemetry = _timed_run(
            sample, config, stream, SharedMemoryExecutor(), batch_size, recovery=policy
        )
    finally:
        faults.clear()
    return [
        {
            "executor": "shared",
            "schedule_seed": seed,
            "sites": list(faults.WORKER_SITES),
            "parity_ok": _states_bit_exact(baseline, state),
            "restarts": telemetry["restarts"],
            "dead_shards": telemetry["dead_shards"],
            "clean_wall_seconds": clean_wall,
            "faulted_wall_seconds": faulted_wall,
            "recovery_cost_ratio": faulted_wall / clean_wall if clean_wall else 0.0,
        }
    ]


def _degraded_drill(sample, config, stream, seed: int, batch_size: int) -> dict:
    """Persistent crash → retry exhaustion → degraded serving soundness."""
    policy = RecoveryPolicy(
        max_restarts=2, backoff_seconds=0.01, degraded_serving=True
    )
    victim = seed % NUM_SHARDS
    spec = faults.FaultSpec(
        site=faults.SITE_CRASH_BEFORE_APPLY, at_hit=1, shard=victim, persistent=True
    )
    faults.install(faults.FaultPlan([spec]))
    engine = _build(sample, config, stream, SharedMemoryExecutor(), recovery=policy)
    try:
        engine.ingest(stream, batch_size=batch_size)
        engine.flush()

        truth: Dict[tuple, float] = {}
        for edge in stream:
            key = (edge.source, edge.target)
            truth[key] = truth.get(key, 0.0) + edge.frequency
        # Stride across the sorted key space so the probe set hits every
        # shard (a lexicographic prefix can miss the dead one entirely).
        ordered = sorted(truth)
        keys = ordered[:: max(1, len(ordered) // 500)][:500]
        intervals, partitions = engine.confidence_batch_with_partitions(keys)
        widened = violations = 0
        for key, interval, partition in zip(keys, intervals, partitions):
            if engine.plan.shard_of(partition) in engine.dead_shards:
                widened += 1
                if interval.upper_slack <= 0.0:
                    violations += 1
            if not interval.contains(truth[key]):
                violations += 1
        telemetry = engine.supervisor.telemetry()
        return {
            "victim_shard": victim,
            "dead_shards": telemetry["dead_shards"],
            "degraded": telemetry["degraded"],
            "lost_elements": telemetry["lost_elements"],
            "lost_frequency": telemetry["lost_frequency"],
            "queries_checked": len(keys),
            "queries_widened": widened,
            "bound_violations": violations,
        }
    finally:
        engine.close()
        faults.clear()


def run_recovery_bench(
    num_edges: int, seed: int, batch_size: int = 1_024
) -> dict:
    config = GSketchConfig(total_cells=20_000, depth=4, seed=7)
    stream = zipf_stream(num_edges, population=1_000, seed=11)
    sample = reservoir_sample(stream, min(2_000, num_edges // 2), seed=5)

    reference = _build(sample, config, stream, SequentialExecutor())
    reference.ingest(stream, batch_size=batch_size)
    baseline = reference.state_dict()

    parity = _parity_drill(sample, config, stream, baseline, seed, batch_size)
    degraded = _degraded_drill(sample, config, stream, seed, batch_size)

    parity_ok = all(row["parity_ok"] for row in parity)
    recovered = all(row["restarts"] > 0 for row in parity)
    sound = (
        degraded["degraded"]
        and degraded["queries_widened"] > 0
        and degraded["bound_violations"] == 0
    )
    return {
        "benchmark": "recovery",
        "config": {
            "num_edges": num_edges,
            "num_shards": NUM_SHARDS,
            "batch_size": batch_size,
            "schedule_seed": seed,
            "total_cells": 20_000,
            "depth": 4,
        },
        "parity": parity,
        "degraded": degraded,
        "parity_ok": parity_ok,
        "faults_exercised": recovered,
        "ok": parity_ok and recovered and sound,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--edges",
        type=int,
        default=DEFAULT_EDGES,
        help=f"stream length (default {DEFAULT_EDGES})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: {QUICK_EDGES} edges",
    )
    parser.add_argument("--batch-size", type=int, default=1_024)
    parser.add_argument(
        "--seed", type=int, default=7, help="fault-schedule seed (deterministic)"
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"report path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    report = run_recovery_bench(
        num_edges=QUICK_EDGES if args.quick else args.edges,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    for row in report["parity"]:
        print(
            f"recovery_bench: {row['executor']:10s} parity={row['parity_ok']} "
            f"restarts={row['restarts']} "
            f"cost_ratio={row['recovery_cost_ratio']:.2f}"
        )
    degraded = report["degraded"]
    print(
        f"recovery_bench: degraded shard={degraded['victim_shard']} "
        f"lost={degraded['lost_elements']} widened={degraded['queries_widened']} "
        f"violations={degraded['bound_violations']}"
    )
    if not report["ok"]:
        print("recovery_bench: FAILED — see report", file=sys.stderr)
        return 1
    print(f"recovery_bench: ok, report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
