"""Chaos drill: seeded wire faults against the serving tier.

``BENCH_serve.json`` gates the serving tier on a healthy day; this runner
gates it on a bad one.  It serves a fully ingested, frozen engine in process
and drives 16 closed-loop monotonic-reads sessions
(:class:`~repro.serving.session.Session`), each with its own seeded
:class:`~repro.serving.client.RetryPolicy`, while a seeded fault schedule
runs against the server:

* **torn frames** — ``serving_torn_frame`` faults cut a response write
  mid-way and drop the connection; clients must see a typed disconnect
  and their retry policy must reconnect and resubmit, with each
  reconnect's hello and every answer checked against the session's
  generation watermark;
* **stalled connections** — ``serving_stall_connection`` faults delay
  response writes (slow-loris-adjacent), bounding tail latency rather than
  correctness.

The clients walk a key space larger than the offered request count, so
almost every query is a hot-cache miss answered by a real plan gather
rather than a memo replay.

Four clauses gate the run itself (non-zero exit):

1. **zero incorrect answers** — every response is either bit-exact against
   a pre-computed direct oracle or a *typed* error; a single silently wrong
   value (or an untyped exception, a ``ConsistencyError`` included) fails
   the drill;
2. **every request resolved** — each request ends in an answer or a typed
   error before the hang deadline; requests still pending then are
   cancelled and counted as ``unresolved``;
3. **faults actually happened** — the schedule injected at least one
   fault, so a green run can't come from a quiet one;
4. **clean final sweep** — with the schedule cleared, the whole workload is
   re-queried and must match the oracle bit-exactly.

The recorded p99 is enforced as a ceiling by ``check_bench.py --chaos``
against ``experiments/bench_baselines.json``.  Run from the repo root::

    python experiments/chaos_bench.py             # full run (committed artifact)
    python experiments/chaos_bench.py --quick     # CI smoke sizes
    python experiments/chaos_bench.py --seed 3    # a different schedule
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.datasets.zipf import zipf_stream
from repro.graph.edge import EdgeKey
from repro.serving.client import (
    DeadlineExceeded,
    RetryLater,
    RetryPolicy,
    ServerClosed,
    ServingClient,
    ServingError,
    connect,
)
from repro.serving.session import open_session

DEFAULT_EDGES = 40_000
QUICK_EDGES = 12_000
DEFAULT_DURATION_SECONDS = 6.0
QUICK_DURATION_SECONDS = 2.5
DEFAULT_KEYS = 120_000
QUICK_KEYS = 50_000
DEFAULT_OUTPUT = "BENCH_chaos.json"

#: The final bit-exact sweep re-queries the workload in admission-sized
#: chunks (one giant batch would trip the server's own admission bound).
SWEEP_BATCH = 256

#: Closed-loop clients driving the drill.
NUM_CLIENTS = 16

#: Seconds past the drill's end a request may still take before it counts
#: as hung: the clients are cancelled then and their pending requests are
#: reported as ``unresolved``.
HANG_GRACE_SECONDS = 10.0

#: Retry discipline the drill's clients run — small delays so the closed
#: loop keeps offering load between faults, capped attempts so a dead
#: server surfaces as a typed error instead of a spin.
RETRY = RetryPolicy(max_attempts=6, base_delay=0.005, max_delay=0.08)

#: How each request ended; every category but ``unresolved`` is an outcome
#: the client observed.
OUTCOMES = (
    "answered",
    "typed_shed",
    "typed_disconnects",
    "typed_errors",
    "other_errors",
)


def _build_schedule(seed: int, quick: bool) -> faults.FaultPlan:
    """The seeded fault schedule: three torn frames and three stalls.

    Hit thresholds count response writes (one per connection flush, each
    holding every response that connection queued in one event-loop pass),
    and are drawn low enough that a quick run's offered load reaches them;
    ``faults_injected`` in the report confirms it.
    """
    rng = np.random.default_rng(seed)
    high = 400 if quick else 1_500
    specs: List[faults.FaultSpec] = []
    for hit in rng.integers(20, high, size=3):
        specs.append(
            faults.FaultSpec(site=faults.SITE_SERVING_TORN_FRAME, at_hit=int(hit))
        )
    for hit in rng.integers(20, high, size=3):
        specs.append(
            faults.FaultSpec(
                site=faults.SITE_SERVING_STALL_CONNECTION,
                at_hit=int(hit),
                delay_seconds=round(float(rng.uniform(0.03, 0.12)), 3),
            )
        )
    return faults.FaultPlan(specs)


def _percentile_ms(latencies: Sequence[float], q: float) -> float:
    if not latencies:
        return 0.0
    return float(np.percentile(np.asarray(latencies), q) * 1_000.0)


def _build_workload(stream, num_keys: int) -> List[EdgeKey]:
    """A key set larger than the drill's request count, mostly unique.

    The hot-edge memo answers repeated keys without a gather; walking a key
    space bigger than the offered request count keeps (almost) every query
    a memo miss, so the drill exercises the full read path.  Unseen keys
    are valid queries (the sketch answers any pair), so the seen distinct
    edges are padded out with synthetic cold pairs.
    """
    keys: List[EdgeKey] = sorted(stream.distinct_edges())[:num_keys]
    base = 10**9
    keys.extend(
        (base + index, 7 + index % 97) for index in range(num_keys - len(keys))
    )
    return keys


async def _run_drill(
    host: str,
    port: int,
    keys: Sequence[EdgeKey],
    oracle: Dict[EdgeKey, float],
    duration_seconds: float,
    seed: int,
) -> Tuple[dict, List[float]]:
    """The drill's load phase: 16 retrying closed-loop sessions."""
    clients: List[ServingClient] = []
    for index in range(NUM_CLIENTS):
        policy = RetryPolicy(
            max_attempts=RETRY.max_attempts,
            base_delay=RETRY.base_delay,
            max_delay=RETRY.max_delay,
            seed=seed * 1_000 + index,
        )
        clients.append(await open_session(host, port, retry=policy))
    loop = asyncio.get_running_loop()
    begin = loop.time()
    end = begin + duration_seconds
    latencies: List[float] = []
    counters = dict.fromkeys(("requests", "incorrect", *OUTCOMES), 0)

    async def worker(index: int, client: ServingClient) -> None:
        cursor = index
        while loop.time() < end:
            key = keys[cursor % len(keys)]
            cursor += NUM_CLIENTS
            counters["requests"] += 1
            started = loop.time()
            try:
                result = await client.query_edges([key])
            except (RetryLater, DeadlineExceeded):
                counters["typed_shed"] += 1
                continue
            except ServerClosed:
                counters["typed_disconnects"] += 1
                continue
            except ServingError:
                counters["typed_errors"] += 1
                continue
            except Exception:  # noqa: BLE001 - counted; gate requires zero
                counters["other_errors"] += 1
                continue
            latencies.append(loop.time() - started)
            counters["answered"] += 1
            if result.values[0] != oracle[key]:
                counters["incorrect"] += 1

    tasks = [
        loop.create_task(worker(index, client)) for index, client in enumerate(clients)
    ]
    try:
        _, hung = await asyncio.wait(tasks, timeout=duration_seconds + HANG_GRACE_SECONDS)
        for task in hung:
            task.cancel()
        if hung:
            await asyncio.wait(hung)
        counters["retries"] = sum(client.retries for client in clients)
        counters["reconnects"] = sum(client.reconnects for client in clients)
    finally:
        for client in clients:
            await client.close()
    counters["unresolved"] = counters["requests"] - sum(counters[name] for name in OUTCOMES)
    counters["wall_seconds"] = loop.time() - begin
    return counters, latencies


async def _final_sweep(
    host: str, port: int, keys: Sequence[EdgeKey], oracle: Dict[EdgeKey, float]
) -> int:
    """Bit-exact mismatches over the full workload once the faults stop."""
    client = await connect(host, port, retry=RETRY)
    mismatches = 0
    try:
        for start in range(0, len(keys), SWEEP_BATCH):
            chunk = list(keys[start : start + SWEEP_BATCH])
            result = await client.query_edges(chunk)
            mismatches += sum(
                1 for key, value in zip(chunk, result.values) if value != oracle[key]
            )
    finally:
        await client.close()
    return mismatches


def run_chaos_bench(
    num_edges: int,
    seed: int,
    duration_seconds: float,
    num_keys: Optional[int] = None,
    quick: bool = False,
) -> dict:
    if num_keys is None:
        num_keys = QUICK_KEYS if quick else DEFAULT_KEYS
    config = GSketchConfig(total_cells=40_000, depth=4, seed=7)
    stream = zipf_stream(num_edges, population=2_048, seed=11)
    engine = SketchEngine.builder().config(config).dataset(stream).build()
    engine.ingest(stream)
    engine.frozen()

    keys = _build_workload(stream, num_keys)
    oracle = dict(zip(keys, engine.estimator.query_edges(keys)))

    schedule = _build_schedule(seed, quick)
    faults.install(schedule)
    try:
        handle = engine.serve()
        try:
            host, port = handle.address
            load, latencies = asyncio.run(
                _run_drill(host, port, keys, oracle, duration_seconds, seed)
            )
            injected = schedule.injected()
            # The schedule has done its work — verify on a clean wire so
            # lingering unfired specs can't tear the sweep.
            faults.clear()
            final_mismatches = asyncio.run(_final_sweep(host, port, keys, oracle))
        finally:
            handle.stop()
    finally:
        faults.clear()
        engine.close()

    wall = load.pop("wall_seconds")
    zero_incorrect = load["incorrect"] == 0 and load["other_errors"] == 0
    all_resolved = load["unresolved"] == 0
    faults_exercised = sum(injected.values()) > 0
    return {
        "benchmark": "chaos",
        "config": {
            "num_edges": num_edges,
            "total_cells": 40_000,
            "depth": 4,
            "seed": seed,
            "clients": NUM_CLIENTS,
            "duration_seconds": duration_seconds,
            "num_keys": len(keys),
            "retry": {
                "max_attempts": RETRY.max_attempts,
                "base_delay": RETRY.base_delay,
                "max_delay": RETRY.max_delay,
            },
            "sites": sorted({spec.site for spec in schedule.specs}),
        },
        "load": {
            **load,
            "qps": round(load["requests"] / wall, 1) if wall > 0 else 0.0,
            "wall_seconds": round(wall, 3),
            "p50_ms": round(_percentile_ms(latencies, 50.0), 3),
            "p99_ms": round(_percentile_ms(latencies, 99.0), 3),
        },
        "chaos": {"scheduled": len(schedule.specs), "faults_injected": injected},
        "final_sweep": {"keys": len(keys), "mismatches": final_mismatches},
        "zero_incorrect": zero_incorrect,
        "all_resolved": all_resolved,
        "faults_exercised": faults_exercised,
        "ok": bool(
            zero_incorrect and all_resolved and faults_exercised and final_mismatches == 0
        ),
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
        help=f"CI smoke mode: {QUICK_EDGES} edges, {QUICK_DURATION_SECONDS}s drill",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help=f"drill length in seconds (default {DEFAULT_DURATION_SECONDS})",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="fault-schedule seed (deterministic)"
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"report path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    report = run_chaos_bench(
        num_edges=QUICK_EDGES if args.quick else args.edges,
        seed=args.seed,
        duration_seconds=args.duration
        or (QUICK_DURATION_SECONDS if args.quick else DEFAULT_DURATION_SECONDS),
        quick=args.quick,
    )
    report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    load, chaos, sweep = report["load"], report["chaos"], report["final_sweep"]
    print(
        f"chaos_bench: requests={load['requests']} answered={load['answered']} "
        f"incorrect={load['incorrect']} shed={load['typed_shed']} "
        f"disconnects={load['typed_disconnects']} unresolved={load['unresolved']} "
        f"retries={load['retries']}"
    )
    print(
        f"chaos_bench: injected={chaos['faults_injected']} "
        f"final sweep mismatches={sweep['mismatches']}/{sweep['keys']}"
    )
    print(f"chaos_bench: p50={load['p50_ms']}ms p99={load['p99_ms']}ms")
    if not report["ok"]:
        print("chaos_bench: FAILED — see report", file=sys.stderr)
        return 1
    print(f"chaos_bench: ok, report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
