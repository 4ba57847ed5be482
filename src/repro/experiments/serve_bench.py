"""Serving-tier benchmark: concurrent QPS/latency plus an overload drill.

``BENCH_query.json`` gates the compiled plan's *in-process* throughput; this
runner gates the serving tier built on top of it.  It starts a
:class:`~repro.serving.server.SketchServer` over a fully ingested engine and
drives closed-loop clients (one outstanding request each, batch-1 point
queries) at several concurrency levels, in three interleaved passes (1, 16,
256, 1, 16, 256, ...).  Each row reports the pass with the median QPS and
keeps every pass's QPS, so one phase disturbed by host load cannot decide a
row, or a ratio between rows, on its own.  The clients share the server's
process and interpreter lock, so N clients cannot show what coalescing buys
over one; ``perfbench``'s ``serve-mixed`` workload measures that across
processes.  The committed floors hold a lone client's p50 under 1 ms (no
request waits on a timer) and keep N-client QPS at or above one client's
with a bounded p99.

Every response is checked bit-exact against a direct ``query_edges`` oracle
computed before the server starts (JSON round-trips float64 exactly), so the
throughput numbers can't come from wrong answers.

A second phase re-serves the same engine with a small admission bound and
offers waves of multi-key requests: one connection's burst alone holds 4×
the bound in keys.  The drill passes when overload surfaces as typed
``retry_later`` rejects, queue depth never exceeds the bound (memory stays
bounded), and every client completes (nothing hangs).

Results land in ``BENCH_serve.json``; ``experiments/check_bench.py --serve``
enforces the floors.  Run from the repo root::

    python experiments/serve_bench.py            # full run (committed artifact)
    python experiments/serve_bench.py --quick    # CI smoke sizes
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.datasets.zipf import zipf_stream
from repro.experiments.query_bench import build_query_workload
from repro.graph.edge import EdgeKey
from repro.serving.client import RetryLater, ServingClient, connect
from repro.serving.server import ServerHandle, ServingConfig

DEFAULT_EDGES = 60_000
QUICK_EDGES = 20_000
DEFAULT_CLIENT_COUNTS = (1, 16, 256)
QUICK_CLIENT_COUNTS = (1, 16, 128)
DEFAULT_DURATION_SECONDS = 1.5
QUICK_DURATION_SECONDS = 0.6
DEFAULT_KEYS = 512
DEFAULT_OUTPUT = "BENCH_serve.json"

#: Interleaved measurement passes per client count; each row is the pass
#: with the median QPS.
PASSES = 3

#: Overload drill shape: ``clients × wave`` requests of ``keys`` keys each are
#: offered at once against a server whose admission bound is
#: ``wave × clients / 2`` keys, so one connection's burst (``wave × keys``)
#: is 4× the bound on its own: admission sheds whenever more than a quarter
#: of one burst is read before a gather drains the queue, with no timer
#: holding requests back.
OVERLOAD_CLIENTS = 8
OVERLOAD_WAVE = 32
OVERLOAD_WAVES = 6
OVERLOAD_KEYS = 16

#: The measurement passes run the stock serving knobs — the bench gates the
#: defaults users get, not a tuned special case.
DEFAULT_SERVING = ServingConfig()


def _percentile_ms(latencies: Sequence[float], q: float) -> float:
    if not latencies:
        return 0.0
    return float(np.percentile(np.asarray(latencies), q) * 1_000.0)


async def _run_closed_loop(
    host: str,
    port: int,
    keys: Sequence[EdgeKey],
    oracle: Dict[EdgeKey, float],
    num_clients: int,
    duration_seconds: float,
) -> Tuple[int, float, List[float], int]:
    """Drive ``num_clients`` closed-loop clients for ``duration_seconds``.

    Returns ``(requests, wall_seconds, latencies, parity_mismatches)``.
    """
    clients: List[ServingClient] = []
    for _ in range(num_clients):
        clients.append(await connect(host, port))
    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    mismatches = 0
    requests = 0
    begin = loop.time()
    end = begin + duration_seconds

    async def worker(index: int, client: ServingClient) -> None:
        nonlocal mismatches, requests
        # Stride the workload so concurrent clients are on different keys of
        # the same Zipf-skewed set at any instant.
        cursor = index
        while loop.time() < end:
            key = keys[cursor % len(keys)]
            cursor += num_clients
            started = loop.time()
            result = await client.query_edges([key])
            latencies.append(loop.time() - started)
            requests += 1
            if result.values[0] != oracle[key]:
                mismatches += 1

    try:
        await asyncio.gather(
            *(worker(index, client) for index, client in enumerate(clients))
        )
        wall = loop.time() - begin
    finally:
        for client in clients:
            await client.close()
    return requests, wall, latencies, mismatches


async def _run_overload(
    host: str, port: int, keys: Sequence[EdgeKey]
) -> Dict[str, object]:
    """Open-loop waves of multi-key requests; returns drill counters."""
    clients: List[ServingClient] = []
    for _ in range(OVERLOAD_CLIENTS):
        clients.append(await connect(host, port))
    accepted = 0
    rejected = 0
    other_errors = 0

    async def one(client: ServingClient, request: List[EdgeKey]) -> None:
        nonlocal accepted, rejected, other_errors
        try:
            await client.query_edges(request)
            accepted += 1
        except RetryLater:
            rejected += 1
        except Exception:  # noqa: BLE001 - counted, surfaces in the report
            other_errors += 1

    try:
        for wave in range(OVERLOAD_WAVES):
            tasks = []
            for index, client in enumerate(clients):
                for slot in range(OVERLOAD_WAVE):
                    start = (wave + index * OVERLOAD_WAVE + slot) * OVERLOAD_KEYS
                    request = [
                        keys[(start + offset) % len(keys)]
                        for offset in range(OVERLOAD_KEYS)
                    ]
                    tasks.append(one(client, request))
            # Every task resolves (answer or typed reject) — a hang here
            # would trip the surrounding wait_for and fail the drill.
            await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.close()
    return {
        "clients": OVERLOAD_CLIENTS,
        "wave_requests": OVERLOAD_CLIENTS * OVERLOAD_WAVE,
        "request_keys": OVERLOAD_KEYS,
        "waves": OVERLOAD_WAVES,
        "offered": OVERLOAD_CLIENTS * OVERLOAD_WAVE * OVERLOAD_WAVES,
        "accepted": accepted,
        "rejected": rejected,
        "other_errors": other_errors,
    }


def _round_stats(handle: ServerHandle, before: dict) -> Tuple[dict, float]:
    """Coalescer deltas since ``before``; returns (after, mean batch size)."""
    after = handle.stats()["coalescer"]
    batches = after["batches"] - before["batches"]
    keys = after["coalesced_keys"] - before["coalesced_keys"]
    return after, (keys / batches if batches else 0.0)


def run_serve_bench(
    num_edges: int = DEFAULT_EDGES,
    client_counts: Sequence[int] = DEFAULT_CLIENT_COUNTS,
    duration_seconds: float = DEFAULT_DURATION_SECONDS,
    num_keys: int = DEFAULT_KEYS,
    total_cells: int = 60_000,
    depth: int = 4,
    seed: int = 7,
) -> Dict[str, object]:
    """Measure serving QPS/latency at each concurrency, then the overload drill."""
    config = GSketchConfig(total_cells=total_cells, depth=depth, seed=seed)
    stream = zipf_stream(num_edges, population=4_096, seed=seed)
    engine = SketchEngine.builder().config(config).dataset(stream).build()
    engine.ingest(stream)
    engine.frozen()

    keys = build_query_workload(stream, num_keys, seed=seed + 2)
    keys = list(dict.fromkeys(keys))  # oracle is per-key; dedup repeats
    oracle = dict(zip(keys, engine.estimator.query_edges(keys)))

    passes: List[List[dict]] = [[] for _ in client_counts]
    handle = engine.serve()
    try:
        host, port = handle.address
        for _ in range(PASSES):
            for rows, num_clients in zip(passes, client_counts):
                before = handle.stats()["coalescer"]
                requests, wall, latencies, mismatches = asyncio.run(
                    _run_closed_loop(
                        host, port, keys, oracle, num_clients, duration_seconds
                    )
                )
                _, mean_batch = _round_stats(handle, before)
                rows.append(
                    {
                        "clients": num_clients,
                        "requests": requests,
                        "wall_seconds": round(wall, 6),
                        "qps": round(requests / wall, 1) if wall > 0 else 0.0,
                        "p50_ms": round(_percentile_ms(latencies, 50.0), 4),
                        "p99_ms": round(_percentile_ms(latencies, 99.0), 4),
                        "mean_batch_size": round(mean_batch, 2),
                        "parity_mismatches": mismatches,
                    }
                )
        serving_stats = handle.stats()
    finally:
        handle.stop()
    results: List[dict] = []
    for rows in passes:
        mismatches = sum(row["parity_mismatches"] for row in rows)
        results.append(
            {
                **sorted(rows, key=lambda row: row["qps"])[len(rows) // 2],
                "pass_qps": [row["qps"] for row in rows],
                "parity_mismatches": mismatches,
                "parity_ok": mismatches == 0,
            }
        )
    parity_ok = all(row["parity_ok"] for row in results)

    # -- overload drill: bursts 4× the admission bound, typed rejects ------ #
    max_pending = OVERLOAD_CLIENTS * OVERLOAD_WAVE // 2
    overload_config = ServingConfig(max_pending=max_pending)
    handle = engine.serve(config=overload_config)
    try:
        host, port = handle.address
        drill = asyncio.run(
            asyncio.wait_for(_run_overload(host, port, keys), timeout=60.0)
        )
        coalescer = handle.stats()["coalescer"]
    finally:
        handle.stop()
        engine.close()
    drill.update(
        {
            "max_pending": max_pending,
            "max_depth": coalescer["max_depth"],
            "server_rejected": coalescer["rejected"],
            # The three acceptance clauses: load shed via typed rejects,
            # queue depth bounded by admission, every request resolved.
            "typed_rejects": drill["rejected"] > 0,
            "bounded_depth": coalescer["max_depth"] <= max_pending,
            "all_resolved": (
                drill["accepted"] + drill["rejected"] + drill["other_errors"]
                == drill["offered"]
                and drill["other_errors"] == 0
            ),
        }
    )
    drill["ok"] = bool(
        drill["typed_rejects"] and drill["bounded_depth"] and drill["all_resolved"]
    )

    return {
        "benchmark": "serve",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": {
            "dataset": "zipf",
            "num_edges": num_edges,
            "total_cells": total_cells,
            "depth": depth,
            "seed": seed,
            "num_keys": len(keys),
            "duration_seconds": duration_seconds,
            "client_counts": list(client_counts),
            "passes": PASSES,
            "client_model": "closed loop, one outstanding batch-1 query each",
            "serving": {
                "max_batch": DEFAULT_SERVING.max_batch,
                "max_pending": DEFAULT_SERVING.max_pending,
            },
        },
        "parity_ok": parity_ok,
        "results": results,
        "overload": drill,
        "server_stats": serving_stats,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--edges",
        type=int,
        default=DEFAULT_EDGES,
        help=f"Zipf stream length (default {DEFAULT_EDGES})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: {QUICK_EDGES} edges, {QUICK_CLIENT_COUNTS} clients, "
        f"{QUICK_DURATION_SECONDS}s phases",
    )
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=None,
        help=f"concurrency levels to measure (default {DEFAULT_CLIENT_COUNTS})",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help=f"seconds per measurement phase (default {DEFAULT_DURATION_SECONDS})",
    )
    parser.add_argument(
        "--keys",
        type=int,
        default=DEFAULT_KEYS,
        help=f"distinct workload keys (default {DEFAULT_KEYS})",
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"report path (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    num_edges = QUICK_EDGES if args.quick else args.edges
    client_counts = args.clients or (
        QUICK_CLIENT_COUNTS if args.quick else DEFAULT_CLIENT_COUNTS
    )
    duration = args.duration or (
        QUICK_DURATION_SECONDS if args.quick else DEFAULT_DURATION_SECONDS
    )
    report = run_serve_bench(
        num_edges=num_edges,
        client_counts=client_counts,
        duration_seconds=duration,
        num_keys=args.keys,
        seed=args.seed,
    )

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.output}")
    print(f"parity_ok: {report['parity_ok']}  overload_ok: {report['overload']['ok']}")
    header = (
        f"{'clients':>7} {'qps':>10} {'p50 ms':>8} {'p99 ms':>8} {'mean batch':>11}"
        "  pass qps"
    )
    print(header)
    print("-" * len(header))
    for row in report["results"]:
        print(
            f"{row['clients']:>7} {row['qps']:>10,.0f} {row['p50_ms']:>8.2f} "
            f"{row['p99_ms']:>8.2f} {row['mean_batch_size']:>11.1f}  "
            + " ".join(f"{qps:,.0f}" for qps in row["pass_qps"])
        )
    return 0 if report["parity_ok"] and report["overload"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
