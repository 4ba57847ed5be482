"""Ingestion-throughput benchmark: per-edge vs batched vs sharded.

The ROADMAP demands that hot-path speedups be *tracked artifacts*, not
claims.  This runner measures edges/second for

* ``per-edge``   — :meth:`~repro.core.gsketch.GSketch.update` per element
  (the paper's online-maintenance loop, all-Python);
* ``batched``    — one vectorized route → hash → scatter pass per batch
  into the compiled plan's arena (:func:`~repro.sketches.arena.apply_batch`),
  driven through the :class:`~repro.api.engine.SketchEngine` facade (the
  public ingest surface);
* ``sharded-N``  — :class:`~repro.distributed.coordinator.ShardedGSketch`
  with N in-process shards over one arena, built and fed through the same
  facade,

over two generators (R-MAT and Zipf), verifies that every mode returns
identical estimates on a sample of query edges, and writes the results to
``BENCH_throughput.json``.

Run it from the repo root::

    python experiments/throughput.py            # full run (100k edges)
    python experiments/throughput.py --quick    # CI smoke (10k edges)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.core.gsketch import GSketch
from repro.datasets.rmat import rmat_stream
from repro.datasets.zipf import zipf_stream
from repro.graph.sampling import reservoir_sample
from repro.observability import metrics as obs_metrics
from repro.observability.exposition import registry_excerpt
from repro.observability.instruments import INGEST_BATCHES, INGEST_STAGE

DEFAULT_EDGES = 100_000
QUICK_EDGES = 10_000
DEFAULT_SHARD_COUNTS = (1, 2, 4)
DEFAULT_OUTPUT = "BENCH_throughput.json"


@dataclass(frozen=True)
class ThroughputResult:
    """One (dataset, mode) measurement.

    ``breakdown`` (sharded modes only) decomposes the ingest wall time from
    deltas of the :mod:`repro.observability` ingest-stage histograms:
    ``route_seconds`` is the vectorized route + key hashing of every batch,
    ``apply_wall_seconds`` the one-kernel scatter into the arena, and
    ``coordinator_seconds`` everything but the scatter (routing, hashing,
    columnar slicing, validation, bookkeeping).
    """

    dataset: str
    mode: str
    edges: int
    seconds: float
    edges_per_second: float
    speedup_vs_per_edge: Optional[float] = None
    breakdown: Optional[Dict[str, object]] = field(default=None)


def _time_mode(ingest: Callable[[], object]) -> float:
    start = time.perf_counter()
    ingest()
    return time.perf_counter() - start


def _best_of(repeats: int, measure: Callable[[], "tuple[float, object]"]):
    """Run ``measure`` ``repeats`` times; keep the fastest run's result.

    ``measure`` builds a fresh engine, times one full ingest, and returns
    ``(seconds, payload)`` — the payload (breakdown, reference estimates)
    of the minimum-time run is what gets reported, so timing and diagnostics
    always describe the same run.
    """
    best_seconds = float("inf")
    best_payload: object = None
    for _ in range(repeats):
        seconds, payload = measure()
        if seconds < best_seconds:
            best_seconds, best_payload = seconds, payload
    return best_seconds, best_payload


def run_throughput(
    num_edges: int = DEFAULT_EDGES,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    batch_size: int = 8192,
    total_cells: int = 60_000,
    depth: int = 4,
    sample_size: int = 5_000,
    seed: int = 7,
    parity_queries: int = 200,
    repeats: int = 1,
) -> Dict[str, object]:
    """Run every mode on every generator; returns the report dictionary.

    With ``repeats > 1`` every mode is measured that many times on a fresh
    engine and the **minimum** wall time is reported — the least-noise
    estimator of achievable throughput on a contended machine.  Parity is
    verified on every repeat regardless.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    config = GSketchConfig(total_cells=total_cells, depth=depth, seed=seed)
    streams = {
        "rmat": rmat_stream(num_edges, seed=seed),
        "zipf": zipf_stream(num_edges, seed=seed),
    }
    results: List[ThroughputResult] = []
    parity_ok = True

    for name, stream in streams.items():
        sample = reservoir_sample(stream, sample_size, seed=seed)
        query_edges = sorted(stream.distinct_edges())[:parity_queries]
        # Columnarize once up front: the cache is shared by every batched
        # mode, so no mode is charged the one-time conversion.
        stream.to_batch()

        def fresh() -> GSketch:
            return GSketch.build(sample, config, stream_size_hint=len(stream))

        # Hoisted parity setup: one untimed reference ingest per dataset
        # yields the reference answers every mode (and every repeat) is
        # checked against — instead of re-deriving them inside the per-edge
        # measurement loop — and the query-plane parity check (compiled plan
        # vs the pre-plan routed path, bit-exact) rides the same engine.
        reference = SketchEngine.from_estimator(fresh())
        reference.ingest(stream, batch_size)
        reference_estimates = reference.estimator.query_edges(query_edges)
        parity_ok &= (
            reference.estimator.query_edges_direct(query_edges)
            == reference_estimates
        )

        def check_parity(engine: SketchEngine) -> None:
            nonlocal parity_ok
            parity_ok &= (
                engine.estimator.query_edges(query_edges) == reference_estimates
            )

        def report(mode: str, seconds: float, breakdown=None, baseline=None) -> None:
            results.append(
                ThroughputResult(
                    dataset=name,
                    mode=mode,
                    edges=len(stream),
                    seconds=seconds,
                    edges_per_second=len(stream) / seconds,
                    speedup_vs_per_edge=None if baseline is None else baseline / seconds,
                    breakdown=breakdown,
                )
            )

        # --- per-edge reference -------------------------------------- #
        def measure_per_edge():
            per_edge = fresh()
            seconds = _time_mode(
                lambda: [
                    per_edge.update(e.source, e.target, e.frequency) for e in stream
                ]
            )
            check_parity(SketchEngine.from_estimator(per_edge))
            return seconds, None

        per_edge_seconds, _ = _best_of(repeats, measure_per_edge)
        report("per-edge", per_edge_seconds)

        # --- batched (through the facade) ----------------------------- #
        def measure_batched():
            engine = SketchEngine.from_estimator(fresh())
            seconds = _time_mode(lambda: engine.ingest(stream, batch_size))
            check_parity(engine)
            return seconds, None

        batched_seconds, _ = _best_of(repeats, measure_batched)
        report("batched", batched_seconds, baseline=per_edge_seconds)

        # --- sharded (in-process shards over one arena) ---------------- #
        def measure_sharded(num_shards: int):
            engine = (
                SketchEngine.builder()
                .config(config)
                .sample(sample)
                .stream_size_hint(len(stream))
                .sharded(num_shards)
                .build()
            )
            before_stage = {name: h.sum for name, h in INGEST_STAGE.items()}
            before_batches = INGEST_BATCHES.value
            was_enabled = obs_metrics.enabled()
            obs_metrics.set_enabled(True)
            try:
                seconds = _time_mode(
                    lambda: engine.ingest(stream, batch_size=batch_size)
                )
            finally:
                obs_metrics.set_enabled(was_enabled)
            check_parity(engine)
            stage = {
                name: INGEST_STAGE[name].sum - before_stage[name]
                for name in INGEST_STAGE
            }
            breakdown = {
                "coordinator_seconds": round(max(0.0, seconds - stage["apply"]), 6),
                "apply_wall_seconds": round(stage["apply"], 6),
                "route_seconds": round(stage["route"], 6),
                "batches": int(INGEST_BATCHES.value - before_batches),
                "source": "repro_ingest_stage_seconds registry deltas",
            }
            return seconds, breakdown

        for num_shards in shard_counts:
            seconds, breakdown = _best_of(
                repeats, lambda: measure_sharded(num_shards)
            )
            report(
                f"sharded-{num_shards}",
                seconds,
                breakdown=breakdown,
                baseline=per_edge_seconds,
            )

    return {
        "benchmark": "ingestion-throughput",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": {
            "num_edges": num_edges,
            "batch_size": batch_size,
            "total_cells": total_cells,
            "depth": depth,
            "sample_size": sample_size,
            "seed": seed,
            "shard_counts": list(shard_counts),
            "repeats": repeats,
            "timing": "minimum wall time over repeats (fresh engine per repeat)",
            "columnarization": "warmed before timing (shared by all batched modes)",
            "parity": "reference answers hoisted to one untimed ingest per "
            "dataset; includes compiled-plan vs direct-path bit-exact check",
        },
        "parity_ok": bool(parity_ok),
        "results": [asdict(r) for r in results],
        # Ingest-plane registry excerpt, accumulated over the instrumented
        # (sharded) runs above — bucket arrays elided.
        "telemetry": registry_excerpt(("repro_ingest_",)),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--edges",
        type=int,
        default=DEFAULT_EDGES,
        help=f"stream length per generator (default {DEFAULT_EDGES})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: {QUICK_EDGES} edges, shards (1, 2)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=8192, help="elements per ingest block"
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help=f"report path (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="measurements per mode, best (minimum) wall time reported "
        "(default: 3 full, 2 quick)",
    )
    args = parser.parse_args(argv)

    num_edges = QUICK_EDGES if args.quick else args.edges
    shard_counts = (1, 2) if args.quick else DEFAULT_SHARD_COUNTS
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)
    report = run_throughput(
        num_edges=num_edges,
        shard_counts=shard_counts,
        batch_size=args.batch_size,
        seed=args.seed,
        repeats=repeats,
    )

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.output}")
    print(f"parity_ok: {report['parity_ok']}")
    header = f"{'dataset':<8} {'mode':<12} {'edges/s':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for row in report["results"]:
        speedup = row["speedup_vs_per_edge"]
        print(
            f"{row['dataset']:<8} {row['mode']:<12} "
            f"{row['edges_per_second']:>12,.0f} "
            f"{('%.2fx' % speedup) if speedup else '—':>9}"
        )
    return 0 if report["parity_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
