"""Query-throughput benchmark: pre-plan routed path vs compiled query plan.

The ingestion and partition-build hot paths are already benchmark-gated
artifacts (``BENCH_throughput.json``, ``BENCH_build.json``); this runner does
the same for the *query* plane.  It measures queries/second for

* ``direct`` — the pre-plan serving path (``query_edges_direct``: route,
  group per partition, one ``estimate_batch`` per group), and
* ``plan``   — the :class:`~repro.queries.plan.CompiledQueryPlan` read path
  (one hash pass, one route, one fused arena gather, hot-edge cache on small
  batches),

at several batch sizes across every estimator backend, on a Zipf-skewed query
workload (repeated hot edges — the paper's query model, and the regime where
per-call overhead dominates), with a slice of outlier queries mixed in so the
outlier slot is exercised.  Bit-exact parity between the two paths is
verified per backend, including the memoized small-batch path.  Each row
also counts the hot-edge memo's lookups and hits during its ``plan`` passes
(``memo_lookups`` / ``memo_hits``), so memo-served rows read apart from
arena-gathered ones.  Results land in ``BENCH_query.json``.

Run it from the repo root::

    python experiments/query_bench.py            # full run (100k-edge R-MAT)
    python experiments/query_bench.py --quick    # CI smoke (10k edges)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import GSketchConfig
from repro.core.global_sketch import GlobalSketch
from repro.core.gsketch import GSketch
from repro.core.windowed import WindowedGSketch
from repro.datasets.rmat import rmat_stream
from repro.graph.edge import EdgeKey
from repro.graph.sampling import reservoir_sample
from repro.graph.stream import GraphStream
from repro.observability import metrics as obs_metrics
from repro.observability.exposition import registry_excerpt
from repro.queries.workload import zipf_edge_queries

DEFAULT_EDGES = 100_000
QUICK_EDGES = 10_000
DEFAULT_BATCH_SIZES = (1, 8, 64, 1024)
DEFAULT_BACKENDS = ("global", "gsketch", "windowed")
DEFAULT_QUERIES = 1_024
DEFAULT_OUTPUT = "BENCH_query.json"

#: Zipf skewness of the query workload — hot edges are queried repeatedly,
#: which is what the hot-edge cache is for (Section 6.4's skewed query sets).
WORKLOAD_ALPHA = 1.1

#: One query in this many targets a source absent from the stream, so the
#: outlier slot of every plan is exercised (and parity covers it).
OUTLIER_QUERY_STRIDE = 64


@dataclass(frozen=True)
class QueryBenchResult:
    """One (backend, batch size) measurement: both serving paths."""

    backend: str
    batch_size: int
    queries: int
    direct_qps: float
    plan_qps: float
    speedup: float
    parity_ok: bool
    #: Hot-edge memo lookups and hits during the plan path's passes (warm-up
    #: included).  The memo counts one lookup per batch of at most
    #: ``HOT_CACHE_MAX_BATCH`` keys; larger batches never consult it, so a
    #: row with ``memo_lookups == 0`` timed the arena gather alone.
    memo_lookups: int
    memo_hits: int


def build_query_workload(
    stream: GraphStream, num_queries: int, seed: int
) -> List[EdgeKey]:
    """A Zipf-skewed edge-query workload with outlier queries mixed in."""
    queries = zipf_edge_queries(stream, num_queries, WORKLOAD_ALPHA, seed=seed)
    keys = [query.key for query in queries]
    # Deterministically replace every Nth query with an unseen-source edge:
    # those route to the outlier sketch in every partitioned backend.
    for index in range(0, len(keys), OUTLIER_QUERY_STRIDE):
        keys[index] = (10**9 + index, keys[index][1])
    return keys


def _split_batches(keys: Sequence[EdgeKey], batch_size: int) -> List[List[EdgeKey]]:
    return [
        list(keys[start : start + batch_size])
        for start in range(0, len(keys), batch_size)
    ]


def _time_path(
    answer: Callable[[Sequence[EdgeKey]], List[float]],
    batches: Sequence[Sequence[EdgeKey]],
    rounds: int,
    repeats: int,
) -> float:
    """Fastest wall time for ``rounds`` passes over the batched workload.

    One untimed warm-up pass precedes measurement so plan compilation and
    first-touch cache fills are charged to neither path, then the minimum
    over ``repeats`` timed runs is reported (least-noise estimator on a
    contended machine, matching the ingest benchmark's policy).
    """
    for batch in batches:
        answer(batch)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            for batch in batches:
                answer(batch)
        best = min(best, time.perf_counter() - start)
    return best


def check_query_parity(estimator, keys: Sequence[EdgeKey]) -> bool:
    """Bit-exact plan vs direct parity, covering the cached small-batch path."""
    full = estimator.query_edges(list(keys)) == estimator.query_edges_direct(list(keys))
    small = list(keys[:3])
    cached = (
        estimator.query_edges(small)
        == estimator.query_edges(small)  # second call served from the memo
        == estimator.query_edges_direct(small)
    )
    return bool(full and cached)


def build_backend(
    name: str,
    stream: GraphStream,
    sample: GraphStream,
    config: GSketchConfig,
):
    """Construct and fully ingest one named estimator backend."""
    if name == "global":
        estimator = GlobalSketch(config)
        estimator.process(stream)
        return estimator
    if name == "gsketch":
        estimator = GSketch.build(sample, config, stream_size_hint=len(stream))
        estimator.process(stream)
        return estimator
    if name == "windowed":
        estimator = WindowedGSketch(
            config,
            window_length=max(1.0, len(stream) / 4.0),
            sample_size=min(5_000, max(1, len(stream) // 10)),
            seed=config.seed,
        )
        estimator.process(stream)
        return estimator
    raise ValueError(f"unknown query-bench backend {name!r}")


def measure_query_paths(
    estimator,
    backend: str,
    keys: Sequence[EdgeKey],
    batch_sizes: Sequence[int],
    rounds: int,
    repeats: int,
) -> List[QueryBenchResult]:
    """Direct-vs-plan queries/second for one estimator at each batch size."""
    parity = check_query_parity(estimator, keys)
    results = []
    for batch_size in batch_sizes:
        batches = _split_batches(keys, batch_size)
        total_queries = len(keys) * rounds
        direct_seconds = _time_path(
            estimator.query_edges_direct, batches, rounds, repeats
        )
        memo = estimator._hot_cache
        hits, lookups = memo.hits, memo.hits + memo.misses
        plan_seconds = _time_path(estimator.query_edges, batches, rounds, repeats)
        direct_qps = total_queries / direct_seconds
        plan_qps = total_queries / plan_seconds
        results.append(
            QueryBenchResult(
                backend=backend,
                batch_size=batch_size,
                queries=total_queries,
                direct_qps=direct_qps,
                plan_qps=plan_qps,
                speedup=plan_qps / direct_qps,
                parity_ok=parity,
                memo_lookups=memo.hits + memo.misses - lookups,
                memo_hits=memo.hits - hits,
            )
        )
    return results


def run_query_bench(
    num_edges: int = DEFAULT_EDGES,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    num_queries: int = DEFAULT_QUERIES,
    total_cells: int = 60_000,
    depth: int = 4,
    sample_size: int = 5_000,
    seed: int = 7,
    rounds: int = 2,
    repeats: int = 1,
) -> Dict[str, object]:
    """Benchmark every backend on the R-MAT config; returns the report dict."""
    if rounds < 1 or repeats < 1:
        raise ValueError("rounds and repeats must be >= 1")
    config = GSketchConfig(total_cells=total_cells, depth=depth, seed=seed)
    stream = rmat_stream(num_edges, seed=seed)
    stream.to_batch()  # columnarize once; ingestion is not what's timed here
    sample = reservoir_sample(stream, sample_size, seed=seed)
    keys = build_query_workload(stream, num_queries, seed=seed + 2)

    results: List[QueryBenchResult] = []
    hot_caches: Dict[str, object] = {}
    # Telemetry stays on through the timed passes: the committed floors are
    # plan-vs-direct ratios of the *instrumented* query plane, so the gate
    # proves the instrumentation is affordable, not just present.
    was_enabled = obs_metrics.enabled()
    obs_metrics.set_enabled(True)
    try:
        for backend in backends:
            estimator = build_backend(backend, stream, sample, config)
            try:
                results.extend(
                    measure_query_paths(
                        estimator, backend, keys, batch_sizes, rounds, repeats
                    )
                )
                cache = getattr(estimator, "_hot_cache", None)
                if cache is not None:
                    hot_caches[backend] = cache.telemetry()
            finally:
                close = getattr(estimator, "close", None)
                if close is not None:
                    close()
    finally:
        obs_metrics.set_enabled(was_enabled)

    return {
        "benchmark": "query-throughput",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": {
            "dataset": "rmat",
            "num_edges": num_edges,
            "total_cells": total_cells,
            "depth": depth,
            "sample_size": sample_size,
            "seed": seed,
            "num_queries": num_queries,
            "workload": f"zipf(alpha={WORKLOAD_ALPHA}) + outlier every "
            f"{OUTLIER_QUERY_STRIDE}th query",
            "batch_sizes": list(batch_sizes),
            "rounds": rounds,
            "repeats": repeats,
            "timing": "minimum wall time over repeats; warm-up pass untimed "
            "for both paths",
        },
        "parity_ok": all(row.parity_ok for row in results),
        "results": [asdict(row) for row in results],
        # Query-plane registry excerpt (accumulated over every backend's
        # timed passes) plus each backend's hot-edge cache counters.
        "telemetry": {
            "query_plane": registry_excerpt(("repro_query_", "repro_plan_")),
            "hot_cache": hot_caches,
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--edges",
        type=int,
        default=DEFAULT_EDGES,
        help=f"R-MAT stream length (default {DEFAULT_EDGES})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: {QUICK_EDGES} edges, fewer repeats",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=DEFAULT_QUERIES,
        help=f"workload size per timed pass (default {DEFAULT_QUERIES})",
    )
    parser.add_argument(
        "--batch-sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_BATCH_SIZES),
        help=f"query batch sizes to measure (default {DEFAULT_BATCH_SIZES})",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=list(DEFAULT_BACKENDS),
        help=f"backends to measure (default {DEFAULT_BACKENDS})",
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
        help="measurements per path, best (minimum) wall time reported "
        "(default: 3 full, 2 quick)",
    )
    args = parser.parse_args(argv)

    num_edges = QUICK_EDGES if args.quick else args.edges
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)
    report = run_query_bench(
        num_edges=num_edges,
        backends=args.backends,
        batch_sizes=args.batch_sizes,
        num_queries=args.queries,
        seed=args.seed,
        repeats=repeats,
    )

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"wrote {args.output}")
    print(f"parity_ok: {report['parity_ok']}")
    header = f"{'backend':<12} {'batch':>6} {'direct q/s':>12} {'plan q/s':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for row in report["results"]:
        print(
            f"{row['backend']:<12} {row['batch_size']:>6} "
            f"{row['direct_qps']:>12,.0f} {row['plan_qps']:>12,.0f} "
            f"{row['speedup']:>8.2f}x"
        )
    return 0 if report["parity_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
