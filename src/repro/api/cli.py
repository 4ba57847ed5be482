"""``python -m repro`` — build, ingest, query and bench through the facade.

Every command drives the same :class:`~repro.api.engine.SketchEngine` API the
library exposes, so the CLI doubles as a smoke test of the public surface::

    python -m repro build  --dataset rmat --edges 20000 --cells 60000 --out sketch.snap
    python -m repro ingest --snapshot sketch.snap --dataset rmat --edges 20000
    python -m repro query  --snapshot sketch.snap --sample 5 --dataset rmat --edges 20000
    python -m repro query  --snapshot sketch.snap --edge 3 17
    python -m repro bench  --dataset rmat --edges 20000 --cells 60000
    python -m repro query-bench --dataset rmat --edges 20000 --batch-sizes 1 8 64
    python -m repro serve  --snapshot sketch.snap --port 8765
    python -m repro query  --connect 127.0.0.1:8765 --edge 3 17

Datasets are either registry names (``dblp-tiny``, ``gtgraph-small``, ... —
see :func:`repro.datasets.registry.available_datasets`) or the synthetic
``rmat`` / ``zipf`` generators parameterized by ``--edges`` / ``--scale``.
All commands print a single JSON document to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from typing import Hashable, List, Optional, Sequence

from repro.api.engine import DEFAULT_SAMPLE_SIZE, EngineError, SketchEngine
from repro.api.queries import EdgeQuery, WindowQuery
from repro.core.config import GSketchConfig
from repro.datasets.registry import available_datasets, load_dataset
from repro.graph.sampling import zipf_workload_stream
from repro.graph.stream import GraphStream
from repro.queries.workload import uniform_edge_queries

DEFAULT_CELLS = 60_000
DEFAULT_DEPTH = 5
DEFAULT_SEED = 7


def _coerce_label(label: str) -> Hashable:
    """CLI edge labels: integers when they parse, strings otherwise."""
    try:
        return int(label)
    except ValueError:
        return label


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="rmat",
        help=(
            "registry dataset name, or synthetic 'rmat' / 'zipf' "
            f"(registry: {', '.join(available_datasets())})"
        ),
    )
    parser.add_argument(
        "--edges", type=int, default=20_000, help="stream length for synthetic datasets"
    )
    parser.add_argument(
        "--scale", type=int, default=12, help="R-MAT vertex scale (2^scale vertices)"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)


def resolve_stream(args: argparse.Namespace) -> GraphStream:
    """The dataset stream named by the common CLI arguments."""
    name = args.dataset
    if name == "rmat":
        from repro.datasets.rmat import rmat_stream

        return rmat_stream(
            args.edges, scale=args.scale, seed=args.seed, name=f"rmat-{args.edges}"
        )
    if name == "zipf":
        from repro.datasets.zipf import zipf_stream

        population = max(2, 2 ** max(1, args.scale - 3))
        return zipf_stream(
            args.edges, population=population, seed=args.seed, name=f"zipf-{args.edges}"
        )
    return load_dataset(name, seed=args.seed).stream


def _emit(document: dict) -> None:
    json.dump(document, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _open_engine(path: str) -> SketchEngine:
    """Load an engine from a snapshot file or a checkpoint directory."""
    if os.path.isdir(path):
        return SketchEngine.restore(path)
    return SketchEngine.load(path)


# ---------------------------------------------------------------------- #
# Commands
# ---------------------------------------------------------------------- #
def cmd_build(args: argparse.Namespace) -> int:
    if args.baseline and (args.sharded is not None or args.windowed is not None):
        raise EngineError(
            "--baseline builds the unpartitioned Global Sketch and cannot be "
            "combined with --sharded or --windowed"
        )
    stream = resolve_stream(args)
    config = GSketchConfig(total_cells=args.cells, depth=args.depth, seed=args.seed)
    builder = SketchEngine.builder().config(config)
    if not args.baseline:
        builder = builder.dataset(stream).sample_size(args.sample_size)
    if args.workload_alpha is not None:
        workload = zipf_workload_stream(
            stream, args.sample_size, args.workload_alpha, seed=args.seed + 1
        )
        builder = builder.workload(workload)
    if args.sharded is not None:
        builder = builder.sharded(args.sharded)
    if args.windowed is not None:
        builder = builder.windowed(args.windowed, sample_size=args.sample_size)

    engine = builder.build()
    ingested = engine.ingest(stream, batch_size=args.batch_size) if args.ingest else 0
    engine.save(args.out)
    summary = engine.describe()
    if args.checkpoint_dir is not None:
        engine.checkpoint(args.checkpoint_dir)
        summary["checkpoint"] = args.checkpoint_dir
    engine.close()
    summary.update({"snapshot": args.out, "dataset": stream.name, "ingested": ingested})
    _emit(summary)
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    engine = _open_engine(args.snapshot)
    stream = resolve_stream(args)
    ingested = engine.ingest(stream, batch_size=args.batch_size)
    summary = engine.describe()
    if args.checkpoint_dir is not None:
        engine.checkpoint(args.checkpoint_dir)
        summary["checkpoint"] = args.checkpoint_dir
    out = args.out or args.snapshot
    if os.path.isdir(out):
        # The input was a checkpoint directory: update it incrementally.
        engine.checkpoint(out)
        summary["checkpoint"] = out
    else:
        engine.save(out)
        summary["snapshot"] = out
    engine.close()
    summary.update({"dataset": stream.name, "ingested": ingested})
    _emit(summary)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if (args.snapshot is None) == (args.connect is None):
        raise EngineError(
            "pass exactly one of --snapshot PATH (local) or --connect HOST:PORT (wire)"
        )
    keys: List[tuple] = [
        (_coerce_label(source), _coerce_label(target)) for source, target in args.edge or []
    ]
    if args.sample:
        stream = resolve_stream(args)
        keys.extend(
            q.key for q in uniform_edge_queries(stream, args.sample, seed=args.seed + 2)
        )
    if not keys:
        raise EngineError("nothing to query: pass --edge S T (repeatable) and/or --sample K")

    if args.connect is not None:
        return _query_over_wire(args, keys)

    engine = _open_engine(args.snapshot)
    if args.window is not None:
        start, end = args.window
        estimates = [
            engine.query(WindowQuery(source, target, start, end)) for source, target in keys
        ]
    else:
        estimates = engine.query([EdgeQuery(source, target) for source, target in keys])
    engine.close()
    _emit(
        {
            "backend": engine.backend,
            "snapshot": args.snapshot,
            "estimates": [
                {"source": str(key[0]), "target": str(key[1]), **estimate.to_dict()}
                for key, estimate in zip(keys, estimates)
            ],
        }
    )
    return 0


def _query_over_wire(args: argparse.Namespace, keys: List[tuple]) -> int:
    """``query --connect``: answer the edges through a running ``serve``."""
    from repro.serving import ServingError, SyncServingClient
    from repro.serving.wire import parse_address

    if args.window is not None:
        raise EngineError("--window queries are not served over the wire")
    host, port = parse_address(args.connect)
    try:
        with SyncServingClient(host, port) as client:
            if args.confidence:
                estimates = client.query_edges_confidence(keys)
                generation = estimates[0].get("generation") if estimates else None
                rows = [
                    {"source": str(key[0]), "target": str(key[1]), **estimate}
                    for key, estimate in zip(keys, estimates)
                ]
            else:
                result = client.query_edges(keys)
                generation = result.generation
                rows = [
                    {"source": str(key[0]), "target": str(key[1]), "value": value}
                    for key, value in zip(keys, result.values)
                ]
            document = {
                "backend": client.hello.get("backend"),
                "connect": f"{host}:{port}",
                "generation": generation,
                "estimates": rows,
            }
    except (ServingError, ConnectionError) as error:
        raise EngineError(f"serving request failed: {error}") from error
    _emit(document)
    return 0


def _probe_health(address: str) -> int:
    """``serve --health``: readiness probe against a running server.

    Prints the server's health document and exits 0 only when the state is
    ``serving`` — ``starting``, ``draining``, and unreachable all probe
    unhealthy, so the exit code slots straight into init-system and CI
    readiness checks.
    """
    from repro.serving import ServingError, SyncServingClient
    from repro.serving.wire import STATE_SERVING, parse_address

    host, port = parse_address(address)
    try:
        with SyncServingClient(host, port, timeout=5.0) as client:
            document = client.health()
    except (ServingError, ConnectionError, OSError) as error:
        _emit({"healthy": False, "probe": address, "error": str(error)})
        return 1
    document.pop("id", None)
    document.pop("status", None)
    healthy = document.get("state") == STATE_SERVING
    _emit({"healthy": healthy, "probe": address, **document})
    return 0 if healthy else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a snapshot over TCP until interrupted (SIGINT drains gracefully).

    Prints one JSON ready-line (with the bound port — useful with
    ``--port 0``) as soon as the socket is listening, then a final JSON
    stats document after the drain.  With ``--health HOST:PORT`` it instead
    probes a running server's readiness and exits.
    """
    from repro.serving import ServingConfig
    from repro.serving.server import run_server

    if args.health is not None:
        return _probe_health(args.health)
    if args.snapshot is None:
        raise EngineError("serve requires --snapshot (or --health to probe)")
    engine = _open_engine(args.snapshot)
    config = ServingConfig(
        max_batch=args.max_batch,
        max_delay_us=args.max_delay_us,
        max_pending=args.max_pending,
        allow_ingest=args.allow_ingest,
    )
    final_stats: dict = {}

    def on_started(server) -> None:
        host, port = server.address
        json.dump(
            {
                "serving": True,
                "host": host,
                "port": port,
                "backend": engine.backend,
                "snapshot": args.snapshot,
                "max_batch": config.max_batch,
                "allow_ingest": config.allow_ingest,
            },
            sys.stdout,
        )
        sys.stdout.write("\n")
        sys.stdout.flush()
        final_stats["server"] = server

    try:
        run_server(engine, args.host, args.port, config, on_started)
    finally:
        engine.close()
    server = final_stats.get("server")
    if server is not None:
        _emit({"serving": False, **server.stats()})
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    stream = resolve_stream(args)
    config = GSketchConfig(total_cells=args.cells, depth=args.depth, seed=args.seed)
    builder = SketchEngine.builder().config(config).dataset(stream)
    if args.sharded is not None:
        builder = builder.sharded(args.sharded)
    engine = builder.build()

    start = time.perf_counter()
    ingested = engine.ingest(stream, batch_size=args.batch_size)
    ingest_seconds = time.perf_counter() - start

    queries = [q.key for q in uniform_edge_queries(stream, args.queries, seed=args.seed + 2)]
    start = time.perf_counter()
    engine.query([EdgeQuery(source, target) for source, target in queries])
    query_seconds = time.perf_counter() - start
    engine.close()

    _emit(
        {
            "benchmark": "facade",
            "backend": engine.backend,
            "dataset": stream.name,
            "edges": ingested,
            "ingest_seconds": round(ingest_seconds, 6),
            "edges_per_second": round(ingested / ingest_seconds, 1),
            "queries": len(queries),
            "query_seconds": round(query_seconds, 6),
            "queries_per_second": round(len(queries) / max(query_seconds, 1e-12), 1),
        }
    )
    return 0


def cmd_query_bench(args: argparse.Namespace) -> int:
    """Query-throughput mode: pre-plan routed path vs the compiled plan.

    Builds one backend through the facade, ingests the dataset, freezes the
    read plan (:meth:`~repro.api.engine.SketchEngine.frozen`) and reports
    queries/second for both serving paths at each requested batch size —
    the CLI twin of ``experiments/query_bench.py``.
    """
    from repro.experiments.query_bench import build_query_workload, measure_query_paths

    if args.baseline and (args.sharded is not None or args.windowed is not None):
        raise EngineError(
            "--baseline benches the unpartitioned Global Sketch and cannot be "
            "combined with --sharded or --windowed"
        )
    stream = resolve_stream(args)
    config = GSketchConfig(total_cells=args.cells, depth=args.depth, seed=args.seed)
    builder = SketchEngine.builder().config(config)
    if not args.baseline:
        builder = builder.dataset(stream)
    if args.sharded is not None:
        builder = builder.sharded(args.sharded)
    if args.windowed is not None:
        builder = builder.windowed(args.windowed)
    engine = builder.build()
    try:
        engine.ingest(stream, batch_size=args.batch_size)
        engine.frozen()
        keys = build_query_workload(stream, args.queries, seed=args.seed + 2)
        rows = measure_query_paths(
            engine.estimator,
            engine.backend,
            keys,
            args.batch_sizes,
            rounds=args.rounds,
            repeats=args.repeats,
        )
    finally:
        engine.close()
    parity = all(row.parity_ok for row in rows)
    _emit(
        {
            "benchmark": "query-throughput",
            "backend": engine.backend,
            "dataset": stream.name,
            "queries": len(keys),
            "parity_ok": parity,
            "results": [asdict(row) for row in rows],
        }
    )
    return 0 if parity else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Telemetry surface: build, ingest and query in-process, then report.

    Enables :mod:`repro.observability`, runs a full ingest plus a query
    workload shaped to light up every plane (one large compiled-plan batch,
    repeated singleton lookups for the hot-edge cache), and prints either
    the JSON document from :meth:`SketchEngine.metrics` or the Prometheus
    text exposition of the registry.
    """
    from repro.observability import (
        configure_tracing,
        get_registry,
        render_prometheus,
        set_enabled,
    )

    if args.baseline and (args.sharded is not None or args.windowed is not None):
        raise EngineError(
            "--baseline profiles the unpartitioned Global Sketch and cannot be "
            "combined with --sharded or --windowed"
        )
    set_enabled(True)
    get_registry().reset()
    if args.trace_file:
        configure_tracing(args.trace_file)
    stream = resolve_stream(args)
    config = GSketchConfig(total_cells=args.cells, depth=args.depth, seed=args.seed)
    builder = SketchEngine.builder().config(config)
    if not args.baseline:
        builder = builder.dataset(stream)
    if args.sharded is not None:
        builder = builder.sharded(args.sharded)
    if args.windowed is not None:
        builder = builder.windowed(args.windowed)
    engine = builder.build()
    try:
        engine.ingest(stream, batch_size=args.batch_size)
        engine.frozen()
        keys = [
            q.key for q in uniform_edge_queries(stream, args.queries, seed=args.seed + 2)
        ]
        estimator = engine.estimator
        estimator.query_edges(keys)
        # Repeated singleton lookups: the first pass misses and populates the
        # hot-edge cache, the second hits it.
        for _ in range(2):
            for key in keys[: min(16, len(keys))]:
                estimator.query_edges([key])
        document = engine.metrics()
    finally:
        engine.close()
    if args.format == "prometheus":
        sys.stdout.write(render_prometheus())
    else:
        document["dataset"] = stream.name
        _emit(document)
    return 0


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Build, ingest into, query and bench gSketch estimators.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="partition an estimator and snapshot it")
    _add_dataset_arguments(build)
    build.add_argument("--cells", type=int, default=DEFAULT_CELLS)
    build.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    build.add_argument("--sample-size", type=int, default=DEFAULT_SAMPLE_SIZE)
    build.add_argument(
        "--workload-alpha",
        type=float,
        default=None,
        help="partition with a Zipf workload sample of this skewness",
    )
    build.add_argument("--sharded", type=int, default=None, metavar="N")
    build.add_argument("--windowed", type=float, default=None, metavar="LENGTH")
    build.add_argument(
        "--baseline", action="store_true", help="Global Sketch baseline (no partitioning)"
    )
    build.add_argument(
        "--ingest", action="store_true", help="also ingest the full dataset before saving"
    )
    build.add_argument("--batch-size", type=int, default=8192)
    build.add_argument("--out", required=True, help="snapshot path to write")
    build.add_argument(
        "--checkpoint-dir",
        default=None,
        help="also write a crash-consistent checkpoint directory",
    )
    build.set_defaults(func=cmd_build)

    ingest = commands.add_parser("ingest", help="ingest a dataset into a snapshot")
    _add_dataset_arguments(ingest)
    ingest.add_argument(
        "--snapshot", required=True, help="snapshot file or checkpoint directory"
    )
    ingest.add_argument("--out", default=None, help="output path (default: overwrite)")
    ingest.add_argument("--batch-size", type=int, default=8192)
    ingest.add_argument(
        "--checkpoint-dir",
        default=None,
        help="also write (or incrementally update) a checkpoint directory",
    )
    ingest.set_defaults(func=cmd_ingest)

    query = commands.add_parser("query", help="answer edge queries from a snapshot")
    _add_dataset_arguments(query)
    query.add_argument(
        "--edge",
        nargs=2,
        action="append",
        metavar=("SOURCE", "TARGET"),
        help="edge to estimate (repeatable)",
    )
    query.add_argument(
        "--sample",
        type=int,
        default=0,
        help="additionally sample this many query edges from the dataset",
    )
    query.add_argument(
        "--window",
        nargs=2,
        type=float,
        default=None,
        metavar=("START", "END"),
        help="restrict to a time window (windowed backend only)",
    )
    query.add_argument(
        "--snapshot", default=None, help="snapshot file or checkpoint directory"
    )
    query.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="query a running `serve` over the wire instead of a snapshot",
    )
    query.add_argument(
        "--confidence",
        action="store_true",
        help="with --connect: typed estimates with intervals and provenance",
    )
    query.set_defaults(func=cmd_query)

    serve = commands.add_parser(
        "serve", help="serve a snapshot over TCP with cross-client query coalescing"
    )
    serve.add_argument(
        "--snapshot", default=None, help="snapshot file or checkpoint directory"
    )
    serve.add_argument(
        "--health",
        default=None,
        metavar="HOST:PORT",
        help="probe a running server's readiness instead of serving "
        "(exit 0 only when its state is 'serving')",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks a free one)"
    )
    serve.add_argument("--max-batch", type=int, default=512)
    serve.add_argument(
        "--max-delay-us", type=int, default=200, help="micro-batching dally"
    )
    serve.add_argument(
        "--max-pending", type=int, default=4096, help="admission bound (waiting keys)"
    )
    serve.add_argument(
        "--allow-ingest",
        action="store_true",
        help="accept live ingest frames while serving",
    )
    serve.set_defaults(func=cmd_serve)

    bench = commands.add_parser("bench", help="facade ingest/query throughput")
    _add_dataset_arguments(bench)
    bench.add_argument("--cells", type=int, default=DEFAULT_CELLS)
    bench.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    bench.add_argument("--sharded", type=int, default=None, metavar="N")
    bench.add_argument("--batch-size", type=int, default=8192)
    bench.add_argument("--queries", type=int, default=500)
    bench.set_defaults(func=cmd_bench)

    query_bench = commands.add_parser(
        "query-bench",
        help="query throughput: pre-plan routed path vs the compiled plan",
    )
    _add_dataset_arguments(query_bench)
    query_bench.add_argument("--cells", type=int, default=DEFAULT_CELLS)
    query_bench.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    query_bench.add_argument("--sharded", type=int, default=None, metavar="N")
    query_bench.add_argument(
        "--windowed", type=float, default=None, metavar="LENGTH"
    )
    query_bench.add_argument(
        "--baseline",
        action="store_true",
        help="Global Sketch baseline (no partitioning)",
    )
    query_bench.add_argument("--batch-size", type=int, default=8192)
    query_bench.add_argument(
        "--batch-sizes",
        type=int,
        nargs="+",
        default=[1, 8, 64],
        metavar="M",
        help="query batch sizes to measure (default: 1 8 64)",
    )
    query_bench.add_argument(
        "--queries", type=int, default=512, help="workload size per timed pass"
    )
    query_bench.add_argument("--rounds", type=int, default=2)
    query_bench.add_argument("--repeats", type=int, default=2)
    query_bench.set_defaults(func=cmd_query_bench)

    stats = commands.add_parser(
        "stats",
        help="telemetry snapshot: ingest + query with observability enabled",
    )
    _add_dataset_arguments(stats)
    stats.add_argument("--cells", type=int, default=DEFAULT_CELLS)
    stats.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    stats.add_argument("--sharded", type=int, default=None, metavar="N")
    stats.add_argument("--windowed", type=float, default=None, metavar="LENGTH")
    stats.add_argument(
        "--baseline",
        action="store_true",
        help="Global Sketch baseline (no partitioning)",
    )
    stats.add_argument("--batch-size", type=int, default=8192)
    stats.add_argument(
        "--queries", type=int, default=256, help="query workload size to replay"
    )
    stats.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="output format (default: json)",
    )
    stats.add_argument(
        "--trace-file",
        default=None,
        help="also append JSON-lines phase trace events to this path",
    )
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # EngineError and SnapshotError are ValueErrors; plain ValueError also
    # covers backend input validation (bad configs, out-of-order elements).
    # OSError covers unreadable/unwritable snapshot paths (missing file,
    # directory, permission) so every user error exits 2 with JSON.
    except (ValueError, KeyError, OSError) as error:
        json.dump({"error": str(error)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
