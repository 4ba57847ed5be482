"""The system under test, in its own process.

``run.py`` starts this script once per pass::

    python perfbench/system.py WORKDIR WORKLOAD [--trace]

It loads the inputs ``run.py`` generated into ``WORKDIR`` and sets the
engine up — build from the partitioning sample, preload in
``sizes.batch``-edge batches, ``frozen()`` and, for ``serve-mixed``,
bind a server — timing it from the first builder call to ready.  That
engine is the one measured.  After each round of the measured phases the
process sets up once more and throws the result away, so the
``sizes.setups`` set-up timings sample the whole run, not one end of it.
A :class:`pace.Sampler` thread times a fixed kernel throughout, so
``run.py`` can scale each timing to the reference CPU speed.

* ``serve-mixed``: prints a ``ready`` event with the bound port, then answers
  JSON-line commands on stdin — ``mark`` (counters and CPU time),
  ``setup`` (one more set-up while the load generator pauses between
  rounds) and ``finish`` (drain, the last set-up, exit) — while the server
  thread serves the load generator.
* ``embedded-bulk``: drives the library in-process — bulk ingest, edge
  queries, subgraph queries — and writes every answer to ``WORKDIR``.

Every event is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import inputs
import pace

CONFIG_CELLS = 60_000
CONFIG_DEPTH = 4

_PRELOAD = ("pre_src", "pre_dst", "sample_idx")
SYSTEM_INPUTS = {
    "serve-mixed": _PRELOAD,
    "embedded-bulk": _PRELOAD
    + ("bulk_src", "bulk_dst", "eq_src", "eq_dst", "sg_src", "sg_dst"),
}


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stream_size_hint(workload: str, sizes: inputs.Sizes) -> int:
    """Elements the engine will absorb (Theorem-1 extrapolation input)."""
    if workload == "embedded-bulk":
        return sizes.preload + sizes.bulk
    return sizes.preload + sizes.frames * sizes.frame_edges


def sample_stream(arrays):
    """The partitioning sample as the ``GraphStream`` the builder takes."""
    from repro.graph.edge import StreamEdge
    from repro.graph.stream import GraphStream

    index = arrays["sample_idx"]
    sources = arrays["pre_src"][index].tolist()
    targets = arrays["pre_dst"][index].tolist()
    return GraphStream(
        [StreamEdge(s, t, float(i), 1.0) for i, (s, t) in enumerate(zip(sources, targets))],
        name="sample",
    )


def build_engine(sample, hint: int):
    from repro.api.engine import SketchEngine
    from repro.core.config import GSketchConfig

    return (
        SketchEngine.builder()
        .config(GSketchConfig(total_cells=CONFIG_CELLS, depth=CONFIG_DEPTH))
        .sample(sample)
        .stream_size_hint(hint)
        .build()
    )


def ingest_columns(engine, sources, targets, batch: int, latencies=None) -> None:
    """Ingest integer columns in ``batch``-edge ``EdgeBatch`` views."""
    from repro.graph.batch import EdgeBatch

    ones = np.ones(batch, dtype=np.float64)
    stamps = np.arange(len(sources), dtype=np.float64)
    for start in range(0, len(sources), batch):
        stop = min(start + batch, len(sources))
        edges = EdgeBatch(
            sources[start:stop], targets[start:stop], ones[: stop - start], stamps[start:stop]
        )
        began = time.perf_counter()
        engine.ingest_batch(edges)
        if latencies is not None:
            latencies.append(time.perf_counter() - began)


def set_up(workload: str, arrays, sizes: inputs.Sizes, serving_config):
    """Build, preload, compile (and bind): ``(engine, handle, timing)``.

    The timing holds the set-up's wall-clock span, to find the pace pulses
    taken during it.
    """
    sample = sample_stream(arrays)
    began = time.perf_counter_ns()
    engine = build_engine(sample, stream_size_hint(workload, sizes))
    ingest_columns(engine, arrays["pre_src"], arrays["pre_dst"], sizes.batch)
    engine.frozen()
    handle = engine.serve(config=serving_config) if serving_config is not None else None
    ended = time.perf_counter_ns()
    timing = {"setup_s": (ended - began) / 1e9, "span_ns": [began, ended]}
    return engine, handle, timing


def set_up_again(workload: str, arrays, sizes: inputs.Sizes, serving_config, tracer) -> dict:
    """One more set-up between rounds, discarded once timed.

    Returns its timing and, in the traced run, the span range it recorded,
    which the per-layer figures leave out.
    """
    first_span = len(tracer) if tracer is not None else 0
    engine, handle, timing = set_up(workload, arrays, sizes, serving_config)
    if handle is not None:
        handle.stop()
    del engine, handle
    gc.collect()
    timing["spans"] = [first_span, len(tracer) if tracer is not None else 0]
    return timing


def counters(engine, handle) -> dict:
    snapshot = engine.estimator.telemetry_snapshot()
    fields = {
        "cpu_s": time.process_time(),
        "wall_ns": time.perf_counter_ns(),
        "hot_cache": snapshot["hot_cache"],
        "elements": engine.elements_processed,
        "generation": int(engine.estimator.ingest_generation),
    }
    if handle is not None:
        fields["coalescer"] = handle.stats()["coalescer"]
    return fields


def serve(workload, arrays, sizes, workdir: Path, tracer, sampler) -> None:
    from repro.serving import ServingConfig

    config = ServingConfig(allow_ingest=True)
    engine, handle, timing = set_up(workload, arrays, sizes, config)
    setups = [timing]
    emit("ready", port=handle.address[1], partitions=engine.estimator.num_partitions)
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "setup":
            setups.append(set_up_again(workload, arrays, sizes, config, tracer))
            emit("setup")
            continue
        fields = counters(engine, handle)
        if tracer is not None:
            fields["span_index"] = len(tracer)
        if command["op"] == "mark":
            emit("mark", label=command.get("label"), **fields)
            continue
        handle.stop()
        setups.append(set_up_again(workload, arrays, sizes, config, tracer))
        if tracer is not None:
            tracer.save(workdir / "system_spans.npz")
        emit("finished", rss_mb=peak_rss_mb(), setups=setups, pulses=sampler.stop(), **fields)
        return


def bulk_chunks(sizes: inputs.Sizes) -> list:
    """``[lo, hi)`` of the bulk edges ingested in each round (whole batches)."""
    per_round = -(-sizes.bulk // (sizes.rounds * sizes.batch)) * sizes.batch
    return [
        (lo, min(lo + per_round, sizes.bulk)) for lo in range(0, sizes.bulk, per_round)
    ][: sizes.rounds]


def _record(row: np.ndarray, offset: int, values: list) -> int:
    """Store answers; count those that differ from an earlier answer this round."""
    seen = row[offset : offset + len(values)]
    known = ~np.isnan(seen)
    mismatches = int(np.count_nonzero(seen[known] != np.asarray(values)[known]))
    row[offset : offset + len(values)] = values
    return mismatches


def embedded(arrays, sizes, workdir: Path, tracer, sampler) -> None:
    """Bulk ingest, edge queries and subgraph queries, interleaved in rounds.

    Round ``r`` ingests its share of the bulk edges, then answers edge-query
    batches and subgraph queries for its share of ``query_seconds`` and
    ``subgraph_seconds``; the query cursors carry on across rounds.  Answers
    are kept per round, since each round sees more edges.  Each round ends
    with one more (discarded) set-up.
    """
    from repro.api.queries import EdgeQuery, SubgraphQuery

    engine, _handle, timing = set_up("embedded-bulk", arrays, sizes, None)
    setups = [timing]
    # Query objects are inputs: built before the measured phases.
    eq_src = arrays["eq_src"].tolist()
    eq_dst = arrays["eq_dst"].tolist()
    step = sizes.query_batch
    edge_batches = [
        [EdgeQuery(s, t) for s, t in zip(eq_src[i : i + step], eq_dst[i : i + step])]
        for i in range(0, len(eq_src), step)
    ]
    sg_src = arrays["sg_src"].reshape(sizes.subgraphs, sizes.subgraph_edges).tolist()
    sg_dst = arrays["sg_dst"].reshape(sizes.subgraphs, sizes.subgraph_edges).tolist()
    subgraphs = [SubgraphQuery.from_edges(list(zip(s, t))) for s, t in zip(sg_src, sg_dst)]
    before = counters(engine, None)
    span_begin = len(tracer) if tracer is not None else 0

    chunks = bulk_chunks(sizes)
    edge_values = np.full((len(chunks), len(eq_src)), np.nan)
    subgraph_values = np.full((len(chunks), len(subgraphs)), np.nan)
    mismatches = 0
    ingest_seconds = []  # per round, the seconds of each batch
    call_ns = array("q")
    subgraph_ns = array("q")
    ingest_windows = []
    query_windows = []
    subgraph_windows = []
    edge_cursor = subgraph_cursor = 0
    for round_index, (lo, hi) in enumerate(chunks):
        began = time.perf_counter_ns()
        ingest_seconds.append([])
        ingest_columns(
            engine, arrays["bulk_src"][lo:hi], arrays["bulk_dst"][lo:hi], sizes.batch,
            ingest_seconds[-1],
        )
        ingest_windows.append((began, time.perf_counter_ns()))

        row = edge_values[round_index]
        began = now = time.perf_counter_ns()
        deadline = began + int(sizes.query_seconds / len(chunks) * 1e9)
        while now < deadline:
            call_ns.append(now)
            values = [estimate.value for estimate in engine.query(edge_batches[edge_cursor])]
            now = time.perf_counter_ns()
            call_ns.append(now)
            mismatches += _record(row, edge_cursor * step, values)
            edge_cursor = (edge_cursor + 1) % len(edge_batches)
        query_windows.append((began, now))

        row = subgraph_values[round_index]
        began = now = time.perf_counter_ns()
        deadline = began + int(sizes.subgraph_seconds / len(chunks) * 1e9)
        while now < deadline:
            value = engine.query(subgraphs[subgraph_cursor]).value
            now = time.perf_counter_ns()
            subgraph_ns.append(now)
            seen = row[subgraph_cursor]
            if seen == seen and seen != value:  # an earlier answer this round differs
                mismatches += 1
            row[subgraph_cursor] = value
            subgraph_cursor = (subgraph_cursor + 1) % len(subgraphs)
        subgraph_windows.append((began, now))
        setups.append(set_up_again("embedded-bulk", arrays, sizes, None, tracer))

    # After every write, one unmeasured pass over all edge queries (accuracy).
    final = [estimate.value for batch in edge_batches for estimate in engine.query(batch)]
    after = counters(engine, None)
    span_end = len(tracer) if tracer is not None else 0
    np.savez(
        workdir / "embedded_answers.npz",
        edges=edge_values,
        subgraphs=subgraph_values,
        final=np.asarray(final, dtype=np.float64),
        query_call_ns=np.frombuffer(call_ns, dtype=np.int64).reshape(-1, 2),
        subgraph_ns=np.frombuffer(subgraph_ns, dtype=np.int64),
    )
    if tracer is not None:
        tracer.save(workdir / "system_spans.npz")
    emit(
        "finished",
        setups=setups,
        partitions=engine.estimator.num_partitions,
        rss_mb=peak_rss_mb(),
        ingest_seconds=ingest_seconds,
        queries=len(call_ns) // 2 * step,
        subgraph_queries=len(subgraph_ns),
        mismatches=mismatches,
        ingest_windows=ingest_windows,
        query_windows=query_windows,
        subgraph_windows=subgraph_windows,
        pulses=sampler.stop(),
        before=before,
        after=after,
        span_range=[span_begin, span_end],
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("workload", choices=inputs.WORKLOADS)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    inputs.own_cpu(0)
    import_began = time.perf_counter()
    import repro.api.engine  # noqa: F401  (the library import a user pays)
    import repro.serving  # noqa: F401

    import_s = time.perf_counter() - import_began
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install_system(tracer)
    # Only the columns this process uses count towards its RSS.
    arrays, sizes = inputs.load(args.workdir, SYSTEM_INPUTS[args.workload])
    emit("imported", import_s=import_s)
    sampler = pace.Sampler()
    if args.workload == "embedded-bulk":
        embedded(arrays, sizes, args.workdir, tracer, sampler)
    else:
        serve(args.workload, arrays, sizes, args.workdir, tracer, sampler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
