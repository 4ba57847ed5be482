"""Per-layer metrics from the traced run's spans, and their counter cross-check.

Conventions (see README.md for the full table):

* Per-request layer times are means over **open-loop** requests, the ones
  ``p50_ms`` is measured on: ``client.codec_us``, ``wire.decode_us``,
  ``wire.encode_us``, ``wire.bytes_per_query``, ``coalesce.wait_us``,
  ``coalesce.demux_us`` and ``server.unattributed_us``.  Together with the
  gather of the request's batch they decompose the request's time from
  send to receive; ``server.unattributed_us`` is what is left.
* Throughput-side figures (``coalesce.batch_keys``, ``server.busy_frac``,
  ``loadgen.busy_frac``) cover the **closed-loop** phase ``qps`` comes from.
* Plan, graph and API figures cover the measured spans: those of the
  measured phases, less the set-ups made between rounds
  (:meth:`SpanTable.measure`).  ``plan.compile_ms`` and ``core.build_ms``
  cover every set-up.
* Ingest-side figures (``core.route_*``, ``sketches.*``,
  ``graph.from_edges_*``) cover the writes of the measured spans: ingest
  frames for ``serve-mixed``, the bulk ingest for ``embedded-bulk``.
* A layer the workload does not run reports 0.

The metric names and units are declared in BENCHMARK.json.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from loadgen import FRAME_BASE, OK
from spans import self_times

def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


class SpanTable:
    """Column views over one process's spans, with name-based selection."""

    def __init__(self, spans: Dict[str, np.ndarray]) -> None:
        self.spans = spans
        self.index = np.arange(len(spans["name"]))
        self.duration = (spans["end"] - spans["start"]).astype(np.float64)
        self.self_ns = self_times(spans)
        self._ids = {name: i for i, name in enumerate(spans["names"])}
        self.measured = np.ones(len(self.index), dtype=bool)

    def measure(self, lo: int, hi: int, excluded=()) -> None:
        """Spans ``[lo, hi)`` outside the ``excluded`` ranges are the measured ones."""
        measured = (self.index >= lo) & (self.index < hi)
        for begin, end in excluded:
            measured &= (self.index < begin) | (self.index >= end)
        self.measured = measured

    def select(self, name: str, measured: bool = False) -> np.ndarray:
        """Spans called ``name``; only the measured ones if ``measured``."""
        mask = self.spans["name"] == self._ids.get(name, -1)
        return mask & self.measured if measured else mask

    def under(self, mask: np.ndarray, parent_name: str) -> np.ndarray:
        """``mask`` restricted to spans whose direct parent is ``parent_name``."""
        parent = self.spans["parent"]
        parent_ids = np.where(parent >= 0, self.spans["name"][np.maximum(parent, 0)], -1)
        return mask & (parent_ids == self._ids.get(parent_name, -2))

    def total_us(self, mask: np.ndarray) -> float:
        return float(self.duration[mask].sum()) / 1e3

    def work(self, mask: np.ndarray) -> int:
        return int(self.spans["size"][mask].sum())

    def by_rid(
        self, mask: np.ndarray, lo: int, hi: int, field: str = "duration"
    ) -> np.ndarray:
        """Per-request sums of ``field`` over spans tagged with rids in ``[lo, hi)``."""
        rid = self.spans["rid"]
        mask = mask & (rid >= lo) & (rid < hi)
        values = self.duration if field == "duration" else self.spans[field].astype(np.float64)
        return np.bincount(rid[mask] - lo, weights=values[mask], minlength=hi - lo)


def ingest_layers(table: SpanTable) -> Dict[str, float]:
    ingest = table.select("api.ingest", measured=True)
    route = table.select("core.route", measured=True)
    update = table.select("sketches.update", measured=True)
    from_edges = table.select("graph.from_edges", measured=True)
    return {
        "graph.from_edges_us_per_edge": _ratio(
            table.total_us(from_edges), table.work(from_edges)
        ),
        "core.route_us_per_edge": _ratio(table.total_us(route), table.work(route)),
        "sketches.update_calls_per_batch": _ratio(update.sum(), ingest.sum()),
        "sketches.update_us_per_call": _ratio(table.total_us(update), update.sum()),
        "sketches.update_us_per_edge": _ratio(table.total_us(update), table.work(update)),
    }


def plan_layers(table: SpanTable, cache_delta: Dict[str, int]) -> Dict[str, float]:
    cache = table.select("plan.cache", measured=True)
    refresh = table.select("plan.refresh", measured=True)
    route = table.select("plan.route", measured=True)
    estimate = table.select("plan.estimate", measured=True)
    from_keys = table.select("graph.from_edge_keys", measured=True)
    hashed = table.select("graph.hashed_keys", measured=True)
    hashed = hashed & ~table.under(hashed, "core.route")
    compile_spans = table.select("plan.compile")
    build = table.select("core.build")
    lookups = cache_delta["hits"] + cache_delta["misses"]
    return {
        "plan.cache_hit_ratio": _ratio(cache_delta["hits"], lookups),
        "plan.cache_us_per_key": _ratio(table.total_us(cache), table.work(cache)),
        "plan.refreshes": float(refresh.sum()),
        "plan.refresh_us": _ratio(table.total_us(refresh), refresh.sum()),
        "plan.gather_us_per_key": _ratio(
            table.total_us(route) + table.total_us(estimate), table.work(estimate)
        ),
        "plan.compile_ms": _ratio(table.total_us(compile_spans), compile_spans.sum()) / 1e3,
        "graph.keys_us_per_key": _ratio(
            table.total_us(from_keys) + table.total_us(hashed), table.work(hashed)
        ),
        "core.build_ms": _ratio(table.total_us(build), build.sum()) / 1e3,
    }


def api_layers(table: SpanTable) -> Dict[str, float]:
    query = table.select("api.query", measured=True)
    subgraph = table.select("api.subgraph", measured=True)
    return {
        "api.query_self_us_per_key": _ratio(
            float(table.self_ns[query].sum()) / 1e3, table.work(query)
        ),
        "api.subgraph_us": _ratio(table.total_us(subgraph), subgraph.sum()),
    }


def agreement(table: SpanTable, before: dict, after: dict) -> List[str]:
    """Mismatches between measured span counts and the program's own counters."""

    def delta(*path: str) -> int:
        old, new = before, after
        for key in path:
            old, new = old[key], new[key]
        return new - old

    cache = table.select("plan.cache", measured=True)
    checks = [
        ("hot_cache hits", delta("hot_cache", "hits"), int(table.spans["hits"][cache].sum())),
        ("hot_cache misses", delta("hot_cache", "misses"),
         int(table.spans["misses"][cache].sum())),
        ("elements_processed", delta("elements"),
         table.work(table.select("api.ingest", measured=True))),
    ]
    if "coalescer" in before:
        batches = table.select("coalesce.batch", measured=True)
        checks += [
            ("coalescer batches", delta("coalescer", "batches"), int(batches.sum())),
            ("coalescer keys", delta("coalescer", "coalesced_keys"), table.work(batches)),
        ]
    return [
        f"{what}: program counted {counter}, spans counted {spans}"
        for what, counter, spans in checks
        if counter != spans
    ]


def serve_layers(
    system: SpanTable,
    client: SpanTable,
    loadgen: Dict[str, np.ndarray],
    timeline: dict,
    marks: Dict[str, dict],
) -> Dict[str, float]:
    spans = system.spans
    n_open = len(loadgen["open_status"])
    codec = client.by_rid(np.ones(len(client.index), dtype=bool), 0, n_open)
    decode = system.by_rid(system.select("wire.decode"), 0, n_open)
    encode = system.by_rid(system.select("wire.encode"), 0, n_open)
    wire_bytes = system.by_rid(system.select("wire.decode"), 0, n_open, "size")
    wire_bytes += system.by_rid(system.select("wire.encode"), 0, n_open, "size")

    # Each batch's gather, and the demux that follows it.
    batch_index = np.flatnonzero(system.select("coalesce.batch"))
    demux_index = np.flatnonzero(system.select("coalesce.demux"))
    batch_gather = dict(zip(batch_index.tolist(), system.duration[batch_index].tolist()))
    batch_demux = {}
    if len(demux_index):
        following = np.minimum(np.searchsorted(demux_index, batch_index), len(demux_index) - 1)
        demux_ns = system.duration[demux_index[following]]
        batch_demux = dict(zip(batch_index.tolist(), demux_ns.tolist()))

    # Coalescer wait per open-loop request: submit → resolved, minus its
    # batch's gather and demux.
    wait = np.zeros(n_open)
    gather = np.zeros(n_open)
    demux = np.zeros(n_open)
    served = np.zeros(n_open, dtype=bool)
    for rid, submit, done, batch in zip(
        spans["wait_rid"].tolist(), spans["wait_submit"].tolist(),
        spans["wait_done"].tolist(), spans["wait_batch"].tolist(),
    ):
        if 0 <= rid < n_open and batch >= 0 and done:
            gather[rid] = batch_gather[batch]
            demux[rid] = batch_demux.get(batch, 0.0)
            wait[rid] = done - submit - gather[rid] - demux[rid]
            served[rid] = True
    open_batches = np.unique(spans["wait_batch"][(spans["wait_rid"] >= 0)
                                                 & (spans["wait_rid"] < n_open)])
    open_demux = [batch_demux.get(batch, 0.0) for batch in open_batches.tolist() if batch >= 0]

    use = (loadgen["open_status"] == OK) & served
    latency = (loadgen["open_recv_ns"] - loadgen["open_send_ns"]).astype(np.float64)
    unattributed = latency - (codec + decode + wait + gather + demux + encode)

    def mean(values: np.ndarray, scale: float = 1e3) -> float:
        return float(values[use].mean()) / scale if use.any() else 0.0

    closed = np.zeros(len(system.index), dtype=bool)
    for phase, begin, end in timeline["intervals"]:
        if phase == "closed":
            closed |= (spans["start"] >= begin) & (spans["start"] < end)
    closed &= system.select("coalesce.batch")
    cpu = wall = 0.0
    phases = marks["phases"]
    for (label, mark), (_label, following) in zip(phases, phases[1:]):
        if label == "closed-begin":
            cpu += following["cpu_s"] - mark["cpu_s"]
            wall += (following["wall_ns"] - mark["wall_ns"]) / 1e9
    frames = system.select("wire.decode") | system.select("graph.from_edges")
    frames |= system.select("api.ingest")
    per_frame = system.by_rid(frames, FRAME_BASE, FRAME_BASE + len(loadgen["frame_status"]))
    return {
        "client.codec_us": mean(codec),
        "wire.decode_us": mean(decode),
        "wire.encode_us": mean(encode),
        "wire.bytes_per_query": mean(wire_bytes, 1.0),
        "coalesce.wait_us": mean(wait),
        "coalesce.batch_keys": _ratio(system.work(closed), closed.sum()),
        "coalesce.demux_us": float(np.mean(open_demux)) / 1e3 if open_demux else 0.0,
        "server.busy_frac": _ratio(cpu, wall),
        "server.unattributed_us": mean(unattributed),
        "server.ingest_frame_ms": float(per_frame.mean()) / 1e6 if len(per_frame) else 0.0,
        "loadgen.late_p99_ms": timeline["late_p99_ms"],
        "loadgen.busy_frac": timeline["busy_frac"],
    }
