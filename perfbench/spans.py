"""In-memory span tracing around the program's public callables.

The traced run wraps the public functions and methods each layer exposes
(:func:`install_system` in the system process, :func:`install_client` in the
load generator) and records one span per call: name, start, end, parent
span, wire request id, and the work it did (keys, edges or bytes).  Spans
stay in memory as ``array`` columns and are written out once, at the end
of the run, with :meth:`Tracer.save`.

A span's *self time* is its duration minus the durations of its direct
children (:func:`self_times`).  The coalescer's answer call is a *batch*
span: it lists the wire request ids it served (``member_span`` /
``member_rid``), recovered from the coalescer's FIFO order of submissions.

The program itself is not modified; end-to-end numbers come only from runs
without these wrappers.
"""

from __future__ import annotations

import contextvars
import json
import time
from array import array
from collections import deque
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

#: Wire request id of the frame the current asyncio task decoded last.  The
#: server creates each request's task right after decoding its frame, so the
#: task inherits the id through its copied context.
CURRENT_REQUEST: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_request", default=-1
)

_NO_RID = -1


def _rid(value: object) -> int:
    return value if isinstance(value, int) and not isinstance(value, bool) else _NO_RID


class Tracer:
    """Span store plus the wrappers that feed it (single-threaded use)."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.rid = array("q")
        self.size = array("q")
        self.hits = array("q")
        self.misses = array("q")
        self.member_span = array("i")
        self.member_rid = array("q")
        # Coalescer waits: submit → future resolved, tagged with the batch.
        self.wait_rid = array("q")
        self.wait_submit = array("q")
        self.wait_done = array("q")
        self.wait_batch = array("i")
        self._pending: deque = deque()
        self._stack: list = []

    def __len__(self) -> int:
        return len(self.name)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rid.append(CURRENT_REQUEST.get())
        self.size.append(0)
        self.hits.append(0)
        self.misses.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        annotate: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(tracer, index, args)`` runs inside the span before the call;
        ``annotate(tracer, index, args, result)`` after it returns, to set
        the span's request id and work counts.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        name_id = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                if before is not None:
                    before(tracer, index, args)
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if annotate is not None:
                annotate(tracer, index, args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    # ------------------------------------------------------------------ #
    # Coalescer bookkeeping
    # ------------------------------------------------------------------ #
    def _submitted(self, index: int, keys: int, future) -> None:
        rid = CURRENT_REQUEST.get()
        self.rid[index] = rid
        self.size[index] = keys
        slot = len(self.wait_rid)
        self.wait_rid.append(rid)
        self.wait_submit.append(self.start[index])
        self.wait_done.append(0)
        self.wait_batch.append(-1)
        self._pending.append((slot, keys, future))

        def done(_future, slot=slot):
            self.wait_done[slot] = time.perf_counter_ns()

        future.add_done_callback(done)

    def _claim_batch(self, index: int, keys: int) -> None:
        """Attach the FIFO-oldest live submissions covering ``keys`` keys."""
        pending = self._pending
        while keys > 0 and pending:
            slot, count, future = pending[0]
            pending.popleft()
            if future.done():  # cancelled or expired while queued: never served
                continue
            self.wait_batch[slot] = index
            self.member_span.append(index)
            self.member_rid.append(self.wait_rid[slot])
            keys -= count

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def save(self, path: Path) -> None:
        columns = {
            field: np.frombuffer(getattr(self, field), dtype=getattr(self, field).typecode)
            for field in (
                "name", "start", "end", "parent", "rid", "size", "hits", "misses",
                "member_span", "member_rid", "wait_rid", "wait_submit", "wait_done",
                "wait_batch",
            )
        }
        np.savez(path, names=np.array(json.dumps(self.names)), **columns)


def load_spans(path: Path) -> Dict[str, np.ndarray]:
    """Span columns written by :meth:`Tracer.save` (``names`` as a list)."""
    with np.load(path) as data:
        spans = {field: data[field] for field in data.files}
    spans["names"] = json.loads(str(spans["names"]))
    return spans


def self_times(spans: Dict[str, np.ndarray]) -> np.ndarray:
    """Per-span duration minus the durations of its direct children (ns)."""
    duration = (spans["end"] - spans["start"]).astype(np.float64)
    parent = spans["parent"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - children


# ---------------------------------------------------------------------- #
# What gets wrapped
# ---------------------------------------------------------------------- #
def _len_arg(position: int) -> Callable:
    def annotate(tracer, index, args, result):
        tracer.size[index] = len(args[position])

    return annotate


def _decoded(tracer, index, args, result):
    rid = _rid(result.get("id"))
    tracer.rid[index] = rid
    tracer.size[index] = len(args[0])
    CURRENT_REQUEST.set(rid)


def _encoded(tracer, index, args, result):
    tracer.rid[index] = _rid(args[0].get("id"))
    tracer.size[index] = len(result)


def _submit(tracer, index, args, result):
    tracer._submitted(index, len(args[1]), result)


def _claim(tracer, index, args):
    tracer._claim_batch(index, len(args[1]))


def _lookup_many(tracer, index, args, result):
    tracer.size[index] = len(args[2])
    if result is None:
        tracer.misses[index] = 1
    else:
        tracer.hits[index] = 1


def _lookup_partial(tracer, index, args, result):
    tracer.size[index] = len(args[2])
    values, miss = result
    if values is not None:
        missed = int(miss.sum())
        tracer.misses[index] = missed
        tracer.hits[index] = len(miss) - missed


def _query_size(tracer, index, args, result):
    query = args[1]
    tracer.size[index] = len(query) if isinstance(query, list) else 1


def _self_len(tracer, index, args, result):
    tracer.size[index] = len(args[0])


def _subgraph(tracer, index, args, result):
    tracer.size[index] = len(args[1].edges)


def install_system(tracer: Tracer) -> None:
    """Wrap the public callables of every layer the workloads run."""
    from repro.api.engine import SketchEngine
    from repro.core.batch_router import BatchRouter
    from repro.core.gsketch import GSketch
    from repro.graph.batch import EdgeBatch
    from repro.queries.plan import CompiledQueryPlan, HotEdgeCache
    from repro.serving import coalesce, wire
    from repro.sketches.countmin import CountMinSketch

    wrap = tracer.wrap
    wrap(wire, "decode_body", "wire.decode", annotate=_decoded)
    wrap(wire, "encode_frame", "wire.encode", annotate=_encoded)
    wrap(coalesce.CoalescingQueue, "submit", "coalesce.submit", annotate=_submit)
    wrap(coalesce, "demux_by_counts", "coalesce.demux", annotate=_len_arg(0))
    wrap(GSketch, "query_edges", "coalesce.batch", annotate=_len_arg(1), before=_claim)
    wrap(HotEdgeCache, "lookup_many", "plan.cache", annotate=_lookup_many)
    wrap(HotEdgeCache, "lookup_partial", "plan.cache", annotate=_lookup_partial)
    wrap(HotEdgeCache, "store_many", "plan.cache", annotate=_len_arg(2))
    wrap(CompiledQueryPlan, "compile", "plan.compile")
    wrap(CompiledQueryPlan, "refresh", "plan.refresh")
    wrap(CompiledQueryPlan, "route_sources", "plan.route", annotate=_len_arg(1))
    wrap(CompiledQueryPlan, "estimate_keys", "plan.estimate", annotate=_len_arg(1))
    wrap(EdgeBatch, "from_edge_keys", "graph.from_edge_keys", annotate=_len_arg(1))
    wrap(EdgeBatch, "hashed_keys", "graph.hashed_keys", annotate=_self_len)
    wrap(EdgeBatch, "from_edges", "graph.from_edges", annotate=_len_arg(1))
    wrap(GSketch, "build", "core.build")
    wrap(BatchRouter, "route", "core.route", annotate=_len_arg(1))
    wrap(CountMinSketch, "update_batch", "sketches.update", annotate=_len_arg(1))
    wrap(SketchEngine, "query", "api.query", annotate=_query_size)
    wrap(SketchEngine, "ingest_batch", "api.ingest", annotate=_len_arg(1))
    wrap(GSketch, "query_subgraph", "api.subgraph", annotate=_subgraph)


def install_client(tracer: Tracer) -> None:
    """Wrap the wire codec the load generator calls."""
    from repro.serving import wire

    tracer.wrap(wire, "decode_body", "client.decode", annotate=_decoded)
    tracer.wrap(wire, "encode_frame", "client.encode", annotate=_encoded)
