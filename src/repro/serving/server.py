"""The concurrent query server: asyncio TCP in front of one `SketchEngine`.

One server owns one engine.  All backend access — coalesced gathers, inline
confidence queries, (opt-in) live ingest — happens on the server's single
event-loop thread, so the estimator needs no locks and the plan/generation
machinery keeps its single-writer semantics.  Concurrency comes from the
wire: many connections multiplex onto the loop, their in-flight point
queries coalesce into shared compiled-plan gathers
(:class:`~repro.serving.coalesce.CoalescingQueue`), and responses demux back
per request id.

Overload behaviour, by layer:

* **global admission** — the coalescing queue bounds waiting keys
  (``max_pending``); beyond it requests are shed with a typed
  ``retry_later`` response instead of queueing (bounded memory, honest
  latency).
* **per-connection admission** — at most ``max_inflight`` un-answered
  requests per connection; a client pipelining past that is shed the same
  way, so one greedy client cannot monopolize the global queue.
* **slow clients** — each connection's responses collect in an outbox that
  one flush per event-loop pass encodes and hands to the transport in one
  write.  Responses wait in the outbox while the transport has paused
  writing (the client stopped reading and the socket buffer filled) or an
  injected stall holds a write; more than ``max_write_queue`` of them
  waiting drops the connection.  Nothing awaits a socket, so a slow client
  holds up only its own outbox, never the batch demux.
* **graceful drain** — :meth:`SketchServer.shutdown` stops accepting, sheds
  new requests with ``shutting_down``, answers everything already admitted,
  flushes every outbox, then closes.

Each connection is one :class:`asyncio.Protocol` and no task: every read
appends to the connection's buffer, and each complete frame in it is
admitted synchronously.  Admission validates the frame, answers pings,
health probes, confidence queries and ingest inline, and hands point and
subgraph queries to the coalescer, whose future carries a done-callback
that queues the response.  Per-request ``deadline_ms`` is honoured at drain
time: a request whose deadline passed while queued gets a
``deadline_exceeded`` response rather than a stale answer.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import threading
from dataclasses import dataclass, fields
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, cast

from repro import faults as _faults
from repro.graph.batch import EdgeBatch
from repro.graph.edge import EdgeKey, StreamEdge
from repro.observability import metrics as _obs
from repro.queries.edge_query import EdgeQuery
from repro.queries.subgraph_query import SubgraphQuery
from repro.serving import wire
from repro.serving.coalesce import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    AdmissionError,
    CoalescingQueue,
    DeadlineExceededError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.api.engine import SketchEngine

_CONNECTIONS = _obs.REGISTRY.gauge(
    "repro_serve_connections", "Client connections currently open"
)
_REQUESTS = {
    status: _obs.REGISTRY.counter(
        "repro_serve_requests_total",
        "Requests answered by the serving tier, by response status",
        {"status": status},
    )
    for status in (
        wire.STATUS_OK,
        wire.STATUS_RETRY_LATER,
        wire.STATUS_DEADLINE,
        wire.STATUS_SHUTTING_DOWN,
        wire.STATUS_ERROR,
    )
}
_INTERNAL_ERRORS = _obs.REGISTRY.counter(
    "repro_serve_internal_errors_total",
    "Requests answered 'error' because the server itself failed, not the request",
)
_REQUEST_SECONDS = _obs.REGISTRY.histogram(
    "repro_serve_request_seconds",
    "Server-side request latency (admission to response enqueued); "
    "p50/p99 via Histogram.quantile or the Prometheus exposition",
)

#: What request validation raises (edges, deadline, aggregate, labels,
#: frequencies): answered ``error`` as the client's fault.  Any other
#: exception is a server fault, logged with its traceback and counted apart.
_BAD_REQUEST = (wire.WireError, ValueError, TypeError, KeyError)

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving tier (defaults suit a single-host deployment).

    Attributes:
        max_batch: largest coalesced gather, in keys.  A non-full batch is
            answered after one event-loop pass, never after a timer.
        max_pending: global admission bound on keys waiting to coalesce.
        max_inflight: per-connection admission bound on un-answered requests.
        max_write_queue: response frames one connection may hold unwritten
            (queued in one loop pass, held while its transport has paused
            writing or a stall holds them) before it is dropped.
        max_frame_bytes: request/response frame size cap.
        drain_seconds: how long :meth:`SketchServer.shutdown` waits for
            in-flight work, and then for closing connections to go.
        allow_ingest: accept ``ingest`` frames (live updates while serving;
            they run serialized on the loop between gathers, bumping the
            plan generation clients observe).
    """

    max_batch: int = DEFAULT_MAX_BATCH
    max_pending: int = DEFAULT_MAX_PENDING
    max_inflight: int = 256
    max_write_queue: int = 1024
    max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES
    drain_seconds: float = 5.0
    allow_ingest: bool = False

    def __post_init__(self) -> None:
        for field in fields(self):
            if field.name == "allow_ingest":
                continue
            value = getattr(self, field.name)
            if value <= 0:
                raise ValueError(f"{field.name} must be > 0, got {value}")


class _Connection(asyncio.Protocol):
    """One client connection: frame reassembly, admitted work, the outbox.

    Each read dispatches every complete frame buffered so far through
    :meth:`SketchServer._dispatch`.  Responses collect in ``outbox``; one
    ``call_soon`` flush per loop pass encodes them and writes them to the
    transport at once.  ``futures`` holds the coalescer futures of this
    connection's admitted queries; each one's done-callback queues its
    response and releases its ``inflight`` slot.  Closing the connection
    cancels them.  ``lost`` resolves once the transport is gone.
    """

    __slots__ = (
        "server",
        "transport",
        "buffer",
        "outbox",
        "flushing",
        "paused",
        "held",
        "futures",
        "inflight",
        "closed",
        "lost",
    )

    def __init__(self, server: "SketchServer") -> None:
        self.server = server
        self.transport: asyncio.Transport  # set by connection_made
        self.buffer = bytearray()
        self.outbox: List[dict] = []
        self.flushing = False  # a flush is scheduled for the next loop pass
        self.paused = False  # the transport's buffer is full
        self.held = 0  # outbox frames an injected stall holds back
        self.futures: "Set[asyncio.Future]" = set()
        self.inflight = 0
        self.closed = False
        self.lost: "asyncio.Future[None]" = server._loop.create_future()

    # -- transport callbacks --------------------------------------------- #
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        server = self.server
        server._connections.add(self)
        server.connections_accepted += 1
        if _obs._ENABLED:
            _CONNECTIONS.set(float(len(server._connections)))
        self.send(server._hello())

    def data_received(self, data: bytes) -> None:
        if self.closed:
            return
        buffer = self.buffer
        buffer += data
        max_frame_bytes = self.server.config.max_frame_bytes
        offset = 0
        size = len(buffer)
        while size - offset >= wire.HEADER_BYTES:
            try:
                begin = offset + wire.HEADER_BYTES
                end = begin + wire.body_length(buffer, offset, max_frame_bytes)
                if end > size:
                    break
                frame = wire.decode_body(buffer[begin:end])
            except wire.WireError as exc:
                self._refuse(exc)
                return
            offset = end
            self.server._dispatch(self, frame)
            if self.closed:
                return
        del buffer[:offset]

    def eof_received(self) -> bool:
        if self.buffer:
            self._refuse(wire.truncated(len(self.buffer)))
        else:
            self.close(flush=True)
        return False

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._schedule_flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.close()
        server = self.server
        server._connections.discard(self)
        if _obs._ENABLED:
            _CONNECTIONS.set(float(len(server._connections)))
        self.lost.set_result(None)

    # -- responses ------------------------------------------------------- #
    def send(self, payload: dict) -> None:
        """Queue one response for this loop pass's flush.

        More than ``max_write_queue`` frames waiting unwritten means the
        client asks faster than it reads: the connection is dropped.
        """
        if self.closed:
            return
        self.outbox.append(payload)
        if len(self.outbox) > self.server.config.max_write_queue:
            self.server.connections_dropped += 1
            self.close(abort=True)
        else:
            self._schedule_flush()

    def _schedule_flush(self) -> None:
        if not self.flushing:
            self.flushing = True
            self.server._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self.flushing = False
        if self.closed or self.paused or self.held or not self.outbox:
            return
        if _faults._PLAN is not None:
            # An injected stall holds this write's frames for its delay
            # (client-side deadline/retry territory); they still count
            # against ``max_write_queue``.
            delay = _faults.maybe_stall(_faults.SITE_SERVING_STALL_CONNECTION)
            if delay > 0.0:
                self.held = len(self.outbox)
                self.server._loop.call_later(delay, self._release)
                return
        self._write(len(self.outbox))

    def _release(self) -> None:
        """End an injected stall: write the frames it held."""
        held, self.held = self.held, 0
        if not self.closed:
            self._write(held)
            if self.outbox:
                self._schedule_flush()

    def _write(self, count: int) -> None:
        """Encode the first ``count`` queued responses; write them at once."""
        encode = wire.encode_frame
        data = b"".join([encode(payload) for payload in self.outbox[:count]])
        del self.outbox[:count]
        if _faults._PLAN is not None:
            # An injected torn write, then a close: the client reads the
            # frames before the cut, then a short read (`faults.tear_frame`).
            data, torn = _faults.tear_frame(data)
            if torn:
                self.transport.write(data)
                self.server.connections_dropped += 1
                self.close()
                return
        self.transport.write(data)

    def _refuse(self, error: wire.WireError) -> None:
        """Answer a protocol violation with a typed ``error``, then close."""
        self.server._respond(self, None, wire.STATUS_ERROR, 0.0, error=str(error))
        self.close(flush=True)

    def close(self, flush: bool = False, abort: bool = False) -> None:
        """Stop answering and close the transport (idempotent).

        ``flush`` first writes every queued response; ``abort`` severs the
        transport at once instead of letting it send what it buffered.
        """
        if self.closed:
            return
        self.closed = True
        # Answering this connection's in-flight requests would write into a
        # closed transport.  A cancelled coalescer future is counted into the
        # queue's ``cancelled`` stat (at drain or demux time) instead of
        # answered, and its callback sends nothing.
        for future in tuple(self.futures):
            future.cancel()
        if flush and self.outbox:
            self._write(len(self.outbox))
        self.outbox.clear()
        self.buffer.clear()
        if abort:
            self.transport.abort()
        else:
            self.transport.close()


class SketchServer:
    """Asyncio TCP server coalescing point queries across clients.

    Construction binds nothing; call :meth:`start` (on a running loop) to
    listen, then :meth:`serve_forever` — or use
    :func:`serve_in_background` / :meth:`repro.SketchEngine.serve` from
    synchronous code.
    """

    def __init__(
        self,
        engine: "SketchEngine",
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self._engine = engine
        self._host = host
        self._port = port
        self.config = config or ServingConfig()
        self._coalescer = CoalescingQueue(
            self._answer_batch,
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: asyncio.AbstractEventLoop  # set by start()
        # Every connection from `connection_made` until `connection_lost`.
        self._connections: Set[_Connection] = set()
        self._request_futures: "Set[asyncio.Future]" = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        # Always-on counters (mirrored into the registry when telemetry is on).
        self.requests_by_status: Dict[str, int] = {status: 0 for status in _REQUESTS}
        self.connections_accepted = 0
        self.connections_dropped = 0
        self.internal_errors = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Compile the read plan, bind the listening socket, start draining."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stopped = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        # Warm the compiled plan so the first client request pays no compile.
        self._engine.frozen()
        self._coalescer.start()
        self._server = await self._loop.create_server(
            partial(_Connection, self), self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (the real port when 0 was requested)."""
        return self._host, self._port

    @property
    def draining(self) -> bool:
        return self._draining

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` completes (from a signal or another task)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: answer the admitted, shed the new, then close."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            # Stops listening at once.  No `wait_closed()`: from Python 3.12.1
            # it waits for every connection to drop, and the connections are
            # only closed below.
            self._server.close()
        # Admitted queries resolve through the coalescer's own drain; their
        # done-callbacks queue the answers before the outboxes are flushed
        # below.  New queries already shed with `shutting_down`.  Bound the
        # wait regardless.
        deadline = self.config.drain_seconds
        if self._request_futures:
            await asyncio.wait(tuple(self._request_futures), timeout=deadline)
        await self._coalescer.stop()
        if self._request_futures:
            await asyncio.wait(tuple(self._request_futures), timeout=deadline)
        for connection in tuple(self._connections):
            connection.close(flush=True)
        # A closed transport still sends what it buffered before it goes;
        # one whose client stopped reading is aborted after `drain_seconds`.
        if self._connections:
            lost = [connection.lost for connection in self._connections]
            await asyncio.wait(lost, timeout=deadline)
        for connection in tuple(self._connections):
            connection.transport.abort()
        if self._connections:
            await asyncio.wait([connection.lost for connection in self._connections])
        if self._stopped is not None:
            self._stopped.set()

    def stats(self) -> dict:
        """Always-on serving statistics (the bench and tests read these)."""
        return {
            "address": list(self.address),
            "connections_open": len(self._connections),
            "connections_accepted": self.connections_accepted,
            "connections_dropped": self.connections_dropped,
            "requests": dict(self.requests_by_status),
            "internal_errors": self.internal_errors,
            "coalescer": self._coalescer.stats(),
            "draining": self._draining,
        }

    def health(self) -> dict:
        """The ``health`` wire op's payload (also behind ``repro serve --health``).

        ``state`` walks starting → serving → draining; readiness probes
        should treat only ``state == "serving"`` as healthy.
        """
        if self._draining:
            state = wire.STATE_DRAINING
        elif self._server is not None:
            state = wire.STATE_SERVING
        else:
            state = wire.STATE_STARTING
        return {
            "state": state,
            "generation": self._generation(),
            "connections": len(self._connections),
        }

    # ------------------------------------------------------------------ #
    # Backend access (event-loop thread only)
    # ------------------------------------------------------------------ #
    def _generation(self) -> int:
        """The engine's ingest generation: the tag on every answer and ack."""
        return self._engine.estimator.ingest_generation

    def _answer_batch(self, keys: List[EdgeKey]) -> Tuple[List[float], int]:
        """One coalesced gather plus its generation tag.

        Runs synchronously on the loop, so the generation read afterwards is
        exactly the one that answered (nothing can mutate the engine between
        the gather and the read).
        """
        return self._engine.estimator.query_edges(keys), self._generation()

    def _hello(self) -> dict:
        return {
            "op": wire.OP_HELLO,
            "protocol": wire.PROTOCOL_VERSION,
            "backend": self._engine.backend,
            "generation": self._generation(),
            "max_batch": self.config.max_batch,
            "max_inflight": self.config.max_inflight,
            "allow_ingest": self.config.allow_ingest,
        }

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #
    def _respond(
        self,
        connection: _Connection,
        request_id: object,
        status: str,
        began: float,
        **extra: object,
    ) -> None:
        self.requests_by_status[status] = self.requests_by_status.get(status, 0) + 1
        if _obs._ENABLED:
            counter = _REQUESTS.get(status)
            if counter is not None:
                counter.inc()
            if began:
                _REQUEST_SECONDS._observe(self._loop.time() - began)
        payload = {"id": request_id, "status": status}
        payload.update(extra)
        connection.send(payload)

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, connection: _Connection, frame: dict) -> None:
        op = frame.get("op")
        request_id = frame.get("id")
        began = self._loop.time()
        if op == wire.OP_PING:
            self._respond(connection, request_id, wire.STATUS_OK, began, pong=True)
            return
        if op == wire.OP_HEALTH:
            # Health answers in every state — a draining server reports
            # ``draining`` rather than shedding the probe.
            self._respond(
                connection, request_id, wire.STATUS_OK, began, **self.health()
            )
            return
        if op in (wire.OP_QUERY_EDGES, wire.OP_QUERY_SUBGRAPH):
            try:
                self._admit_query(connection, request_id, op, frame, began)
            except Exception as exc:  # noqa: BLE001 - every failure is answered typed
                self._fail(connection, request_id, began, exc)
            return
        if op == wire.OP_INGEST:
            self._serve_ingest(connection, request_id, frame, began)
            return
        self._respond(
            connection,
            request_id,
            wire.STATUS_ERROR,
            began,
            error=f"unknown op {op!r}",
        )

    def _admit_query(
        self,
        connection: _Connection,
        request_id: object,
        op: str,
        frame: dict,
        began: float,
    ) -> None:
        """Validate one query, then answer it inline or hand it to the coalescer.

        Raises on a reject or a malformed frame; :meth:`_dispatch` answers
        that through :meth:`_fail`.  A coalesced query holds one of its
        connection's ``inflight`` slots until its future's done-callback
        (:meth:`_answer`) runs.
        """
        if self._draining:
            raise AdmissionError("server is draining")
        if connection.inflight >= self.config.max_inflight:
            self._coalescer.rejected += 1
            raise AdmissionError(f"connection has {connection.inflight} requests in flight")
        edges = wire.edges_from_wire(frame.get("edges"))
        deadline_ms = frame.get("deadline_ms")
        deadline = None
        if deadline_ms is not None:
            deadline = began + float(deadline_ms) / 1_000.0
        if frame.get("confidence") and op == wire.OP_QUERY_EDGES:
            # Confidence queries carry intervals and provenance; they are
            # answered inline (one vectorized pass, no coalescing) so the
            # value lane's demux stays a flat float slice.
            if deadline is not None and self._loop.time() > deadline:
                raise DeadlineExceededError("deadline passed before serving")
            estimates = self._engine.query(
                [EdgeQuery(source, target) for source, target in edges]
            )
            self._respond(
                connection,
                request_id,
                wire.STATUS_OK,
                began,
                generation=self._generation(),
                estimates=[estimate.to_dict() for estimate in estimates],
            )
            return
        subgraph = None
        if op == wire.OP_QUERY_SUBGRAPH:
            subgraph = SubgraphQuery.from_edges(
                edges, aggregate=str(frame.get("aggregate", "sum"))
            )
        future = self._coalescer.submit(edges, deadline)
        connection.inflight += 1
        connection.futures.add(future)
        self._request_futures.add(future)
        future.add_done_callback(
            partial(self._answer, connection, request_id, subgraph, began)
        )
        if _faults._PLAN is not None and _faults.should_fire(
            _faults.SITE_SERVING_DROP_DRAIN
        ):
            # The requester's connection vanishes after admission — the
            # cancel-on-disconnect path must cancel this very request
            # instead of answering into a closed transport.
            self.connections_dropped += 1
            connection.close(abort=True)

    def _answer(
        self,
        connection: _Connection,
        request_id: object,
        subgraph: Optional[SubgraphQuery],
        began: float,
        future: "asyncio.Future[Tuple[List[float], int]]",
    ) -> None:
        """Done-callback of one coalesced query: queue its typed response."""
        connection.inflight -= 1
        connection.futures.discard(future)
        self._request_futures.discard(future)
        if future.cancelled():
            return  # its connection is gone
        try:
            values, generation = future.result()
            payload: dict = {"generation": generation}
            if subgraph is None:
                payload["values"] = values
            else:
                payload["value"] = float(subgraph.combine(values))
        except Exception as exc:  # noqa: BLE001 - every failure is answered typed
            self._fail(connection, request_id, began, exc)
            return
        self._respond(connection, request_id, wire.STATUS_OK, began, **payload)

    def _fail(
        self, connection: _Connection, request_id: object, began: float, exc: BaseException
    ) -> None:
        """Answer a failed request: ``retry_later`` for an admission reject
        (``shutting_down`` while draining), ``deadline_exceeded`` for an
        expired deadline, ``error`` for anything else.

        An ``error`` that is not a bad request (:data:`_BAD_REQUEST`) is the
        server's own fault: it is logged with its traceback and counted in
        ``internal_errors``.
        """
        if isinstance(exc, AdmissionError):
            status = wire.STATUS_SHUTTING_DOWN if self._draining else wire.STATUS_RETRY_LATER
        elif isinstance(exc, DeadlineExceededError):
            status = wire.STATUS_DEADLINE
        else:
            status = wire.STATUS_ERROR
            if not isinstance(exc, _BAD_REQUEST):
                self.internal_errors += 1
                _INTERNAL_ERRORS.inc()
                _LOG.error("request %r failed in the server", request_id, exc_info=exc)
        self._respond(connection, request_id, status, began, error=str(exc))

    def _serve_ingest(
        self, connection: _Connection, request_id: object, frame: dict, began: float
    ) -> None:
        """Live updates while serving (opt-in): serialized on the loop.

        Runs between coalesced gathers, so every query is answered either
        entirely before or entirely after the ingest — the generation tag
        clients observe moves monotonically.  Any failure is answered through
        :meth:`_fail` and keeps the connection open.  Clients never retry
        ``ingest``, so an ``error`` answer risks no double count that a
        dropped connection would not.
        """
        if not self.config.allow_ingest:
            self._respond(
                connection,
                request_id,
                wire.STATUS_ERROR,
                began,
                error="ingest is disabled on this server (ServingConfig.allow_ingest)",
            )
            return
        if self._draining:
            self._respond(connection, request_id, wire.STATUS_SHUTTING_DOWN, began)
            return
        try:
            raw = frame.get("edges")
            if not isinstance(raw, list) or not raw:
                raise wire.WireError("'edges' must be a non-empty list")
            edges: List[StreamEdge] = []
            for item in raw:
                if not isinstance(item, (list, tuple)) or not 2 <= len(item) <= 4:
                    raise wire.WireError(
                        f"ingest edge {item!r} is not [source, target, ts?, freq?]"
                    )
                source, target = item[0], item[1]
                timestamp = float(item[2]) if len(item) > 2 else 0.0
                frequency = float(item[3]) if len(item) > 3 else 1.0
                edges.append(StreamEdge(source, target, timestamp, frequency))
            ingested = self._engine.ingest_batch(EdgeBatch.from_edges(edges))
            generation = self._generation()
            if _faults._PLAN is not None and _faults.should_fire(
                _faults.SITE_SERVING_INGEST_CRASH
            ):
                # The non-idempotent retry window: the engine already
                # mutated (generation bumped) but the acknowledgement never
                # reaches the client.  A client that retried here would
                # double-count the batch — the retry discipline must not.
                self.connections_dropped += 1
                connection.close(abort=True)
                return
            self._respond(
                connection,
                request_id,
                wire.STATUS_OK,
                began,
                ingested=ingested,
                generation=generation,
            )
        except Exception as exc:  # noqa: BLE001 - every failure is answered typed
            self._fail(connection, request_id, began, exc)


# ---------------------------------------------------------------------- #
# Synchronous entry points
# ---------------------------------------------------------------------- #
class ServerHandle:
    """A server running on its own event-loop thread (background serving).

    The engine is driven exclusively by the server thread while the handle
    is live — don't query or ingest through the engine object concurrently
    from other threads.  :meth:`stop` drains gracefully and joins the
    thread; the handle is also a context manager.
    """

    def __init__(
        self,
        server: SketchServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self._server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    @property
    def server(self) -> SketchServer:
        return self._server

    def stats(self) -> dict:
        """Serving stats, fetched on the server's loop (a consistent view)."""
        future = asyncio.run_coroutine_threadsafe(self._stats_async(), self._loop)
        return future.result(timeout=self._server.config.drain_seconds)

    async def _stats_async(self) -> dict:
        return self._server.stats()

    def stop(self) -> None:
        """Drain in-flight requests, close connections, join the thread."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self._server.shutdown(), self._loop)
        future.result(timeout=self._server.config.drain_seconds * 4 + 10.0)
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_in_background(
    engine: "SketchEngine",
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServingConfig] = None,
) -> ServerHandle:
    """Start a :class:`SketchServer` on a dedicated event-loop thread.

    Returns once the socket is bound; raises whatever :meth:`SketchServer.start`
    raised (port in use, bad config) in the calling thread.
    """
    server = SketchServer(engine, host, port, config)
    ready = threading.Event()
    holder: dict = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            holder["error"] = exc
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_until_complete(server.serve_forever())
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serving", daemon=True)
    thread.start()
    ready.wait()
    error = holder.get("error")
    if error is not None:
        thread.join(timeout=5.0)
        raise error
    return ServerHandle(server, holder["loop"], thread)


def run_server(
    engine: "SketchEngine",
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServingConfig] = None,
    on_started=None,
) -> None:
    """Run a server on the calling thread until interrupted (the CLI path).

    ``on_started(server)`` fires after the socket is bound (the CLI prints
    the ready line there).  SIGINT or SIGTERM triggers a graceful drain
    before returning.  Both are handled on the event loop, so the drain also
    runs when the process started with SIGINT ignored, as a non-interactive
    shell starts background jobs.
    """

    async def _main() -> None:
        server = SketchServer(engine, host, port, config)
        await server.start()
        loop = asyncio.get_running_loop()
        drains: "List[asyncio.Task]" = []

        def _drain() -> None:
            if not drains:
                drains.append(loop.create_task(server.shutdown()))

        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, _drain)
        if on_started is not None:
            on_started(server)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if drains:
                await drains[0]  # the signal-driven drain; re-raises its failure
            else:
                await server.shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
