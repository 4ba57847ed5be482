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
* **slow clients** — each connection's responses go through a bounded write
  queue drained by a dedicated writer task.  Each time it wakes, the writer
  takes every response already queued and sends them in one write and one
  ``drain()``.  Only that task ever awaits the socket, so a client that
  stops reading stalls *its own* writer, never the batch demux.  If its
  queue fills, the connection is dropped.
* **graceful drain** — :meth:`SketchServer.shutdown` stops accepting, sheds
  new requests with ``shutting_down``, answers everything already admitted,
  flushes write queues, then closes.

Admission is synchronous: the connection's read loop validates each frame,
answers pings, health probes, confidence queries and ingest inline, and
hands point and subgraph queries to the coalescer.  The coalescer's future
carries a done-callback that queues the response, so no task is created per
request.  Per-request ``deadline_ms`` is honoured at drain time: a request
whose deadline passed while queued gets a ``deadline_exceeded`` response
rather than a stale answer.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from dataclasses import dataclass, fields
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

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
_REQUEST_SECONDS = _obs.REGISTRY.histogram(
    "repro_serve_request_seconds",
    "Server-side request latency (admission to response enqueued); "
    "p50/p99 via Histogram.quantile or the Prometheus exposition",
)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving tier (defaults suit a single-host deployment).

    Attributes:
        max_batch: largest coalesced gather, in keys.  A non-full batch is
            answered after one event-loop pass, never after a timer.
        max_pending: global admission bound on keys waiting to coalesce.
        max_inflight: per-connection admission bound on un-answered requests.
        max_write_queue: per-connection response frames buffered for a slow
            reader before the connection is dropped.
        max_frame_bytes: request/response frame size cap.
        drain_seconds: how long :meth:`SketchServer.shutdown` waits for
            in-flight work and write-queue flushes.
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


class _Connection:
    """Per-connection state: the write queue, its writer task, admitted work.

    ``futures`` holds the coalescer futures of this connection's admitted
    queries; each one's done-callback queues its response and releases its
    ``inflight`` slot.  Closing the connection cancels them.
    """

    __slots__ = (
        "writer",
        "out_queue",
        "writer_task",
        "futures",
        "inflight",
        "closed",
        "peer",
    )

    def __init__(self, writer: asyncio.StreamWriter, max_write_queue: int) -> None:
        self.writer = writer
        self.out_queue: "asyncio.Queue[Optional[dict]]" = asyncio.Queue(max_write_queue)
        self.writer_task: Optional["asyncio.Task[None]"] = None
        self.futures: "Set[asyncio.Future]" = set()
        self.inflight = 0
        self.closed = False
        peername = writer.get_extra_info("peername")
        self.peer = f"{peername[0]}:{peername[1]}" if peername else "?"


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
        self._connections: Set[_Connection] = set()
        self._request_futures: "Set[asyncio.Future]" = set()
        self._handler_tasks: "Set[asyncio.Task]" = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        # Always-on counters (mirrored into the registry when telemetry is on).
        self.requests_by_status: Dict[str, int] = {status: 0 for status in _REQUESTS}
        self.connections_accepted = 0
        self.connections_dropped = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Compile the read plan, bind the listening socket, start draining."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stopped = asyncio.Event()
        # Warm the compiled plan so the first client request pays no compile.
        self._engine.frozen()
        self._coalescer.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
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
        # done-callbacks queue the answers before the write queues are
        # flushed below.  New queries already shed with `shutting_down`.
        # Bound the wait regardless.
        deadline = self.config.drain_seconds
        if self._request_futures:
            await asyncio.wait(tuple(self._request_futures), timeout=deadline)
        await self._coalescer.stop()
        if self._request_futures:
            await asyncio.wait(tuple(self._request_futures), timeout=deadline)
        for connection in tuple(self._connections):
            await self._close_connection(connection, flush=True)
        # Handlers whose client hung up first left `_connections` before
        # their own close finished; let them finish rather than be
        # cancelled mid-close when the loop stops.
        if self._handler_tasks:
            await asyncio.wait(tuple(self._handler_tasks), timeout=deadline)
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
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        self._handler_tasks.add(handler)
        handler.add_done_callback(self._handler_tasks.discard)
        connection = _Connection(writer, self.config.max_write_queue)
        self._connections.add(connection)
        self.connections_accepted += 1
        if _obs._ENABLED:
            _CONNECTIONS.set(float(len(self._connections)))
        connection.writer_task = asyncio.get_running_loop().create_task(
            self._write_loop(connection)
        )
        self._enqueue(connection, self._hello())
        try:
            while True:
                try:
                    frame = await wire.read_frame(reader, self.config.max_frame_bytes)
                except wire.WireError as exc:
                    self._respond(
                        connection, None, wire.STATUS_ERROR, 0.0, error=str(exc)
                    )
                    break
                if frame is None:
                    break
                self._dispatch(connection, frame)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            await self._close_connection(connection, flush=not self._draining)

    async def _close_connection(self, connection: _Connection, flush: bool) -> None:
        if connection not in self._connections:
            return
        self._connections.discard(connection)
        if _obs._ENABLED:
            _CONNECTIONS.set(float(len(self._connections)))
        connection.closed = True
        # The connection is gone: answering its in-flight requests would
        # push frames into a closed write queue.  A cancelled coalescer
        # future is counted into the queue's ``cancelled`` stat (at drain or
        # demux time) instead of answered, and its callback sends nothing.
        for future in tuple(connection.futures):
            future.cancel()
        if connection.writer_task is not None:
            if flush:
                try:
                    connection.out_queue.put_nowait(None)  # writer-stop sentinel
                    await asyncio.wait_for(
                        connection.writer_task, self.config.drain_seconds
                    )
                except (asyncio.QueueFull, asyncio.TimeoutError):
                    connection.writer_task.cancel()
            else:
                connection.writer_task.cancel()
            try:
                await connection.writer_task
            except (asyncio.CancelledError, Exception):
                pass
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _write_loop(self, connection: _Connection) -> None:
        """Drain one connection's write queue; only this task awaits its socket.

        Each wake sends the response it woke for plus every one already
        queued behind it as one write, so a burst of answers costs one
        ``send(2)``.  A ``None`` sentinel stops the task once everything
        queued before it is written.
        """
        queue = connection.out_queue
        while True:
            payload = await queue.get()
            if payload is None:
                return
            frames = [wire.encode_frame(payload)]
            while not queue.empty():
                payload = queue.get_nowait()
                if payload is None:
                    break
                frames.append(wire.encode_frame(payload))
            data = b"".join(frames)
            try:
                if _faults._PLAN is not None:
                    # Injected wire faults, once per write: a stalled write
                    # (client-side deadline/retry territory) or a write torn
                    # mid-way followed by a close (see `faults.tear_frame`
                    # for what the client reads).
                    delay = _faults.maybe_stall(
                        _faults.SITE_SERVING_STALL_CONNECTION
                    )
                    if delay > 0.0:
                        await asyncio.sleep(delay)
                    data, torn = _faults.tear_frame(data)
                    if torn:
                        connection.writer.write(data)
                        await connection.writer.drain()
                        connection.closed = True
                        self.connections_dropped += 1
                        connection.writer.close()
                        return
                connection.writer.write(data)
                await connection.writer.drain()
            except (ConnectionError, OSError):
                connection.closed = True
                return
            if payload is None:
                return

    def _drop_slow(self, connection: _Connection) -> None:
        """A full write queue means the client stopped reading: drop it."""
        connection.closed = True
        self.connections_dropped += 1
        if connection.writer_task is not None:
            connection.writer_task.cancel()
        try:
            connection.writer.close()
        except (ConnectionError, OSError):
            pass

    def _abort_connection(self, connection: _Connection) -> None:
        """Sever a connection's transport abruptly (fault-injection paths).

        Mimics the peer vanishing mid-flight: the read loop wakes with a
        reset, :meth:`_close_connection` cancels the connection's admitted
        futures, and the coalescer counts them as cancelled.
        """
        connection.closed = True
        self.connections_dropped += 1
        transport = getattr(connection.writer, "transport", None)
        try:
            if transport is not None:
                transport.abort()
            else:  # pragma: no cover - transport always set on TCP
                connection.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - defensive
            pass

    def _enqueue(self, connection: _Connection, payload: dict) -> None:
        if connection.closed:
            return
        try:
            connection.out_queue.put_nowait(payload)
        except asyncio.QueueFull:
            self._drop_slow(connection)

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
                _REQUEST_SECONDS._observe(asyncio.get_running_loop().time() - began)
        payload = {"id": request_id, "status": status}
        payload.update(extra)
        self._enqueue(connection, payload)

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, connection: _Connection, frame: dict) -> None:
        op = frame.get("op")
        request_id = frame.get("id")
        began = asyncio.get_running_loop().time()
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
            if deadline is not None and asyncio.get_running_loop().time() > deadline:
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
            # instead of answering into a closed write queue.
            self._abort_connection(connection)

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
        expired deadline, ``error`` for anything else."""
        if isinstance(exc, AdmissionError):
            status = wire.STATUS_SHUTTING_DOWN if self._draining else wire.STATUS_RETRY_LATER
        elif isinstance(exc, DeadlineExceededError):
            status = wire.STATUS_DEADLINE
        else:
            status = wire.STATUS_ERROR
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
                self._abort_connection(connection)
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
