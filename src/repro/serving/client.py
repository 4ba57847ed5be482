"""Clients for the serving tier: async pipelined, plus a sync wrapper.

:class:`ServingClient` speaks the :mod:`~repro.serving.wire` protocol over
one TCP connection.  Requests are pipelined: each gets a connection-unique
id, a reader task demuxes response frames back to per-request futures, so
many queries can be in flight at once over a single socket — that is what
lets the server coalesce them into shared gathers.

Server-side shedding surfaces as typed exceptions:

* ``retry_later``      → :class:`RetryLater` (back off and resubmit)
* ``deadline_exceeded``→ :class:`DeadlineExceeded`
* ``shutting_down``    → :class:`ServerClosed`
* ``error``            → :class:`ServingError`

:class:`SyncServingClient` runs an async client on a private event-loop
thread and exposes blocking calls — the ergonomic path for scripts and the
CLI's ``query --connect``.

Connection lifecycle
--------------------
Every client, sessions included, connects one way: :meth:`ServingClient.open`
(behind :func:`connect` and :func:`~repro.serving.session.open_session`) and
every reconnect dial through :meth:`ServingClient._dial`, so the
:meth:`ServingClient._accept_hello` hook checks each hello in one place.

Retry discipline
----------------
Pass a :class:`RetryPolicy` to :func:`connect` / :class:`SyncServingClient`
and idempotent requests (queries, ping, health) transparently retry on
``retry_later`` and on transient disconnects (the client reconnects to the
same address first).  Backoff is capped exponential with *full jitter* so a
thundering herd of shed clients decorrelates, and the whole retry loop is
budgeted by the request's ``deadline_ms`` — a retry never fires past the
deadline the caller asked for.  ``ingest`` is **never** retried: it is not
idempotent, and a disconnect after the server applied the batch but before
the ack would double-count every edge.
"""

from __future__ import annotations

import asyncio
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.graph.edge import EdgeKey
from repro.serving import wire

__all__ = [
    "ServingError",
    "RetryLater",
    "DeadlineExceeded",
    "ServerClosed",
    "RetryPolicy",
    "WireResult",
    "ServingClient",
    "SyncServingClient",
    "connect",
]


class ServingError(RuntimeError):
    """The server answered with ``status: error`` (or the wire broke)."""


class RetryLater(ServingError):
    """Typed admission reject: the server is saturated, resubmit later."""


class DeadlineExceeded(ServingError):
    """The request's ``deadline_ms`` passed before the server answered it."""


class ServerClosed(ServingError):
    """The server is draining (or the connection is gone): reconnect elsewhere."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter for idempotent requests.

    Attempt *n* (1-based) sleeps ``uniform(0, min(max_delay,
    base_delay * 2**(n-1)))`` before retrying — full jitter, so clients shed
    by the same admission spike don't resubmit in lockstep.  ``max_attempts``
    counts the initial try.  ``seed`` makes the jitter deterministic for
    tests and the chaos bench.
    """

    max_attempts: int = 4
    base_delay: float = 0.02
    max_delay: float = 0.5
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0.0 or self.max_delay < 0.0:
            raise ValueError("delays must be >= 0")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The jittered sleep before retry number ``attempt`` (1-based)."""
        cap = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        return rng.uniform(0.0, cap)


@dataclass(frozen=True)
class WireResult:
    """One answered query: the estimate values plus their generation tag.

    ``generation`` is the server engine's ingest generation at answer time —
    sessions use it for monotonic-reads checking.
    """

    values: Tuple[float, ...]
    generation: int

    @property
    def value(self) -> float:
        """The single value (point queries and subgraph aggregates)."""
        if len(self.values) != 1:
            raise ValueError(f"result holds {len(self.values)} values, not 1")
        return self.values[0]


_Client = TypeVar("_Client", bound="ServingClient")
_Sync = TypeVar("_Sync", bound="SyncServingClient")

_STATUS_ERRORS = {
    wire.STATUS_RETRY_LATER: RetryLater,
    wire.STATUS_DEADLINE: DeadlineExceeded,
    wire.STATUS_SHUTTING_DOWN: ServerClosed,
}


class ServingClient:
    """Async pipelined client over one connection (see the module docstring).

    The constructor only records the address; :meth:`open` (or
    :func:`connect`) dials it and completes the hello handshake.
    """

    def __init__(self, host: str, port: int, retry: Optional[RetryPolicy] = None) -> None:
        self._address = (host, port)
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self._next_id = 0
        self._pending: Dict[int, "asyncio.Future[dict]"] = {}
        self.hello: dict = {}
        self._closed = True
        self._user_closed = False
        self._retry = retry
        self._rng = random.Random(retry.seed if retry is not None else None)
        #: Requests resubmitted under the retry policy (stat, not config).
        self.retries = 0
        #: Transparent reconnects performed by the retry loop.
        self.reconnects = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    async def open(
        cls: Type[_Client], host: str, port: int, retry: Optional[RetryPolicy] = None
    ) -> _Client:
        """Dial ``host:port`` and complete the hello handshake.

        Connecting is idempotent, so under ``retry`` a refused dial or a
        hello lost to a dying connection backs off and dials again.  The
        first connection is not a reconnect (:attr:`reconnects` stays 0).
        """
        client = cls(host, port, retry)
        attempt = 1
        while True:
            try:
                await client._dial()
                return client
            except (wire.WireError, ServingError, OSError):
                if retry is None or attempt >= retry.max_attempts:
                    raise
                await asyncio.sleep(retry.backoff(attempt, client._rng))
                attempt += 1

    async def _dial(self) -> None:
        """Open the stream, check its hello, and start its reader task.

        Whatever the hello check raises closes the new stream again and
        leaves the client as it was.
        """
        reader, writer = await asyncio.open_connection(*self._address)
        try:
            frame = await wire.read_frame(reader)
            self._accept_hello(frame)
        except BaseException:
            writer.close()
            raise
        self.hello = frame
        self._writer = writer
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop(reader))

    def _accept_hello(self, frame: Optional[dict]) -> None:
        """Refuse a connection whose hello is missing or speaks another protocol."""
        if frame is None or frame.get("op") != wire.OP_HELLO:
            raise ServingError(f"expected hello frame, got {frame!r}")
        if frame.get("protocol") != wire.PROTOCOL_VERSION:
            raise ServingError(
                f"protocol mismatch: server speaks {frame.get('protocol')}, "
                f"client speaks {wire.PROTOCOL_VERSION}"
            )

    async def _reopen(self) -> None:
        """Reconnect to the same address after a transient disconnect.

        Only the retry loop calls this; it drops the dead transport and dials
        again.  Raises whatever :func:`asyncio.open_connection` raises
        (``OSError`` family) when the server is unreachable, and
        :class:`ServerClosed` when the new connection's hello is torn or
        refused — the retry loop treats both as one more transient failure.
        Any other refusal from :meth:`_accept_hello` propagates as raised.
        """
        if self._user_closed:
            raise ServerClosed("client is closed")
        await self._drop_transport()
        try:
            await self._dial()
        except (wire.WireError, ServingError) as exc:
            raise ServerClosed(f"reconnect failed: {exc}") from exc
        self.reconnects += 1

    async def _drop_transport(self) -> None:
        """Stop the reader task and close the stream (idempotent)."""
        task, self._reader_task = self._reader_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def close(self) -> None:
        # A server-side disconnect marks the client closed without tearing
        # down the transport, so close() releases it whatever _closed says.
        self._closed = True
        self._user_closed = True
        await self._drop_transport()
        self._fail_pending(ServerClosed("connection closed"))

    async def __aenter__(self: _Client) -> _Client:
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # Demux plumbing
    # ------------------------------------------------------------------ #
    def _fail_pending(self, exc: Exception) -> None:
        # The connection is dead on every path that reaches here; refuse
        # later requests immediately instead of parking them forever on a
        # socket nothing reads anymore.
        self._closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    self._fail_pending(ServerClosed("server closed the connection"))
                    return
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except wire.WireError as exc:
            # A torn or oversize frame means the stream is unrecoverable —
            # the connection is as good as gone, so surface the disconnect
            # flavour (which the retry loop treats as transient).
            self._fail_pending(ServerClosed(f"wire error: {exc}"))
        except (ConnectionError, OSError) as exc:
            self._fail_pending(ServerClosed(str(exc)))

    async def _send(self, payload: dict) -> dict:
        if self._closed:
            raise ServerClosed("client is closed")
        request_id = self._next_id
        self._next_id += 1
        payload["id"] = request_id
        future: "asyncio.Future[dict]" = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(wire.encode_frame(payload))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(request_id, None)
            raise ServerClosed(str(exc)) from exc
        frame = await future
        status = frame.get("status")
        if status == wire.STATUS_OK:
            return frame
        error_cls = _STATUS_ERRORS.get(str(status), ServingError)
        raise error_cls(str(frame.get("error", status)))

    async def _request(
        self,
        payload: dict,
        *,
        deadline_ms: Optional[float] = None,
        idempotent: bool = True,
    ) -> dict:
        """Send one request, applying the retry policy when it is safe to.

        A ``deadline_ms`` rides in the frame for the server to enforce.
        Retries fire only for idempotent ops, and only on ``retry_later``
        or a transient disconnect (reconnecting first).  The loop is
        budgeted: with a ``deadline_ms`` it never sleeps past the moment
        the caller's deadline would expire.  ``deadline_exceeded`` and
        typed backend errors are answers, not transients — no retry.
        """
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        policy = self._retry
        if policy is None or not idempotent:
            return await self._send(payload)
        loop = asyncio.get_running_loop()
        budget = None if deadline_ms is None else loop.time() + deadline_ms / 1000.0
        attempt = 1
        while True:
            try:
                if self._closed:
                    await self._reopen()
                return await self._send(payload)
            except (RetryLater, ServerClosed, OSError):
                if self._user_closed or attempt >= policy.max_attempts:
                    raise
                delay = policy.backoff(attempt, self._rng)
                if budget is not None and loop.time() + delay >= budget:
                    raise
                attempt += 1
                self.retries += 1
                await asyncio.sleep(delay)

    # ------------------------------------------------------------------ #
    # Query surface
    # ------------------------------------------------------------------ #
    async def ping(self) -> bool:
        frame = await self._request({"op": wire.OP_PING})
        return bool(frame.get("pong"))

    async def health(self) -> dict:
        """The server's readiness document (``state``, ``generation``, ...).

        Answered even while the server drains — ``state`` is how a prober
        tells ``serving`` from ``draining`` without issuing a real query.
        """
        return await self._request({"op": wire.OP_HEALTH})

    async def query_edges(
        self, edges: Sequence[EdgeKey], deadline_ms: Optional[float] = None
    ) -> WireResult:
        """Point-estimate a batch of edges (rides the coalesced lane)."""
        payload = {"op": wire.OP_QUERY_EDGES, "edges": wire.edges_to_wire(edges)}
        frame = await self._request(payload, deadline_ms=deadline_ms)
        return WireResult(
            values=tuple(float(v) for v in frame["values"]),
            generation=int(frame.get("generation", 0)),
        )

    async def query_edge(
        self, source: object, target: object, deadline_ms: Optional[float] = None
    ) -> WireResult:
        return await self.query_edges([(source, target)], deadline_ms)

    async def query_subgraph(
        self,
        edges: Sequence[EdgeKey],
        aggregate: str = "sum",
        deadline_ms: Optional[float] = None,
    ) -> WireResult:
        """Aggregate subgraph query; the server combines per-edge estimates."""
        payload = {
            "op": wire.OP_QUERY_SUBGRAPH,
            "edges": wire.edges_to_wire(edges),
            "aggregate": aggregate,
        }
        frame = await self._request(payload, deadline_ms=deadline_ms)
        return WireResult(
            values=(float(frame["value"]),),
            generation=int(frame.get("generation", 0)),
        )

    async def query_edges_confidence(
        self, edges: Sequence[EdgeKey], deadline_ms: Optional[float] = None
    ) -> List[dict]:
        """Typed estimates with intervals/provenance (served inline, uncoalesced)."""
        payload = {
            "op": wire.OP_QUERY_EDGES,
            "edges": wire.edges_to_wire(edges),
            "confidence": True,
        }
        frame = await self._request(payload, deadline_ms=deadline_ms)
        return list(frame["estimates"])

    async def ingest(self, edges: Sequence) -> Tuple[int, int]:
        """Send live updates (``allow_ingest`` servers only).

        Each edge is ``(source, target[, timestamp[, frequency]])``.
        Returns ``(edges_ingested, new_generation)``.  Never retried, even
        under a :class:`RetryPolicy`: ingest is not idempotent, and a
        disconnect between apply and ack would double-count on resubmit.
        """
        payload = {
            "op": wire.OP_INGEST,
            "edges": [list(edge) for edge in edges],
        }
        frame = await self._request(payload, idempotent=False)
        return int(frame.get("ingested", 0)), int(frame.get("generation", 0))


async def connect(
    host: str, port: int, retry: Optional[RetryPolicy] = None
) -> ServingClient:
    """Open a :class:`ServingClient` (see :meth:`ServingClient.open`).

    With ``retry``, idempotent requests back off and resubmit on
    ``retry_later``/transient disconnects (reconnecting to the same
    address first) — see :class:`RetryPolicy` — and the handshake itself
    retries under the policy too.
    """
    return await ServingClient.open(host, port, retry)


class SyncServingClient:
    """Blocking facade over an async client on a private loop thread.

    Safe to call from multiple threads — every call round-trips through the
    client's event loop.  Also a context manager::

        with SyncServingClient("127.0.0.1", 8765) as client:
            print(client.query_edge("a", "b").value)
    """

    #: The async client class the loop thread opens and every call runs on.
    _client_class: Type[ServingClient] = ServingClient

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serving-client", daemon=True
        )
        self._thread.start()
        try:
            self._client = self._call(self._client_class.open(host, port, retry))
        except BaseException:
            self._stop_loop()
            raise

    def _call(self, coroutine):
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=self._timeout)

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    @property
    def hello(self) -> dict:
        return self._client.hello

    @property
    def retries(self) -> int:
        """Requests resubmitted under the retry policy so far."""
        return self._client.retries

    @property
    def reconnects(self) -> int:
        """Transparent reconnects performed by the retry loop so far."""
        return self._client.reconnects

    def ping(self) -> bool:
        return self._call(self._client.ping())

    def health(self) -> dict:
        return self._call(self._client.health())

    def query_edges(
        self, edges: Sequence[EdgeKey], deadline_ms: Optional[float] = None
    ) -> WireResult:
        return self._call(self._client.query_edges(edges, deadline_ms))

    def query_edge(
        self, source: object, target: object, deadline_ms: Optional[float] = None
    ) -> WireResult:
        return self._call(self._client.query_edge(source, target, deadline_ms))

    def query_subgraph(
        self,
        edges: Sequence[EdgeKey],
        aggregate: str = "sum",
        deadline_ms: Optional[float] = None,
    ) -> WireResult:
        return self._call(self._client.query_subgraph(edges, aggregate, deadline_ms))

    def query_edges_confidence(
        self, edges: Sequence[EdgeKey], deadline_ms: Optional[float] = None
    ) -> List[dict]:
        return self._call(self._client.query_edges_confidence(edges, deadline_ms))

    def ingest(self, edges: Sequence) -> Tuple[int, int]:
        return self._call(self._client.ingest(edges))

    def close(self) -> None:
        if self._thread.is_alive():
            try:
                self._call(self._client.close())
            finally:
                self._stop_loop()

    def __enter__(self: _Sync) -> _Sync:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
