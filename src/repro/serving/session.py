"""Sessions: monotonic-reads consistency over the serving wire.

Every server response carries the engine's ingest ``generation`` at answer
time.  A session is a client that *asserts monotonic reads*: once a
response at generation *g* has been observed, any later response at a
generation < *g* raises :class:`ConsistencyError`.

The server upholds the guarantee by construction — all backend access is
serialized on one event-loop thread and the coalescer is FIFO, so answers
observed over a single connection can never regress.  The session exists to
*detect* violations (a misbehaving proxy, a failover to a stale replica, a
future server bug) rather than to mask them, and to give callers a typed
place to read the generation watermark (:attr:`Session.generation_observed`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.graph.edge import EdgeKey
from repro.serving.client import (
    RetryPolicy,
    ServingClient,
    SyncServingClient,
    WireResult,
)

__all__ = ["ConsistencyError", "Session", "SyncSession"]


class ConsistencyError(RuntimeError):
    """A response regressed the session's generation watermark."""


class _Watermark:
    """The monotonic-reads check behind every session."""

    __slots__ = ("generation_observed",)

    def __init__(self) -> None:
        self.generation_observed = 0

    def observe(self, generation: int) -> None:
        if generation < self.generation_observed:
            raise ConsistencyError(
                f"monotonic reads violated: observed generation "
                f"{self.generation_observed}, then answered at {generation}"
            )
        self.generation_observed = generation


class Session(ServingClient):
    """An async client that enforces monotonic reads across its lifetime.

    Open one with :meth:`Session.open` or :func:`open_session`.  The watermark
    lives on the session, not the connection: it is seeded from the first
    hello's generation, and every reconnect's hello is checked against it, so
    monotonic reads survive failover and reconnecting to a *stale* server
    raises :class:`ConsistencyError` instead of silently serving old data.
    """

    def __init__(self, host: str, port: int, retry: Optional[RetryPolicy] = None) -> None:
        super().__init__(host, port, retry)
        self._watermark = _Watermark()

    @property
    def generation_observed(self) -> int:
        """The highest generation any response in this session carried."""
        return self._watermark.generation_observed

    def _accept_hello(self, frame: Optional[dict]) -> None:
        super()._accept_hello(frame)
        generation = frame.get("generation")
        if generation is not None:
            self._watermark.observe(int(generation))

    def _observe(self, result: WireResult) -> WireResult:
        self._watermark.observe(result.generation)
        return result

    async def query_edges(
        self, edges: Sequence[EdgeKey], deadline_ms: Optional[float] = None
    ) -> WireResult:
        return self._observe(await super().query_edges(edges, deadline_ms))

    async def query_subgraph(
        self,
        edges: Sequence[EdgeKey],
        aggregate: str = "sum",
        deadline_ms: Optional[float] = None,
    ) -> WireResult:
        return self._observe(await super().query_subgraph(edges, aggregate, deadline_ms))

    async def ingest(self, edges: Sequence):
        ingested, generation = await super().ingest(edges)
        self._watermark.observe(generation)
        return ingested, generation


async def open_session(
    host: str, port: int, retry: Optional[RetryPolicy] = None
) -> Session:
    """Open a monotonic-reads :class:`Session` (see :meth:`ServingClient.open`)."""
    return await Session.open(host, port, retry)


class SyncSession(SyncServingClient):
    """Blocking session: its loop thread runs a :class:`Session`.

    Every call, ``ping`` and ``health`` included, is the
    :class:`SyncServingClient` one; the watermark and its checks (the first
    hello, every reconnect's hello, every answer) are the session's.
    """

    _client_class = Session
    _client: Session

    @property
    def generation_observed(self) -> int:
        """The highest generation any response in this session carried."""
        return self._client.generation_observed
