"""repro.serving — the concurrent query-serving tier.

A small asyncio TCP stack in front of one :class:`~repro.api.engine.SketchEngine`:

* :mod:`~repro.serving.wire` — length-prefixed JSON frames (the protocol).
* :mod:`~repro.serving.coalesce` — the cross-client batching queue: waiting
  point queries from *different* connections drain into one compiled-plan
  gather, then demux back per request.  Concurrency buys batch size, and
  batch size is where the compiled plan's throughput lives.
* :mod:`~repro.serving.server` — :class:`SketchServer` plus the sync entry
  points (:func:`serve_in_background` → :class:`ServerHandle`,
  :func:`run_server` for the CLI), admission control and graceful drain.
* :mod:`~repro.serving.client` / :mod:`~repro.serving.session` — pipelined
  async client, blocking wrapper, and monotonic-reads sessions.

Quick start::

    stream = repro.datasets.load_dataset("gtgraph-tiny").stream
    engine = (
        repro.SketchEngine.builder()
        .config(repro.GSketchConfig.from_memory_bytes(64_000))
        .dataset(stream)                    # sample + stream-size hint derived
        .build()
    )
    engine.ingest(stream)
    with engine.serve() as handle:          # background thread, port 0
        host, port = handle.address
        with SyncServingClient(host, port) as client:
            client.query_edges([(3, 17), (5, 9)]).values
        with SyncSession(host, port) as session:   # monotonic reads
            session.query_edges([(3, 17)]).generation
"""

from repro.serving.client import (
    DeadlineExceeded,
    RetryLater,
    RetryPolicy,
    ServerClosed,
    ServingClient,
    ServingError,
    SyncServingClient,
    WireResult,
    connect,
)
from repro.serving.coalesce import (
    AdmissionError,
    CoalescingQueue,
    DeadlineExceededError,
)
from repro.serving.server import (
    ServerHandle,
    ServingConfig,
    SketchServer,
    run_server,
    serve_in_background,
)
from repro.serving.session import ConsistencyError, Session, SyncSession, open_session

__all__ = [
    "AdmissionError",
    "CoalescingQueue",
    "ConsistencyError",
    "DeadlineExceeded",
    "DeadlineExceededError",
    "RetryLater",
    "RetryPolicy",
    "ServerClosed",
    "ServerHandle",
    "ServingClient",
    "ServingConfig",
    "ServingError",
    "Session",
    "SketchServer",
    "SyncServingClient",
    "SyncSession",
    "WireResult",
    "connect",
    "open_session",
    "run_server",
    "serve_in_background",
]
