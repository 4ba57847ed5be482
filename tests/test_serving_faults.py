"""Wire-level fault injection and the client retry discipline.

Satellite suite for the self-healing serve plane.  Each test arms a seeded
:class:`repro.faults.FaultPlan` against an in-process server and pins one
client-visible contract:

* a frame **torn mid-payload** surfaces as a typed ``ServerClosed`` on a
  bare client, and is absorbed — bit-exactly — by a client carrying a
  :class:`RetryPolicy` (transparent reconnect + resubmit), also when the
  reconnect's hello is torn too;
* an **oversize frame** sent mid-stream gets that connection dropped
  without wounding the server or its other clients;
* a **stalled connection** delays only its own responses — a healthy peer
  keeps its latency while the victim waits (and still gets the exact
  answer);
* a connection **dropped after admission** fails its client typed and
  leaves the server answering fresh clients exactly (that a request still
  queued when its connection drops is skipped and counted is pinned on the
  coalescing queue itself, in ``tests/test_serving.py``);
* the **non-idempotent ingest window** is never retried: the engine
  mutated once, the client sees a typed disconnect, nothing double-counts;
* a session's generation **watermark survives reconnect** — monotonic
  reads hold across failover, a session whose connection was torn never
  parks a request on the dead socket, and a reconnect to a *stale* server
  raises ``ConsistencyError`` and closes the refused connection again;
* the ``health`` wire op answers in every server state, and the
  ``repro serve --health`` probe maps states to exit codes.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import pytest

from conftest import make_zipf_stream
from repro import faults
from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.serving import wire
from repro.serving.client import (
    RetryPolicy,
    ServerClosed,
    ServingError,
    SyncServingClient,
)
from repro.serving.server import ServingConfig, serve_in_background
from repro.serving.session import ConsistencyError, Session, SyncSession, open_session

RETRY = RetryPolicy(max_attempts=6, base_delay=0.01, max_delay=0.05, seed=3)


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    """Fault plans are process-global: never let one escape a test."""
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def serve_stream():
    return make_zipf_stream(num_edges=3_000, population=300, seed=11)


def _build_engine(stream):
    config = GSketchConfig(total_cells=8_000, depth=4, seed=7)
    engine = SketchEngine.builder().config(config).dataset(stream).build()
    engine.ingest(stream)
    return engine


@pytest.fixture(scope="module")
def engine(serve_stream):
    engine = _build_engine(serve_stream)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def query_keys(serve_stream):
    return sorted(serve_stream.distinct_edges())[:32]


def _arm(*specs: faults.FaultSpec) -> None:
    faults.install(faults.FaultPlan(list(specs)))


# ---------------------------------------------------------------------- #
# Torn frames
# ---------------------------------------------------------------------- #
class TestTornFrame:
    def test_torn_frame_is_typed_disconnect_without_retry(self, engine, query_keys):
        handle = serve_in_background(engine)
        try:
            with SyncServingClient(*handle.address) as client:
                client.query_edges(query_keys[:4])  # healthy round trip first
                _arm(faults.FaultSpec(site=faults.SITE_SERVING_TORN_FRAME))
                with pytest.raises(ServerClosed, match="wire error"):
                    client.query_edges(query_keys[:4])
        finally:
            faults.clear()
            handle.stop()

    def test_retry_policy_absorbs_torn_frame_bit_exact(self, engine, query_keys):
        direct = list(engine.estimator.query_edges(query_keys[:8]))
        handle = serve_in_background(engine)
        try:
            with SyncServingClient(*handle.address, retry=RETRY) as client:
                client.query_edges(query_keys[:8])
                _arm(faults.FaultSpec(site=faults.SITE_SERVING_TORN_FRAME))
                result = client.query_edges(query_keys[:8])
                assert list(result.values) == direct
                assert client.retries >= 1
                assert client.reconnects >= 1
        finally:
            faults.clear()
            handle.stop()

    def test_retry_policy_absorbs_torn_hello_on_reconnect(self, engine, query_keys):
        """The response is torn, then so is the reconnect's hello: the retry
        loop must see a typed disconnect and dial again."""
        direct = list(engine.estimator.query_edges(query_keys[:8]))
        handle = serve_in_background(engine)
        try:
            with SyncServingClient(*handle.address, retry=RETRY) as client:
                client.query_edges(query_keys[:8])
                _arm(
                    faults.FaultSpec(site=faults.SITE_SERVING_TORN_FRAME, at_hit=1),
                    faults.FaultSpec(site=faults.SITE_SERVING_TORN_FRAME, at_hit=2),
                )
                result = client.query_edges(query_keys[:8])
                assert list(result.values) == direct
                assert client.reconnects >= 1
        finally:
            faults.clear()
            handle.stop()

    def test_connect_retries_through_torn_hello(self, engine, query_keys):
        """The fault can land on the hello frame itself; the dial retries."""
        direct = list(engine.estimator.query_edges(query_keys[:4]))
        handle = serve_in_background(engine)
        try:
            _arm(faults.FaultSpec(site=faults.SITE_SERVING_TORN_FRAME))
            with SyncServingClient(*handle.address, retry=RETRY) as client:
                result = client.query_edges(query_keys[:4])
                assert list(result.values) == direct
        finally:
            faults.clear()
            handle.stop()


# ---------------------------------------------------------------------- #
# Malformed input mid-stream
# ---------------------------------------------------------------------- #
class TestOversizeFrame:
    def test_oversize_frame_drops_sender_only(self, engine, query_keys):
        import socket
        import struct

        config = ServingConfig(max_frame_bytes=64 * 1024)
        handle = serve_in_background(engine, config=config)
        try:
            host, port = handle.address
            rogue = socket.create_connection((host, port), timeout=10)
            try:
                rogue.settimeout(10.0)
                # Consume the hello, then claim a frame far past the cap.
                size = struct.unpack(">I", rogue.recv(4))[0]
                while size:
                    size -= len(rogue.recv(size))
                rogue.sendall(struct.pack(">I", 2**31) + b"x" * 16)
                # The server sends a typed protocol error, then hangs up on
                # us (EOF) — not on everyone.
                closing = b""
                while True:
                    chunk = rogue.recv(4096)
                    if not chunk:
                        break
                    closing += chunk
                assert b"cap" in closing
            finally:
                rogue.close()
            direct = list(engine.estimator.query_edges(query_keys[:4]))
            with SyncServingClient(host, port) as client:
                assert list(client.query_edges(query_keys[:4]).values) == direct
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# Stalls
# ---------------------------------------------------------------------- #
class TestStalledConnection:
    def test_stall_delays_victim_not_healthy_peer(self, engine, query_keys):
        direct = list(engine.estimator.query_edges(query_keys[:4]))
        handle = serve_in_background(engine)
        try:
            host, port = handle.address
            victim = SyncServingClient(host, port)
            healthy = SyncServingClient(host, port)
            try:
                victim.query_edges(query_keys[:4])
                healthy.query_edges(query_keys[:4])
                _arm(
                    faults.FaultSpec(
                        site=faults.SITE_SERVING_STALL_CONNECTION,
                        delay_seconds=0.6,
                    )
                )
                outcome: dict = {}

                def stalled_query():
                    began = time.monotonic()
                    result = victim.query_edges(query_keys[:4])
                    outcome["elapsed"] = time.monotonic() - began
                    outcome["values"] = list(result.values)

                worker = threading.Thread(target=stalled_query)
                worker.start()
                time.sleep(0.1)  # the stall spec has fired on the victim
                began = time.monotonic()
                peer = healthy.query_edges(query_keys[:4])
                peer_elapsed = time.monotonic() - began
                worker.join(timeout=10)
                assert outcome["values"] == direct  # stalled, never wrong
                assert outcome["elapsed"] >= 0.5
                assert list(peer.values) == direct
                assert peer_elapsed < 0.5, "stall leaked onto a healthy peer"
            finally:
                victim.close()
                healthy.close()
        finally:
            faults.clear()
            handle.stop()


# ---------------------------------------------------------------------- #
# Disconnect while queued
# ---------------------------------------------------------------------- #
class TestDropAfterAdmission:
    def test_dropped_connection_cancels_queued_request(self, engine, query_keys):
        handle = serve_in_background(engine)
        try:
            with SyncServingClient(*handle.address) as client:
                client.query_edges(query_keys[:4])
                _arm(faults.FaultSpec(site=faults.SITE_SERVING_DROP_DRAIN))
                with pytest.raises((ServerClosed, ServingError)):
                    client.query_edges(query_keys[:4])
            assert handle.stats()["connections_dropped"] >= 1
            # The server took no damage: a fresh client gets exact answers.
            direct = list(engine.estimator.query_edges(query_keys[:4]))
            with SyncServingClient(*handle.address) as client:
                assert list(client.query_edges(query_keys[:4]).values) == direct
        finally:
            faults.clear()
            handle.stop()


# ---------------------------------------------------------------------- #
# The non-idempotent window
# ---------------------------------------------------------------------- #
class TestIngestCrashWindow:
    def test_ingest_is_never_retried_across_the_ack_gap(self, serve_stream):
        engine = _build_engine(serve_stream)
        try:
            config = ServingConfig(allow_ingest=True)
            handle = serve_in_background(engine, config=config)
            try:
                with SyncServingClient(*handle.address, retry=RETRY) as client:
                    before = int(engine.estimator.ingest_generation)
                    _arm(faults.FaultSpec(site=faults.SITE_SERVING_INGEST_CRASH))
                    # The engine applies the batch, then the ack vanishes.  A
                    # retrying client MUST surface the disconnect instead of
                    # resubmitting — a resubmit here double-counts.
                    with pytest.raises((ServerClosed, ServingError)):
                        client.ingest([(1, 2), (3, 4)])
                    assert client.retries == 0, "non-idempotent op was retried"
                after = int(engine.estimator.ingest_generation)
                assert after == before + 1, "batch applied a number of times != 1"
            finally:
                faults.clear()
                handle.stop()
        finally:
            engine.close()


# ---------------------------------------------------------------------- #
# Sessions across failover
# ---------------------------------------------------------------------- #
class TestSessionFailover:
    def test_watermark_survives_transparent_reconnect(self, engine, query_keys):
        direct = list(engine.estimator.query_edges(query_keys[:6]))
        handle = serve_in_background(engine)
        try:
            with SyncSession(*handle.address, retry=RETRY) as session:
                first = session.query_edges(query_keys[:6])
                watermark = session.generation_observed
                assert watermark >= first.generation
                _arm(faults.FaultSpec(site=faults.SITE_SERVING_TORN_FRAME))
                second = session.query_edges(query_keys[:6])
                assert list(second.values) == direct
                assert session.reconnects >= 1
                # Monotonic reads held across the failover: the watermark
                # never regressed, and the post-reconnect answer advanced it.
                assert session.generation_observed >= watermark
                assert second.generation >= first.generation
        finally:
            faults.clear()
            handle.stop()

    @pytest.mark.parametrize("retry", [None, RETRY], ids=["bare", "retrying"])
    def test_async_session_survives_a_torn_connection(self, engine, query_keys, retry):
        """The reader task a session runs is its own: once the server tears the
        connection, a bare session answers its next request ``ServerClosed``
        at once, and a retrying one reconnects and answers bit-exact."""
        direct = list(engine.estimator.query_edges(query_keys[:6]))
        handle = serve_in_background(engine)

        async def scenario():
            session = await open_session(*handle.address, retry=retry)
            try:
                await session.query_edges(query_keys[:6])
                _arm(faults.FaultSpec(site=faults.SITE_SERVING_TORN_FRAME))
                if retry is None:
                    for _ in range(2):  # the torn answer, then the next request
                        with pytest.raises(ServerClosed):
                            await asyncio.wait_for(session.query_edges(query_keys[:6]), 1.0)
                    return
                result = await asyncio.wait_for(session.query_edges(query_keys[:6]), 5.0)
                assert list(result.values) == direct
                assert session.reconnects >= 1
            finally:
                await session.close()

        try:
            asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))
        finally:
            faults.clear()
            handle.stop()

    @pytest.mark.parametrize("session_class", [Session, SyncSession])
    def test_reconnect_to_a_stale_server_raises_and_leaves_nothing_open(
        self, engine, query_keys, session_class
    ):
        """A reconnect whose hello carries a generation below the watermark is
        refused with ``ConsistencyError``, and the refused connection is closed
        again: no reader task, no transport, nothing open on the server."""
        generation = int(engine.estimator.ingest_generation)
        assert generation > 0
        handle = serve_in_background(engine)
        server = handle.server
        fresh_hello = server._hello
        try:
            with _open_session(session_class, handle.address) as (session, run, client):
                assert run(session.query_edges(query_keys[:4])).generation == generation
                server._hello = lambda: {**fresh_hello(), "generation": generation - 1}
                _arm(faults.FaultSpec(site=faults.SITE_SERVING_TORN_FRAME))
                with pytest.raises(ConsistencyError, match="monotonic"):
                    run(session.query_edges(query_keys[:4]))
                assert session.generation_observed == generation
                assert client._reader_task is None and client._writer is None
                deadline = time.monotonic() + 10.0
                while handle.stats()["connections_open"] and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert handle.stats()["connections_open"] == 0
        finally:
            faults.clear()
            handle.stop()


@contextlib.contextmanager
def _open_session(session_class, address):
    """Yield ``(session, run, client)`` for either session class: ``run`` turns
    what a session call returns into its result, and ``client`` is the async
    client that holds the connection."""
    if session_class is SyncSession:
        with SyncSession(*address, retry=RETRY) as session:
            yield session, (lambda result: result), session._client
        return
    loop = asyncio.new_event_loop()
    try:
        session = loop.run_until_complete(Session.open(*address, RETRY))
        try:
            yield session, loop.run_until_complete, session
        finally:
            loop.run_until_complete(session.close())
    finally:
        loop.close()


# ---------------------------------------------------------------------- #
# Health surface
# ---------------------------------------------------------------------- #
class TestHealth:
    def test_health_op_reports_serving_then_draining(self, engine):
        handle = serve_in_background(engine)
        try:
            with SyncServingClient(*handle.address) as client:
                document = client.health()
                assert document["state"] == wire.STATE_SERVING
                assert document["generation"] >= 0
                # Drain announced: health still answers, reporting the state
                # instead of shedding the probe.
                handle.server._draining = True
                try:
                    assert client.health()["state"] == wire.STATE_DRAINING
                finally:
                    handle.server._draining = False
        finally:
            handle.stop()

    def test_cli_health_probe_exit_codes(self, engine, capsys):
        import json

        from repro.api.cli import main as cli_main

        handle = serve_in_background(engine)
        try:
            host, port = handle.address
            assert cli_main(["serve", "--health", f"{host}:{port}"]) == 0
            document = json.loads(capsys.readouterr().out)
            assert document["healthy"] is True
            assert document["state"] == wire.STATE_SERVING
        finally:
            handle.stop()
        # The listener is gone: the probe reports unreachable, exit 1.
        assert cli_main(["serve", "--health", f"{host}:{port}"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["healthy"] is False
