"""The serving tier: wire protocol, coalescing, consistency, overload, drain.

The acceptance bars under test:

* **parity** — every answer over the wire is bit-identical to a direct
  ``query_edges`` on the same engine, under any interleaving of concurrent
  clients (JSON round-trips float64 exactly);
* **coalescing** — point queries in flight from different connections drain
  into shared compiled-plan gathers (server stats prove batches < requests);
* **consistency** — sessions observe monotonic generations across live
  wire-ingest and the plan rebuild it forces;
* **overload** — beyond the admission bound requests are shed with *typed*
  ``retry_later`` rejects, queue depth stays bounded, nothing hangs, and a
  slow client is dropped without stalling healthy peers;
* **admission** — a pipelined burst of every request kind gets exactly one
  typed answer per id with no task created per request, and a gather or an
  ingest that raises any exception is answered with a typed ``error``; a
  server fault is logged and counted apart from a bad request;
* **connections** — frames split across reads at any byte are reassembled
  into the same answers, EOF inside a frame is answered typed, and an open
  connection holds no task;
* **drain** — shutdown answers everything already admitted before closing.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import socket
import struct
import subprocess
import sys
import time

import pytest

from conftest import make_zipf_stream
from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.graph.edge import StreamEdge
from repro.observability import metrics as obs_metrics
from repro.queries.plan import demux_by_counts
from repro.serving import server as server_module
from repro.serving import wire
from repro.serving.client import (
    DeadlineExceeded,
    RetryLater,
    ServerClosed,
    ServingError,
    SyncServingClient,
    connect,
)
from repro.serving.coalesce import (
    AdmissionError,
    CoalescingQueue,
    DeadlineExceededError,
)
from repro.serving.server import ServingConfig, SketchServer, serve_in_background
from repro.serving.session import ConsistencyError, SyncSession, _Watermark


@pytest.fixture(scope="module")
def serve_stream():
    return make_zipf_stream(num_edges=3_000, population=300, seed=11)


@pytest.fixture(scope="module")
def serve_config():
    return GSketchConfig(total_cells=8_000, depth=4, seed=7)


def _build_engine(stream, config, **builder_kwargs):
    builder = SketchEngine.builder().config(config).dataset(stream)
    engine = builder.build()
    engine.ingest(stream)
    return engine


@pytest.fixture(scope="module")
def engine(serve_stream, serve_config):
    """A read-only gsketch engine shared by the pure-query tests."""
    engine = _build_engine(serve_stream, serve_config)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def query_keys(serve_stream):
    keys = sorted(serve_stream.distinct_edges())[:64]
    keys.append((10**9, 3))  # outlier-routed
    return keys


# ---------------------------------------------------------------------- #
# Wire protocol
# ---------------------------------------------------------------------- #
class TestWire:
    def test_frame_roundtrip_preserves_float64_bits(self):
        values = [0.1 + 0.2, 1e-309, 7.5, float(2**53 - 1), 3.141592653589793]
        payload = {"op": "query_edges", "values": values, "id": 7}
        assert wire.decode_body(wire.encode_frame(payload)[4:]) == payload

    def test_reader_roundtrip_and_clean_eof(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(wire.encode_frame({"a": 1}))
            reader.feed_data(wire.encode_frame({"b": [1, 2]}))
            reader.feed_eof()
            assert await wire.read_frame(reader) == {"a": 1}
            assert await wire.read_frame(reader) == {"b": [1, 2]}
            assert await wire.read_frame(reader) is None  # clean EOF

        asyncio.run(scenario())

    def test_oversized_frame_rejected_without_reading_body(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 10_000_000) + b"x" * 64)
            with pytest.raises(wire.WireError, match="exceeds"):
                await wire.read_frame(reader, max_frame_bytes=1024)

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "raw",
        [
            b"\x00\x00",  # torn mid-header
            struct.pack(">I", 100) + b"{tru",  # torn mid-body
        ],
    )
    def test_truncated_frame_raises(self, raw):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            with pytest.raises(wire.WireError):
                await wire.read_frame(reader)

        asyncio.run(scenario())

    def test_frame_body_must_be_json_object(self):
        with pytest.raises(wire.WireError):
            wire.decode_body(b"[1, 2, 3]")
        with pytest.raises(wire.WireError):
            wire.decode_body(b"\xff\xfe")

    def test_edges_from_wire_validation(self):
        assert wire.edges_from_wire([[1, 2], ["a", "b"]]) == [(1, 2), ("a", "b")]
        for bad in (None, [], "ab", [[1]], [[1, 2, 3]], [[1, [2]]]):
            with pytest.raises(wire.WireError):
                wire.edges_from_wire(bad)

    def test_parse_address(self):
        assert wire.parse_address("127.0.0.1:8765") == ("127.0.0.1", 8765)
        for bad in ("no-port", "host:", "host:not-a-number", ":99"):
            with pytest.raises(ValueError):
                wire.parse_address(bad)


# ---------------------------------------------------------------------- #
# Coalescing queue (unit level, private event loop per test)
# ---------------------------------------------------------------------- #
def _echo_answer(keys):
    """Deterministic per-key answer so demux slices are checkable."""
    return [float(sum(key)) for key in keys], 42


class TestCoalescingQueue:
    def test_concurrent_submits_coalesce_into_one_gather(self):
        calls = []

        def answer(keys):
            calls.append(list(keys))
            return _echo_answer(keys)

        async def scenario():
            queue = CoalescingQueue(answer)
            queue.start()
            futures = [queue.submit([(i, i + 1)]) for i in range(10)]
            results = await asyncio.gather(*futures)
            await queue.stop()
            return results

        results = asyncio.run(scenario())
        assert len(calls) == 1 and len(calls[0]) == 10
        for index, (values, generation) in enumerate(results):
            assert values == [float(index + index + 1)]
            assert generation == 42

    def test_demux_slices_match_multi_key_requests(self):
        async def scenario():
            queue = CoalescingQueue(_echo_answer)
            queue.start()
            futures = [
                queue.submit([(1, 2), (3, 4)]),
                queue.submit([(5, 6)]),
                queue.submit([(7, 8), (9, 10), (11, 12)]),
            ]
            results = await asyncio.gather(*futures)
            await queue.stop()
            return results

        results = asyncio.run(scenario())
        assert results[0][0] == [3.0, 7.0]
        assert results[1][0] == [11.0]
        assert results[2][0] == [15.0, 19.0, 23.0]

    def test_admission_rejects_synchronously_beyond_max_pending(self):
        async def scenario():
            queue = CoalescingQueue(_echo_answer, max_pending=4)
            queue.start()
            admitted = [queue.submit([(i, i)]) for i in range(4)]
            with pytest.raises(AdmissionError):
                queue.submit([(9, 9)])
            results = await asyncio.gather(*admitted)
            await queue.stop()
            assert queue.rejected == 1
            assert queue.max_depth <= 4
            return results

        assert len(asyncio.run(scenario())) == 4

    def test_expired_deadline_gets_typed_error_not_stale_answer(self):
        async def scenario():
            queue = CoalescingQueue(_echo_answer)
            queue.start()
            loop = asyncio.get_running_loop()
            dead = queue.submit([(1, 2)], deadline=loop.time() - 0.001)
            live = queue.submit([(3, 4)], deadline=loop.time() + 5.0)
            with pytest.raises(DeadlineExceededError):
                await dead
            values, _ = await live
            await queue.stop()
            assert values == [7.0]
            assert queue.expired == 1

        asyncio.run(scenario())

    def test_stop_drains_admitted_work_then_rejects(self):
        async def scenario():
            queue = CoalescingQueue(_echo_answer)
            queue.start()
            admitted = [queue.submit([(i, i)]) for i in range(3)]
            await queue.stop()
            results = await asyncio.gather(*admitted)
            assert [values for values, _ in results] == [[0.0], [2.0], [4.0]]
            with pytest.raises(AdmissionError, match="draining"):
                queue.submit([(9, 9)])

        asyncio.run(scenario())

    def test_answer_exception_fans_out_to_the_whole_batch(self):
        def broken(keys):
            raise RuntimeError("arena on fire")

        async def scenario():
            queue = CoalescingQueue(broken)
            queue.start()
            futures = [queue.submit([(1, 2)]), queue.submit([(3, 4)])]
            for future in futures:
                with pytest.raises(RuntimeError, match="arena on fire"):
                    await future
            await queue.stop()

        asyncio.run(scenario())

    def test_lone_request_is_answered_without_a_timer(self):
        """A non-full batch waits one loop pass, never a timer: with the
        loop's clock frozen no timer can come due, and a lone request is
        still answered within a few passes."""
        calls = []

        def answer(keys):
            calls.append(list(keys))
            return _echo_answer(keys)

        async def scenario():
            queue = CoalescingQueue(answer)
            queue.start()
            future = queue.submit([(1, 2)])
            for _ in range(4):
                if future.done():
                    break
                await asyncio.sleep(0)
            assert future.done(), "a lone request waited on a timer"
            await queue.stop()
            return future.result()

        loop = asyncio.new_event_loop()
        loop.time = lambda: 0.0
        try:
            assert loop.run_until_complete(scenario()) == ([3.0], 42)
        finally:
            loop.close()
        assert calls == [[(1, 2)]]

    def test_cancelled_request_still_queued_is_skipped_and_counted(self):
        """A request whose future was cancelled (its connection dropped)
        before the drain reached it takes no gather capacity and no answer."""
        calls = []

        def answer(keys):
            calls.append(list(keys))
            return _echo_answer(keys)

        async def scenario():
            queue = CoalescingQueue(answer)
            queue.start()
            dropped = queue.submit([(1, 2)])
            live = queue.submit([(3, 4)])
            dropped.cancel()
            values, _ = await live
            await queue.stop()
            return values, queue.stats()

        values, stats = asyncio.run(scenario())
        assert values == [7.0]
        assert calls == [[(3, 4)]]
        assert stats["cancelled"] == 1
        assert stats["batches"] == 1 and stats["coalesced_keys"] == 1
        assert stats["depth"] == 0

    def test_demux_by_counts_validates_totals(self):
        assert demux_by_counts([1.0, 2.0, 3.0], [2, 1]) == [[1.0, 2.0], [3.0]]
        assert demux_by_counts([], []) == []
        with pytest.raises(ValueError, match="counts sum"):
            demux_by_counts([1.0, 2.0], [1])


# ---------------------------------------------------------------------- #
# Server round-trips (background thread, sync clients)
# ---------------------------------------------------------------------- #
class TestServerRoundTrip:
    @pytest.fixture(scope="class")
    def served(self, engine):
        handle = engine.serve()
        yield handle
        handle.stop()

    def test_point_queries_bit_exact_vs_direct(self, served, engine, query_keys):
        direct = engine.estimator.query_edges(query_keys)
        with SyncServingClient(*served.address) as client:
            result = client.query_edges(query_keys)
        assert list(result.values) == list(direct)

    def test_single_edge_and_pipelining(self, served, engine, query_keys):
        direct = engine.estimator.query_edges(query_keys[:8])
        with SyncServingClient(*served.address) as client:
            values = [
                client.query_edge(source, target).value
                for source, target in query_keys[:8]
            ]
        assert values == list(direct)

    def test_subgraph_aggregates_combine_server_side(self, served, engine, query_keys):
        direct = engine.estimator.query_edges(query_keys[:6])
        with SyncServingClient(*served.address) as client:
            total = client.query_subgraph(query_keys[:6], aggregate="sum")
            peak = client.query_subgraph(query_keys[:6], aggregate="max")
        assert total.value == sum(direct)
        assert peak.value == max(direct)

    def test_confidence_lane_matches_facade_estimates(self, served, engine, query_keys):
        expected = [estimate.to_dict() for estimate in engine.query(query_keys[:5])]
        with SyncServingClient(*served.address) as client:
            over_wire = client.query_edges_confidence(query_keys[:5])
        assert over_wire == expected

    def test_hello_carries_protocol_backend_generation(self, served, engine):
        with SyncServingClient(*served.address) as client:
            hello = client.hello
        assert hello["protocol"] == wire.PROTOCOL_VERSION
        assert hello["backend"] == engine.backend
        assert hello["generation"] == int(engine.estimator.ingest_generation)

    def test_bad_request_gets_typed_error_response(self, served):
        with SyncServingClient(*served.address) as client:
            with pytest.raises(ServingError, match="aggregate"):
                client.query_subgraph([(1, 2)], aggregate="no-such-aggregate")
            with pytest.raises(ServingError, match="edges"):
                client.query_edges([])  # the server rejects empty batches typed
            # The connection survives typed errors.
            assert client.ping()

    def test_ingest_disabled_by_default(self, served):
        with SyncServingClient(*served.address) as client:
            with pytest.raises(ServingError, match="allow_ingest"):
                client.ingest([(1, 2)])

    def test_engine_serve_is_a_context_manager(self, serve_stream, serve_config):
        engine = _build_engine(serve_stream, serve_config)
        try:
            with engine.serve() as handle:
                with SyncServingClient(*handle.address) as client:
                    assert client.ping()
        finally:
            engine.close()


# ---------------------------------------------------------------------- #
# Cross-client coalescing and interleaved parity
# ---------------------------------------------------------------------- #
async def _serve_on_this_loop(engine, config, drive):
    """Run ``drive(host, port)`` against a server on the caller's own loop.

    Every frame the clients write in one loop pass is readable when the
    server next polls, with no server thread racing the writes, so requests
    sent together reach the coalescer together.  Returns the drive's result
    and the server stats taken before shutdown.
    """
    server = SketchServer(engine, config=config)
    await server.start()
    try:
        return await drive(*server.address), server.stats()
    finally:
        await server.shutdown()


class TestConcurrency:
    def test_concurrent_clients_coalesce_into_shared_batches(self, engine, query_keys):
        async def fire(host, port):
            clients = [await connect(host, port) for _ in range(12)]
            try:
                await asyncio.gather(
                    *(
                        client.query_edges([query_keys[i % len(query_keys)]])
                        for i, client in enumerate(clients)
                    )
                )
            finally:
                for client in clients:
                    await client.close()

        _, stats = asyncio.run(
            asyncio.wait_for(_serve_on_this_loop(engine, ServingConfig(), fire), 30.0)
        )
        stats = stats["coalescer"]
        assert stats["submitted"] == 12
        assert stats["batches"] < stats["submitted"]
        assert stats["mean_batch_size"] > 1.0

    def test_interleaved_clients_stay_bit_exact_vs_oracle(self, engine, query_keys):
        oracle = dict(zip(query_keys, engine.estimator.query_edges(query_keys)))
        handle = engine.serve()
        try:
            host, port = handle.address

            async def client_loop(index):
                client = await connect(host, port)
                mismatches = 0
                generations = []
                try:
                    for round_ in range(40):
                        key = query_keys[(index * 7 + round_) % len(query_keys)]
                        result = await client.query_edges([key])
                        generations.append(result.generation)
                        if result.values[0] != oracle[key]:
                            mismatches += 1
                finally:
                    await client.close()
                return mismatches, generations

            outcomes = asyncio.run(
                _gather_clients(client_loop, num_clients=8)
            )
        finally:
            handle.stop()
        assert sum(mismatches for mismatches, _ in outcomes) == 0
        for _, generations in outcomes:
            assert generations == sorted(generations), "generation regressed"


async def _gather_clients(client_loop, num_clients):
    return await asyncio.gather(*(client_loop(i) for i in range(num_clients)))


# ---------------------------------------------------------------------- #
# Sessions: monotonic reads across live ingest
# ---------------------------------------------------------------------- #
class TestSessions:
    def test_watermark_detects_regression(self):
        watermark = _Watermark()
        watermark.observe(3)
        watermark.observe(3)
        watermark.observe(5)
        with pytest.raises(ConsistencyError, match="monotonic"):
            watermark.observe(4)

    def test_monotonic_reads_across_wire_ingest_and_plan_rebuild(
        self, serve_stream, serve_config
    ):
        engine = _build_engine(serve_stream, serve_config)
        handle = serve_in_background(
            engine, config=ServingConfig(allow_ingest=True)
        )
        try:
            host, port = handle.address
            plan_before = engine.estimator.compile_plan().generation
            with SyncSession(host, port) as session:
                first = session.query_edges([("s-new", "t-new")])
                assert first.values[0] == 0.0
                generation_before = session.generation_observed

                ingested, generation = session.ingest(
                    [("s-new", "t-new"), ("s-new", "t-new"), ("s-other", "t-new")]
                )
                assert ingested == 3
                assert generation > generation_before

                # Reads after the ingest see its writes and never regress.
                second = session.query_edges([("s-new", "t-new")])
                assert second.values[0] >= 2.0
                assert second.generation >= generation
                assert session.generation_observed >= generation
            # The wire ingest forced a real plan rebuild on the engine.
            assert engine.estimator.compile_plan().generation > plan_before
        finally:
            handle.stop()
            engine.close()

    @pytest.mark.parametrize("frequency", ["nan", float("nan")], ids=["string", "json"])
    def test_wire_ingest_rejects_nan_frequency_typed(
        self, frequency, serve_stream, serve_config
    ):
        """``"nan"`` parses as a float and JSON carries ``NaN``; either way the
        frame gets a typed error and the engine is left as it was."""
        engine = _build_engine(serve_stream, serve_config)
        handle = serve_in_background(engine, config=ServingConfig(allow_ingest=True))
        keys = [(1, 2), (3, 4)]
        try:
            with SyncServingClient(*handle.address) as client:
                before = client.query_edges(keys)
                with pytest.raises(ServingError, match="finite and >= 0"):
                    client.ingest([(1, 2, 0.0, 5.0), (3, 4, 0.0, frequency)])
                after = client.query_edges(keys)
                assert after.values == before.values
                assert after.generation == before.generation
                assert client.health()["generation"] == before.generation
        finally:
            handle.stop()
            engine.close()

    def test_windowed_engine_tags_answers_and_acks_with_its_generation(
        self, serve_stream, serve_config
    ):
        """Read-your-writes needs a generation that moves on every backend,
        the windowed one included."""
        engine = SketchEngine.builder().config(serve_config).windowed(2_000.0).build()
        engine.ingest(serve_stream)
        key = sorted(serve_stream.distinct_edges())[0]
        timestamp = float(len(serve_stream))  # in the open window
        handle = serve_in_background(engine, config=ServingConfig(allow_ingest=True))
        try:
            with SyncServingClient(*handle.address) as client:
                hello = client.hello["generation"]
                ingested, acked = client.ingest([(key[0], key[1], timestamp, 2.0)])
                answer = client.query_edges([key])
                [estimate] = client.query_edges_confidence([key])
        finally:
            handle.stop()
            engine.close()
        assert ingested == 1
        assert acked > hello
        assert answer.generation > hello
        assert estimate["generation"] == answer.generation

    @pytest.mark.parametrize(
        "fault",
        [{"target": None}, {"timestamp": "nan"}, {"timestamp": 0.0}],
        ids=["none-target", "nan-timestamp", "closed-window"],
    )
    def test_windowed_wire_ingest_refused_mid_frame_changes_nothing(
        self, fault, serve_stream, serve_config
    ):
        """An element the windowed backend refuses gets its frame a typed
        ``error`` before the frame's first element lands."""
        engine = SketchEngine.builder().config(serve_config).windowed(1_000.0).build()
        engine.ingest(serve_stream)
        key = sorted(serve_stream.distinct_edges())[0]
        stamp = float(len(serve_stream))  # opens the next window
        good = StreamEdge(key[0], key[1], stamp, 1.0)
        handle = serve_in_background(engine, config=ServingConfig(allow_ingest=True))
        try:
            with SyncServingClient(*handle.address) as client:
                before = client.query_edges([key])
                with pytest.raises(ServingError):
                    client.ingest([good, good._replace(**fault)])
                after = client.query_edges([key])
                assert after.values == before.values
                assert after.generation == before.generation
        finally:
            handle.stop()
            engine.close()

    def test_sync_session_seeds_watermark_from_hello(self, engine):
        handle = engine.serve()
        try:
            with SyncSession(*handle.address) as session:
                assert session.generation_observed == int(
                    engine.estimator.ingest_generation
                )
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# Overload: typed rejects, bounded depth, slow clients, deadlines
# ---------------------------------------------------------------------- #
class TestOverload:
    def test_queue_full_sheds_with_typed_retry_later(self, engine, query_keys):
        async def flood(host, port):
            client = await connect(host, port)
            try:
                return await asyncio.gather(
                    *(
                        client.query_edges([query_keys[i % len(query_keys)]])
                        for i in range(64)
                    ),
                    return_exceptions=True,
                )
            finally:
                await client.close()

        config = ServingConfig(max_pending=8)
        results, stats = asyncio.run(
            asyncio.wait_for(_serve_on_this_loop(engine, config, flood), 30.0)
        )
        rejected = [r for r in results if isinstance(r, RetryLater)]
        answered = [r for r in results if not isinstance(r, Exception)]
        assert len(rejected) + len(answered) == 64, "a request hung or died untyped"
        assert rejected, "overload never surfaced as retry_later"
        assert answered, "admission shed everything"
        assert stats["coalescer"]["max_depth"] <= 8, "queue depth exceeded the bound"
        assert stats["requests"]["retry_later"] == len(rejected)

    def test_per_connection_inflight_cap_sheds_greedy_pipeliner(
        self, engine, query_keys
    ):
        async def pipeline(host, port):
            client = await connect(host, port)
            try:
                return await asyncio.gather(
                    *(client.query_edges([query_keys[0]]) for _ in range(16)),
                    return_exceptions=True,
                )
            finally:
                await client.close()

        config = ServingConfig(max_inflight=4)
        results, _ = asyncio.run(
            asyncio.wait_for(_serve_on_this_loop(engine, config, pipeline), 30.0)
        )
        assert any(isinstance(r, RetryLater) for r in results)
        assert any(not isinstance(r, Exception) for r in results)

    def test_expired_deadline_is_typed_over_the_wire(self, engine, query_keys):
        # A zero budget expires at the drain by construction: the drain runs
        # at least one loop pass after the request was admitted.
        handle = serve_in_background(engine)
        try:
            with SyncServingClient(*handle.address) as client:
                with pytest.raises(DeadlineExceeded):
                    client.query_edges(query_keys[:2], deadline_ms=0.0)
        finally:
            handle.stop()

    def test_slow_client_is_dropped_without_stalling_healthy_peer(
        self, engine, query_keys
    ):
        config = ServingConfig(
            max_write_queue=4,
            max_inflight=4_096,
            max_pending=1_000_000,
            max_batch=4_096,
        )
        handle = serve_in_background(engine, config=config)
        try:
            host, port = handle.address
            # The slow client advertises a tiny receive window and never
            # reads: large responses back up through the kernel, the
            # per-connection write queue fills, and the server drops it.
            slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4_096)
            slow.connect((host, port))
            big_batch = [list(key) for key in query_keys] * 32  # ~2k keys/request
            frame = wire.encode_frame(
                {"op": wire.OP_QUERY_EDGES, "id": 1, "edges": big_batch}
            )
            try:
                slow.settimeout(10.0)
                for index in range(200):
                    try:
                        slow.sendall(frame)
                    except (BrokenPipeError, ConnectionResetError, socket.timeout):
                        break  # server already dropped us

                # A healthy peer stays responsive while the slow one backs up.
                direct = engine.estimator.query_edges(query_keys[:4])
                began = time.monotonic()
                with SyncServingClient(host, port) as client:
                    values = list(client.query_edges(query_keys[:4]).values)
                assert values == list(direct)
                assert time.monotonic() - began < 10.0

                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    if handle.stats()["connections_dropped"] >= 1:
                        break
                    time.sleep(0.1)
                assert handle.stats()["connections_dropped"] >= 1, (
                    "slow client was never dropped"
                )
            finally:
                slow.close()
        finally:
            handle.stop()


# ---------------------------------------------------------------------- #
# Admission callbacks: one raw connection, frames written by hand
# ---------------------------------------------------------------------- #
def _recv_exactly(sock, size):
    data = b""
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return data


def _recv_frame(sock):
    (length,) = struct.unpack(">I", _recv_exactly(sock, 4))
    return wire.decode_body(_recv_exactly(sock, length))


class TestAdmissionCallbacks:
    def test_pipelined_mixed_burst_is_answered_once_each_without_a_task_each(
        self, engine, query_keys
    ):
        """Every request of a pipelined burst gets exactly one typed answer,
        the coalesced answers are bit-exact, every path releases its
        ``inflight`` slot, and no task is created per request."""
        max_inflight = 16
        point_keys = [[key] for key in query_keys[:8]] + [query_keys[24:30]]
        subgraph_keys = [query_keys[start : start + 4] for start in (8, 12, 16, 20)]
        confidence_keys = query_keys[30:33]
        burst = [
            {"op": wire.OP_QUERY_EDGES, "edges": wire.edges_to_wire(keys)}
            for keys in point_keys
        ]
        burst += [
            {
                "op": wire.OP_QUERY_SUBGRAPH,
                "edges": wire.edges_to_wire(keys),
                "aggregate": "sum",
            }
            for keys in subgraph_keys
        ]
        burst += [
            {
                "op": wire.OP_QUERY_EDGES,
                "edges": wire.edges_to_wire(confidence_keys),
                "confidence": True,
            },
            {"op": wire.OP_PING},
            {"op": wire.OP_QUERY_EDGES, "edges": [[1, 2, 3]]},
            {
                "op": wire.OP_QUERY_EDGES,
                "edges": wire.edges_to_wire(point_keys[0]),
                "deadline_ms": 0,
            },
        ]
        for request_id, request in enumerate(burst):
            request["id"] = request_id
        second = [
            {
                "op": wire.OP_QUERY_EDGES,
                "id": len(burst) + offset,
                "edges": wire.edges_to_wire([query_keys[offset]]),
            }
            for offset in range(max_inflight)
        ]

        async def drive(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            assert (await wire.read_frame(reader))["op"] == wire.OP_HELLO
            peak = [0]
            sampling = [True]

            async def sample_tasks():
                while sampling[0]:
                    peak[0] = max(peak[0], len(asyncio.all_tasks()))
                    await asyncio.sleep(0)

            sampler = asyncio.ensure_future(sample_tasks())
            await asyncio.sleep(0)
            idle = len(asyncio.all_tasks())
            answers = {}

            async def exchange(requests):
                writer.write(b"".join(wire.encode_frame(request) for request in requests))
                await writer.drain()
                wanted = {request["id"] for request in requests}
                while not wanted <= answers.keys():
                    frame = await wire.read_frame(reader)
                    answers.setdefault(frame["id"], []).append(frame)

            await exchange(burst)
            sampling[0] = False
            await sampler
            await exchange(second)
            # Half-close: the server flushes what it still holds, then closes,
            # so a duplicate answer would be read here.
            writer.write_eof()
            while True:
                frame = await wire.read_frame(reader)
                if frame is None:
                    break
                answers.setdefault(frame["id"], []).append(frame)
            writer.close()
            return answers, peak[0] - idle

        config = ServingConfig(max_inflight=max_inflight)
        (answers, extra_tasks), stats = asyncio.run(
            asyncio.wait_for(_serve_on_this_loop(engine, config, drive), 30.0)
        )
        assert sorted(answers) == list(range(len(burst) + len(second)))
        assert all(len(frames) == 1 for frames in answers.values()), "answered twice"
        status = {request_id: frames[0]["status"] for request_id, frames in answers.items()}
        for request_id, keys in enumerate(point_keys):
            assert status[request_id] == wire.STATUS_OK
            direct = list(engine.estimator.query_edges(keys))
            assert answers[request_id][0]["values"] == direct
        for offset, keys in enumerate(subgraph_keys):
            request_id = len(point_keys) + offset
            assert status[request_id] == wire.STATUS_OK
            assert answers[request_id][0]["value"] == sum(engine.estimator.query_edges(keys))
        confidence_id, ping_id, malformed_id, deadline_id = range(
            len(point_keys) + len(subgraph_keys), len(burst)
        )
        expected = [estimate.to_dict() for estimate in engine.query(confidence_keys)]
        assert answers[confidence_id][0]["estimates"] == expected
        assert answers[ping_id][0]["pong"] is True
        assert status[malformed_id] == wire.STATUS_ERROR
        assert status[deadline_id] == wire.STATUS_DEADLINE
        # The second burst fills `max_inflight` exactly: a slot leaked on any
        # path of the first burst would shed one of these.
        for request in second:
            assert status[request["id"]] == wire.STATUS_OK
            key = query_keys[request["id"] - len(burst)]
            assert answers[request["id"]][0]["values"] == engine.estimator.query_edges([key])
        assert stats["requests"][wire.STATUS_RETRY_LATER] == 0
        # A task per admitted request would add one per in-flight query.
        assert extra_tasks <= 2, f"{extra_tasks} tasks above idle during the burst"

    def test_gather_raising_an_unlisted_exception_is_answered_typed(
        self, engine, query_keys, monkeypatch
    ):
        def broken_gather(keys):
            raise TypeError("gather cannot read these keys")

        direct = list(engine.estimator.query_edges(query_keys[:4]))
        handle = serve_in_background(engine)
        try:
            host, port = handle.address
            monkeypatch.setattr(engine.estimator, "query_edges", broken_gather)
            with socket.create_connection((host, port), timeout=10.0) as raw:
                raw.settimeout(5.0)
                assert _recv_frame(raw)["op"] == wire.OP_HELLO
                raw.sendall(
                    wire.encode_frame(
                        {
                            "op": wire.OP_QUERY_EDGES,
                            "id": 7,
                            "edges": wire.edges_to_wire(query_keys[:2]),
                        }
                    )
                )
                frame = _recv_frame(raw)
            monkeypatch.undo()
            assert frame["id"] == 7
            assert frame["status"] == wire.STATUS_ERROR
            assert "gather cannot read these keys" in frame["error"]
            with SyncServingClient(host, port) as client:
                assert list(client.query_edges(query_keys[:4]).values) == direct
        finally:
            monkeypatch.undo()
            handle.stop()

    def test_failing_ingest_frame_is_answered_typed_and_keeps_the_connection(
        self, engine, query_keys, monkeypatch
    ):
        """An unexpected exception from ``ingest_batch`` gets a typed
        ``error``; the queries pipelined around it are still answered and
        the connection stays open."""

        def broken_ingest(batch):
            raise RuntimeError("ingest backend failed")

        queries = {1: query_keys[:1], 3: query_keys[1:4]}
        direct = {
            request_id: list(engine.estimator.query_edges(keys))
            for request_id, keys in queries.items()
        }
        requests = [
            {"op": wire.OP_QUERY_EDGES, "id": 1, "edges": wire.edges_to_wire(queries[1])},
            {"op": wire.OP_INGEST, "id": 2, "edges": [[1, 2, 0.0, 1.0]]},
            {"op": wire.OP_QUERY_EDGES, "id": 3, "edges": wire.edges_to_wire(queries[3])},
            {"op": wire.OP_PING, "id": 4},
        ]
        handle = serve_in_background(engine, config=ServingConfig(allow_ingest=True))
        try:
            host, port = handle.address
            monkeypatch.setattr(engine, "ingest_batch", broken_ingest)
            with socket.create_connection((host, port), timeout=10.0) as raw:
                raw.settimeout(5.0)
                assert _recv_frame(raw)["op"] == wire.OP_HELLO
                raw.sendall(b"".join(wire.encode_frame(request) for request in requests))
                answers = {}
                while len(answers) < len(requests):
                    frame = _recv_frame(raw)
                    answers[frame["id"]] = frame
                raw.sendall(wire.encode_frame({"op": wire.OP_PING, "id": 5}))
                later = _recv_frame(raw)
        finally:
            monkeypatch.undo()
            handle.stop()
        assert answers[2]["status"] == wire.STATUS_ERROR
        assert "ingest backend failed" in answers[2]["error"]
        for request_id, values in direct.items():
            assert answers[request_id]["status"] == wire.STATUS_OK
            assert answers[request_id]["values"] == values
        assert answers[4]["pong"] is True
        assert later["id"] == 5 and later["pong"] is True

    def test_server_fault_is_logged_and_counted_apart_from_a_bad_request(
        self, engine, query_keys, monkeypatch, caplog
    ):
        """A ``RuntimeError`` from ``ingest_batch`` is a server fault: logged
        with its traceback and counted in ``internal_errors`` and
        ``repro_serve_internal_errors_total``.  A malformed request is not."""
        fault = RuntimeError("ingest backend failed")

        def broken_ingest(batch):
            raise fault

        counter = server_module._INTERNAL_ERRORS
        was_enabled = obs_metrics.enabled()
        counted_before = counter.value
        handle = serve_in_background(engine, config=ServingConfig(allow_ingest=True))
        try:
            obs_metrics.set_enabled(True)
            monkeypatch.setattr(engine, "ingest_batch", broken_ingest)
            caplog.set_level(logging.ERROR, logger=server_module.__name__)
            with socket.create_connection(handle.address, timeout=10.0) as raw:
                raw.settimeout(5.0)
                assert _recv_frame(raw)["op"] == wire.OP_HELLO
                raw.sendall(
                    wire.encode_frame({"op": wire.OP_QUERY_EDGES, "id": 1, "edges": [[1]]})
                )
                malformed = _recv_frame(raw)
                after_malformed = handle.stats()
                raw.sendall(
                    wire.encode_frame(
                        {"op": wire.OP_INGEST, "id": 2, "edges": [[1, 2, 0.0, 1.0]]}
                    )
                )
                failed = _recv_frame(raw)
            stats = handle.stats()
        finally:
            obs_metrics.set_enabled(was_enabled)
            monkeypatch.undo()
            handle.stop()
        assert malformed["status"] == failed["status"] == wire.STATUS_ERROR
        assert after_malformed["internal_errors"] == 0
        assert stats["internal_errors"] == 1
        assert stats["requests"][wire.STATUS_ERROR] == 2
        assert counter.value == counted_before + 1
        records = [
            record for record in caplog.records if record.name == server_module.__name__
        ]
        assert len(records) == 1
        assert records[0].exc_info is not None and records[0].exc_info[1] is fault


# ---------------------------------------------------------------------- #
# The connection layer: one protocol per connection, frames split anywhere
# ---------------------------------------------------------------------- #
class TestConnectionProtocol:
    def test_pipelined_burst_answers_alike_in_one_write_and_byte_by_byte(
        self, engine, query_keys
    ):
        point_keys = [[key] for key in query_keys[:6]] + [query_keys[40:45]]
        subgraph_keys = [query_keys[start : start + 4] for start in (8, 12, 16)]
        requests = [
            {"op": wire.OP_QUERY_EDGES, "edges": wire.edges_to_wire(keys)}
            for keys in point_keys
        ]
        requests += [
            {
                "op": wire.OP_QUERY_SUBGRAPH,
                "edges": wire.edges_to_wire(keys),
                "aggregate": "sum",
            }
            for keys in subgraph_keys
        ]
        requests.insert(3, {"op": wire.OP_PING})
        requests.append({"op": wire.OP_PING})
        for request_id, request in enumerate(requests):
            request["id"] = request_id
        data = b"".join(wire.encode_frame(request) for request in requests)

        def exchange(address, bytewise):
            with socket.create_connection(address, timeout=10.0) as raw:
                raw.settimeout(10.0)
                raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                assert _recv_frame(raw)["op"] == wire.OP_HELLO
                if bytewise:
                    for index in range(len(data)):
                        raw.sendall(data[index : index + 1])
                else:
                    raw.sendall(data)
                answers = {}
                while len(answers) < len(requests):
                    frame = _recv_frame(raw)
                    answers[frame["id"]] = frame
                return answers

        handle = serve_in_background(engine)
        try:
            whole = exchange(handle.address, bytewise=False)
            bytewise = exchange(handle.address, bytewise=True)
        finally:
            handle.stop()
        assert whole == bytewise
        for request in requests:
            answer = whole[request["id"]]
            assert answer["status"] == wire.STATUS_OK
            if request["op"] == wire.OP_PING:
                assert answer["pong"] is True
                continue
            keys = [tuple(edge) for edge in request["edges"]]
            direct = list(engine.estimator.query_edges(keys))
            if request["op"] == wire.OP_QUERY_EDGES:
                assert answer["values"] == direct
            else:
                assert answer["value"] == sum(direct)

    @pytest.mark.parametrize(
        "keep, error",
        [(-3, "connection closed mid-frame"), (2, "connection closed mid-header")],
        ids=["mid-frame", "mid-header"],
    )
    def test_eof_inside_a_frame_is_answered_typed_before_the_close(
        self, engine, keep, error
    ):
        frame = wire.encode_frame({"op": wire.OP_PING, "id": 1})
        handle = serve_in_background(engine)
        try:
            with socket.create_connection(handle.address, timeout=10.0) as raw:
                raw.settimeout(10.0)
                assert _recv_frame(raw)["op"] == wire.OP_HELLO
                raw.sendall(frame + frame[:keep])
                raw.shutdown(socket.SHUT_WR)
                pong = _recv_frame(raw)
                refusal = _recv_frame(raw)
                assert raw.recv(1) == b"", "the connection stayed open"
        finally:
            handle.stop()
        assert pong["id"] == 1 and pong["pong"] is True
        assert refusal["status"] == wire.STATUS_ERROR
        assert refusal["error"] == error

    def test_open_connections_hold_no_task_and_shutdown_closes_them_all(self, engine):
        async def scenario():
            server = SketchServer(engine, config=ServingConfig())
            await server.start()
            idle = len(asyncio.all_tasks())
            streams = [await asyncio.open_connection(*server.address) for _ in range(16)]
            for reader, _ in streams:
                assert (await wire.read_frame(reader))["op"] == wire.OP_HELLO
            extra_tasks = len(asyncio.all_tasks()) - idle
            opened = server.stats()["connections_open"]
            await server.shutdown()
            after = server.stats()["connections_open"]
            tails = [await reader.read() for reader, _ in streams]
            for _, writer in streams:
                writer.close()
            return extra_tasks, opened, after, tails

        extra_tasks, opened, after, tails = asyncio.run(
            asyncio.wait_for(scenario(), timeout=30.0)
        )
        assert extra_tasks == 0
        assert opened == 16
        assert after == 0
        assert tails == [b""] * 16, "a connection was left open or sent extra bytes"


# ---------------------------------------------------------------------- #
# Graceful drain
# ---------------------------------------------------------------------- #
class TestDrain:
    def test_shutdown_answers_admitted_requests_then_sheds(self, engine, query_keys):
        direct = engine.estimator.query_edges(query_keys[:1])

        async def scenario():
            server = SketchServer(engine, config=ServingConfig())
            await server.start()
            host, port = server.address
            client = await connect(host, port)
            try:
                # Admit requests, then shut down underneath them: everything
                # admitted gets its real answer.
                in_flight = [
                    asyncio.ensure_future(client.query_edges([query_keys[0]]))
                    for _ in range(4)
                ]
                await asyncio.sleep(0.05)  # let dispatch admit them
                await server.shutdown()
                results = await asyncio.gather(*in_flight, return_exceptions=True)
                answered = [
                    r for r in results if not isinstance(r, Exception)
                ]
                assert answered, "drain dropped admitted work"
                for result in answered:
                    assert list(result.values) == list(direct)
                # The connection is gone afterwards; new requests fail typed.
                with pytest.raises((ServerClosed, ServingError)):
                    await client.query_edges([query_keys[0]])
            finally:
                await client.close()
            return True

        assert asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_shutdown_leaves_no_task_or_open_connection(self, engine, query_keys):
        async def scenario():
            own = asyncio.all_tasks()
            server = SketchServer(engine, config=ServingConfig())
            await server.start()
            clients = [await connect(*server.address) for _ in range(4)]
            for client in clients:
                await client.query_edges([query_keys[0]])
            for client in clients:
                await client.close()
            await server.shutdown()
            return asyncio.all_tasks() - own, server.stats()["connections_open"]

        # A task still closing a connection after shutdown() returned would be
        # cancelled when the loop closes, mid-close.
        assert asyncio.run(asyncio.wait_for(scenario(), timeout=30.0)) == (set(), 0)

    def test_draining_server_sheds_new_queries_typed(self, engine, query_keys):
        async def scenario():
            server = SketchServer(engine, config=ServingConfig())
            await server.start()
            client = await connect(*server.address)
            try:
                server._draining = True  # drain announced, listener still up
                with pytest.raises(ServerClosed):
                    await client.query_edges([query_keys[0]])
            finally:
                server._draining = False
                await client.close()
                await server.shutdown()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


# ---------------------------------------------------------------------- #
# CLI: serve + query --connect end to end
# ---------------------------------------------------------------------- #
class TestServeCli:
    def test_serve_and_query_connect_roundtrip(self, tmp_path):
        from repro.api.cli import main as cli_main

        snapshot = str(tmp_path / "serve.snap")
        assert (
            cli_main(
                [
                    "build",
                    "--dataset",
                    "zipf",
                    "--edges",
                    "2000",
                    "--cells",
                    "6000",
                    "--ingest",
                    "--out",
                    snapshot,
                ]
            )
            == 0
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--snapshot", snapshot],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = json.loads(process.stdout.readline())
            assert ready["serving"] is True and ready["port"] > 0
            address = f"{ready['host']}:{ready['port']}"
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "query",
                    "--connect",
                    address,
                    "--edge",
                    "1",
                    "2",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            document = json.loads(result.stdout)
            assert document["connect"] == address
            assert len(document["estimates"]) == 1
            assert document["estimates"][0]["value"] >= 0.0
        finally:
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0
        final = json.loads(process.stdout.read())
        assert final["serving"] is False
        assert final["draining"] is True

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["TERM", "INT"])
    def test_serve_drains_on_signal_when_started_with_sigint_ignored(
        self, signum, tmp_path
    ):
        from repro.api.cli import main as cli_main

        snapshot = str(tmp_path / "serve.snap")
        build = ["build", "--dataset", "zipf", "--edges", "2000", "--cells", "6000"]
        assert cli_main([*build, "--ingest", "--out", snapshot]) == 0
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # A non-interactive shell starts background jobs this way: the
        # child inherits SIGINT ignored, so only its own handlers can drain.
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--snapshot", snapshot],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            ready = json.loads(process.stdout.readline())
            assert ready["serving"] is True
            process.send_signal(signum)
            assert process.wait(timeout=30) == 0
            final = json.loads(process.stdout.read())
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        assert final["serving"] is False
        assert final["draining"] is True

    def test_query_requires_exactly_one_target(self):
        from repro.api.cli import main as cli_main

        assert cli_main(["query", "--edge", "1", "2"]) == 2  # neither
        assert (
            cli_main(
                [
                    "query",
                    "--edge",
                    "1",
                    "2",
                    "--snapshot",
                    "x.snap",
                    "--connect",
                    "h:1",
                ]
            )
            == 2
        )  # both

    def test_query_connect_refuses_window_queries(self):
        from repro.api.cli import main as cli_main

        code = cli_main(
            [
                "query",
                "--connect",
                "127.0.0.1:1",
                "--edge",
                "1",
                "2",
                "--window",
                "0",
                "1",
            ]
        )
        assert code == 2
