"""Load generator for the ``serve-mixed`` workload, in its own process.

    python perfbench/loadgen.py WORKDIR PORT [--trace]

One thread and one selector drive ``min(2, os.cpu_count())`` TCP
connections with the program's own wire codec
(:func:`repro.serving.wire.encode_frame` / ``decode_body``): no client
library objects and no per-request tasks.  Each of ``sizes.rounds`` rounds
runs three phases, each with an equal share of its seconds:

1. **open loop**: batch-1 point requests due every ``1 / open_rate`` seconds,
   request ``i`` on connection ``i % C``.  Each wake-up sends every request
   already due (ticks), and latency counts from the due time, so a stall
   also delays the requests queued behind it.
2. **closed loop**: every connection keeps ``closed_depth`` batch-1 point
   requests in flight.
3. **subgraph**: the same closed loop with ``query_subgraph`` requests of
   ``subgraph_edges`` edges, ``SUBGRAPH_DEPTH`` in flight per connection.

Beside them it sends ``frames_per_round`` ingest frames per round on
connection 0, one every ``frame_period`` seconds from the round's start.
A round ends once every request has been answered; between rounds the
generator prints a ``pause`` event and waits for a line on stdin, while the
system process sets up once more.  After the last round a **final sweep**
queries every probe edge.

Per-request results go to preallocated arrays with GC off and are written
to ``WORKDIR/loadgen.npz``.  Phase boundaries are printed as JSON lines so
``run.py`` can sample the server's CPU time at the same instants.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import selectors
import socket
import struct
import sys
import time
from pathlib import Path

import numpy as np

import inputs

OPEN_BASE = 0
CLOSED_BASE = 1 << 24
SUBGRAPH_BASE = 1 << 26
FRAME_BASE = 1 << 28
SWEEP_BASE = 1 << 29
DEADLINE_MS = 1_000
SWEEP_INFLIGHT = 8
SUBGRAPH_DEPTH = 8
DRAIN_TIMEOUT_NS = 10_000_000_000
STATUS_CODES = {
    "ok": 1, "retry_later": 2, "deadline_exceeded": 3, "shutting_down": 4, "error": 5
}
OK = 1
_HEADER = struct.Struct(">I")


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


class Results:
    """Preallocated per-request columns of one phase."""

    def __init__(self, count: int) -> None:
        self.send_ns = np.zeros(count, dtype=np.int64)
        self.recv_ns = np.zeros(count, dtype=np.int64)
        self.status = np.zeros(count, dtype=np.int8)
        self.value = np.zeros(count, dtype=np.float64)
        self.generation = np.full(count, -1, dtype=np.int64)
        self.acked = np.zeros(count, dtype=np.int32)
        self.sent = 0

    def columns(self, prefix: str) -> dict:
        return {
            f"{prefix}_{name}": column[: self.sent]
            for name, column in vars(self).items()
            if name != "sent"
        }


class LoadGenerator:
    def __init__(self, port: int, arrays, sizes: inputs.Sizes) -> None:
        from repro.serving import wire

        self.wire = wire
        self.sizes = sizes
        self.hot = [
            [s, t] for s, t in zip(arrays["hot_src"].tolist(), arrays["hot_dst"].tolist())
        ]
        self.open_keys = arrays["open_keys"].tolist()
        self.closed_keys = arrays["closed_keys"].tolist()
        self.subgraph_keys = arrays["subgraph_keys"].tolist()
        self.probe = [
            [s, t] for s, t in zip(arrays["probe_src"].tolist(), arrays["probe_dst"].tolist())
        ]
        self.frames = [
            [[s, t] for s, t in zip(sources, targets)]
            for sources, targets in zip(
                arrays["frame_src"].tolist(), arrays["frame_dst"].tolist()
            )
        ]
        self.open = Results(len(self.open_keys))
        self.closed = Results(len(self.closed_keys))
        self.subgraph = Results(len(self.subgraph_keys))
        self.frame = Results(len(self.frames))
        self.sweep_values = np.zeros(len(self.probe), dtype=np.float64)
        self.sweep_status = np.zeros(
            (len(self.probe) + sizes.sweep_batch - 1) // sizes.sweep_batch, dtype=np.int8
        )
        self.open_due = np.zeros(len(self.open_keys), dtype=np.int64)
        self.frame_due = np.zeros(len(self.frames), dtype=np.int64)
        self.intervals: list = []
        self.closed_cpu = self.closed_wall = 0.0
        self.acked_frames = 0
        self.outstanding = 0
        self.looping = None  # the closed-loop Results currently refilled
        self.selector = selectors.DefaultSelector()
        self.socks = []
        self.rbuf = []
        self.wbuf = []
        for index in range(connections()):
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.socks.append(sock)
            self.rbuf.append(bytearray())
            self.wbuf.append(bytearray())
            self.selector.register(sock, selectors.EVENT_READ, index)
        self.hellos = 0

    # ------------------------------------------------------------------ #
    # Socket plumbing
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for sock in self.socks:
            self.selector.unregister(sock)
            sock.close()
        self.selector.close()

    def send(self, conn: int, payload: dict) -> None:
        data = self.wire.encode_frame(payload)
        pending = self.wbuf[conn]
        if pending:
            pending += data
            return
        try:
            written = self.socks[conn].send(data)
        except BlockingIOError:
            written = 0
        if written < len(data):
            pending += data[written:]
            self.selector.modify(
                self.socks[conn], selectors.EVENT_READ | selectors.EVENT_WRITE, conn
            )

    def pump(self, timeout: float) -> None:
        for key, mask in self.selector.select(timeout):
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                pending = self.wbuf[conn]
                try:
                    written = self.socks[conn].send(pending)
                except BlockingIOError:
                    written = 0
                del pending[:written]
                if not pending:
                    self.selector.modify(self.socks[conn], selectors.EVENT_READ, conn)
            if mask & selectors.EVENT_READ:
                data = self.socks[conn].recv(1 << 18)
                if not data:
                    raise ConnectionError("server closed a connection")
                now = time.perf_counter_ns()
                buffer = self.rbuf[conn]
                buffer += data
                offset = 0
                size = len(buffer)
                decode = self.wire.decode_body
                while size - offset >= 4:
                    (length,) = _HEADER.unpack_from(buffer, offset)
                    if size - offset - 4 < length:
                        break
                    message = decode(bytes(buffer[offset + 4 : offset + 4 + length]))
                    offset += 4 + length
                    self.on_response(conn, message, now)
                del buffer[:offset]

    # ------------------------------------------------------------------ #
    # Requests and responses
    # ------------------------------------------------------------------ #
    def send_query(self, results: Results, base: int, conn: int, now: int) -> None:
        index = results.sent
        results.sent = index + 1
        results.send_ns[index] = now
        results.acked[index] = self.acked_frames
        self.outstanding += 1
        if results is self.subgraph:
            op = "query_subgraph"
            edges = [self.hot[key] for key in self.subgraph_keys[index]]
        else:
            op = "query_edges"
            keys = self.open_keys if results is self.open else self.closed_keys
            edges = [self.hot[keys[index]]]
        self.send(
            conn, {"op": op, "id": base + index, "edges": edges, "deadline_ms": DEADLINE_MS}
        )

    def refill(self, conn: int) -> None:
        results = self.looping
        if results is None:
            return
        if results.sent == len(results.status):
            self.looping = None  # out of preallocated requests: the phase stops early
            return
        base = CLOSED_BASE if results is self.closed else SUBGRAPH_BASE
        self.send_query(results, base, conn, time.perf_counter_ns())

    def on_response(self, conn: int, message: dict, now: int) -> None:
        rid = message.get("id")
        if rid is None:
            self.hellos += 1
            return
        self.outstanding -= 1
        status = STATUS_CODES.get(message.get("status"), 5)
        if rid >= SWEEP_BASE:
            batch = rid - SWEEP_BASE
            self.sweep_status[batch] = status
            if status == OK:
                start = batch * self.sizes.sweep_batch
                values = message["values"]
                self.sweep_values[start : start + len(values)] = values
            return
        if rid >= FRAME_BASE:
            results, index = self.frame, rid - FRAME_BASE
            if status == OK:
                self.acked_frames += 1
        elif rid >= SUBGRAPH_BASE:
            results, index = self.subgraph, rid - SUBGRAPH_BASE
            self.refill(conn)
        elif rid >= CLOSED_BASE:
            results, index = self.closed, rid - CLOSED_BASE
            self.refill(conn)
        else:
            results, index = self.open, rid
        results.recv_ns[index] = now
        results.status[index] = status
        if status == OK:
            results.generation[index] = message["generation"]
            if "value" in message:
                results.value[index] = message["value"]
            elif "values" in message:
                results.value[index] = message["values"][0]

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def wait_for_hellos(self) -> None:
        deadline = time.perf_counter() + 10.0
        while self.hellos < len(self.socks):
            if time.perf_counter() > deadline:
                raise TimeoutError("no hello frame from the server")
            self.pump(0.1)

    def round_intervals(self, t0: int) -> list:
        """``(phase, begin_ns, end_ns)`` of the three phases of a round from ``t0``."""
        sizes = self.sizes
        gap = int(sizes.phase_gap_seconds * 1e9)
        intervals = []
        at = t0
        for phase, seconds in (
            ("open", sizes.open_seconds),
            ("closed", sizes.closed_seconds),
            ("subgraph", sizes.subgraph_seconds),
        ):
            end = at + int(seconds / sizes.rounds * 1e9)
            intervals.append((phase, at, end))
            at = end + gap
        return intervals

    def run_round(self, round_index: int) -> None:
        """One round of the three phases; returns once every request is answered."""
        sizes = self.sizes
        conns = len(self.socks)
        t0 = time.perf_counter_ns() + 20_000_000
        intervals = self.round_intervals(t0)
        self.intervals += intervals
        per_round = len(self.open_keys) // sizes.rounds
        i = first_open = round_index * per_round
        end_open = first_open + per_round
        self.open_due[first_open:end_open] = intervals[0][1] + (
            np.arange(per_round) * (1e9 / sizes.open_rate)
        ).astype(np.int64)
        k = first_frame = round_index * sizes.frames_per_round
        end_frame = first_frame + sizes.frames_per_round
        self.frame_due[first_frame:end_frame] = t0 + (
            np.arange(end_frame - first_frame) * (sizes.frame_period * 1e9)
        ).astype(np.int64)
        # (instant, phase, edge): the loop acts on each boundary once it is due;
        # at a shared instant a phase ends before the next one begins.
        boundaries = sorted(
            [(begin, phase, "begin") for phase, begin, _end in intervals]
            + [(end, phase, "end") for phase, _begin, end in intervals],
            key=lambda boundary: (boundary[0], boundary[2] == "begin"),
        )
        last_end = intervals[-1][2]
        open_due = self.open_due.tolist()
        frame_due = self.frame_due.tolist()
        b = 0
        phase_began = (0, 0.0)
        while True:
            now = time.perf_counter_ns()
            while b < len(boundaries) and boundaries[b][0] <= now:
                _, phase, edge = boundaries[b]
                b += 1
                emit("phase", name=phase, edge=edge)
                self.looping = None
                if edge == "begin":
                    phase_began = (now, time.process_time())
                    if phase != "open":
                        self.looping = self.closed if phase == "closed" else self.subgraph
                        depth = sizes.closed_depth if phase == "closed" else SUBGRAPH_DEPTH
                        for _ in range(depth):
                            for conn in range(conns):
                                self.refill(conn)
                elif phase == "closed":
                    self.closed_cpu += time.process_time() - phase_began[1]
                    self.closed_wall += (now - phase_began[0]) / 1e9
            while i < end_open and open_due[i] <= now:
                self.send_query(self.open, OPEN_BASE, i % conns, now)
                i += 1
                now = time.perf_counter_ns()
            while k < end_frame and frame_due[k] <= now:
                self.frame.send_ns[k] = now
                self.frame.sent = k + 1
                self.outstanding += 1
                self.send(0, {"op": "ingest", "id": FRAME_BASE + k, "edges": self.frames[k]})
                k += 1
            if b == len(boundaries):
                drained = k == end_frame and self.outstanding == 0
                if drained or now > last_end + DRAIN_TIMEOUT_NS:
                    return  # unanswered requests keep status 0 and count as failed
                self.pump(0.05)
                continue
            wake = boundaries[b][0]
            if i < end_open:
                wake = min(wake, open_due[i])
            if k < end_frame:
                wake = min(wake, frame_due[k])
            self.pump(max(0.0, (wake - now) / 1e9))

    def run_phases(self) -> dict:
        """Every round, with a pause for a set-up between rounds."""
        for round_index in range(self.sizes.rounds):
            if round_index:
                emit("pause")
                if not sys.stdin.readline():
                    raise ConnectionError("run.py closed the pause channel")
            self.run_round(round_index)
        late = self.open.send_ns[: self.open.sent] - self.open_due[: self.open.sent]
        return {
            "intervals": self.intervals,
            "busy_frac": self.closed_cpu / self.closed_wall,
            "late_p99_ms": float(np.percentile(late, 99) / 1e6) if len(late) else 0.0,
        }

    def final_sweep(self) -> None:
        step = self.sizes.sweep_batch
        batches = len(self.sweep_status)
        sent = 0
        deadline = time.perf_counter() + 30.0
        while sent < batches or self.outstanding:
            while sent < batches and self.outstanding < SWEEP_INFLIGHT:
                self.outstanding += 1
                edges = self.probe[sent * step : (sent + 1) * step]
                self.send(0, {"op": "query_edges", "id": SWEEP_BASE + sent, "edges": edges})
                sent += 1
            if time.perf_counter() > deadline:
                return
            self.pump(0.05)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("port", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    inputs.own_cpu(1)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install_client(tracer)
    arrays, sizes = inputs.load(args.workdir)
    generator = LoadGenerator(args.port, arrays, sizes)
    try:
        generator.wait_for_hellos()
        gc.collect()
        gc.disable()
        try:
            timeline = generator.run_phases()
        finally:
            gc.enable()
        generator.final_sweep()
    finally:
        generator.close()
    np.savez(
        args.workdir / "loadgen.npz",
        open_due_ns=generator.open_due,
        frame_due_ns=generator.frame_due,
        sweep_values=generator.sweep_values,
        sweep_status=generator.sweep_status,
        **generator.open.columns("open"),
        **generator.closed.columns("closed"),
        **generator.subgraph.columns("subgraph"),
        **generator.frame.columns("frame"),
    )
    if tracer is not None:
        tracer.save(args.workdir / "client_spans.npz")
    emit("done", connections=len(generator.socks), **timeline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
