"""Shared-memory shard execution: zero-copy counters, fused kernels, pipelining.

:class:`SharedMemoryExecutor` is the production shard backend (the
in-process :class:`~repro.distributed.executor.SequentialExecutor` is the
parity reference).  It runs one persistent worker process per shard; the
design rests on where the counter state lives and what travels over the
pipes:

* **Counters live in a shared-memory arena.**  Each shard's Count-Min tables
  are laid out side by side in one ``multiprocessing.shared_memory`` block of
  shape ``(depth, total_width)`` — partition ``p`` owns the column slice
  ``[offset_p, offset_p + width_p)``.  The coordinator-resident sketches are
  re-bound to numpy views of those slices
  (:meth:`~repro.sketches.countmin.CountMinSketch.attach_table`), so worker
  writes are visible to coordinator queries without any serialize → pull
  cycle: :meth:`SharedMemoryExecutor.sync` merely drains in-flight batches
  (a *flush*), it never ships sketch state.

* **Apply ships only routed columns — through shared memory as well.**  A
  dispatched batch is three flat arrays — slot ids, canonical uint64 keys,
  frequency counts — written from the shard's
  :class:`~repro.core.batch_router.PartitionGroup` list in group order
  (which preserves arrival order within every partition, the invariant
  behind bit-exact parity) into a per-shard shared-memory **staging ring**
  with one segment per in-flight batch.  The pipe then carries only a tiny
  ``(segment, count)`` descriptor, so dispatch never blocks on socket
  buffers and pays no pickling of bulk data.  Segment reuse is safe by
  construction: dispatch ``d`` waits until fewer than ``max_pending``
  batches are outstanding, which guarantees segment ``d mod max_pending``
  (written ``max_pending`` dispatches ago) has been acknowledged.
  Oversized batches fall back to inline pipe transport transparently.

* **The arena enables a fused apply kernel.**  Because every partition table
  is a column range of one array, the worker hashes and scatters a whole
  batch *across all of a shard's partitions* in one vectorized pass per
  sketch row: per-element hash coefficients are gathered from per-slot
  tables, :func:`~repro.sketches.hashing.gathered_hash_columns` computes all
  columns at once, and a single ``np.add.at`` per row applies the updates.
  The per-partition path this replaces pays ~``groups × depth`` small numpy
  kernel calls per batch; the fused kernel pays ``depth``.  Per-cell float
  accumulation order is unchanged (``np.add.at`` applies updates in index
  order, and elements stay partition-grouped in arrival order), so counters
  are bit-identical to :class:`~repro.distributed.executor.SequentialExecutor`
  for arbitrary float frequencies.

* **Dispatch is pipelined.**  ``apply_async`` returns after the send, with at
  most ``max_pending`` batches in flight per shard (double-buffering by
  default).  The coordinator therefore routes batch N+1 while workers apply
  batch N — the two serial stages that dominate the in-process breakdown
  overlap.  Scalar bookkeeping (``total_count`` / ``update_count``) is
  credited on the coordinator at dispatch
  (:meth:`~repro.distributed.shard.SketchShard.credit_groups`), preserving
  the exact accumulation order of the in-process path.

A dead worker is detected on the next send, ack wait, or sync and surfaces
as :class:`~repro.distributed.executor.ShardExecutionError` naming the shard;
:meth:`SharedMemoryExecutor.close` stays safe afterwards (idempotent,
crash-tolerant) and always detaches coordinator sketches back onto private
arrays before unlinking the shared blocks.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro import faults as _faults
from repro.core.batch_router import PartitionGroup
from repro.distributed.executor import (
    DEFAULT_TEARDOWN_DEADLINE,
    ShardExecutionError,
    await_worker_reply,
    reap_workers,
    send_to_worker,
)
from repro.distributed.shard import SketchShard
from repro.observability import metrics as _obs
from repro.observability.tracing import get_recorder
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashing import gathered_hash_columns

# Pipelined dispatch cannot be wrapped in coordinator-side stage spans (the
# apply happens later, in a worker), so the executor reports its own running
# totals: dispatch wall, backpressure stalls, and drained batches.
_SHM_DISPATCH_SECONDS = _obs.REGISTRY.counter(
    "repro_shared_dispatch_seconds_total",
    "Shared-memory executor: wall seconds spent dispatching batches",
)
_SHM_STALL_SECONDS = _obs.REGISTRY.counter(
    "repro_shared_stall_seconds_total",
    "Shared-memory executor: wall seconds stalled on backpressure or drains",
)
_SHM_BATCHES = _obs.REGISTRY.counter(
    "repro_shared_batches_total", "Shared-memory executor: batches dispatched"
)

#: Default number of batches allowed in flight per shard (double buffering).
DEFAULT_MAX_PENDING = 2

#: Minimum per-segment staging capacity, in elements.  Sized to hold the
#: default ingest batch whole even when one shard receives every element.
MIN_STAGING_CAPACITY = 65_536


def _release_shm(shm: shared_memory.SharedMemory) -> None:
    """Unmap and unlink one shared block, tolerating live views and races.

    The single teardown used by every owner of a block (arena close,
    staging-ring close, start-failure rollback): a ``BufferError`` means a
    numpy view still references the mapping (the unlink below still
    reclaims the segment once the view dies), and ``FileNotFoundError``
    means another path already unlinked it.
    """
    try:
        shm.close()
    except BufferError:  # pragma: no cover - defensive
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - defensive
        pass


class _StagingRing:
    """Coordinator-side view of one shard's column staging ring.

    The block holds ``segments`` independent segments of ``capacity``
    elements; each segment stores three parallel column arrays (int32 slot
    ids, uint64 keys, float64 counts) back to back.  The worker maps the
    same block read-only (by convention) via :class:`StagingSpec`-equivalent
    geometry shipped in the ``("staging", ...)`` message.
    """

    BYTES_PER_ELEMENT = 4 + 8 + 8

    def __init__(self, segments: int, capacity: int) -> None:
        self.segments = segments
        self.capacity = capacity
        self.shm = shared_memory.SharedMemory(
            create=True, size=segments * capacity * self.BYTES_PER_ELEMENT
        )
        self.slots, self.keys, self.counts = staging_views(
            self.shm.buf, segments, capacity
        )

    def close(self) -> None:
        self.slots = self.keys = self.counts = None  # type: ignore[assignment]
        _release_shm(self.shm)


def staging_views(buf, segments: int, capacity: int):
    """The three staged column arrays, shaped ``(segments, capacity)``.

    Layout: all slot columns first, then all key columns, then all count
    columns — three contiguous typed regions, so every view is aligned for
    its dtype.  Shared by the coordinator (writer) and worker (reader).
    """
    slots_bytes = segments * capacity * 4
    keys_bytes = segments * capacity * 8
    slots = np.ndarray((segments, capacity), dtype=np.int32, buffer=buf)
    keys = np.ndarray(
        (segments, capacity), dtype=np.uint64, buffer=buf, offset=slots_bytes
    )
    counts = np.ndarray(
        (segments, capacity),
        dtype=np.float64,
        buffer=buf,
        offset=slots_bytes + keys_bytes,
    )
    return slots, keys, counts


@dataclass(frozen=True)
class ArenaSpec:
    """Worker-side description of one shard's shared counter arena.

    Attributes:
        shm_name: name of the shared-memory block holding the arena.
        shard_index: the shard this arena belongs to (fault-site scoping).
        depth: sketch depth (rows); identical for every sketch in a shard.
        total_width: total columns across the shard's sketches.
        offsets: per-slot first column in the arena, ``int64 (nslots,)``.
        widths: per-slot table width, ``uint64 (nslots,)``.
        hash_a: per-row, per-slot hash coefficients ``a``, ``uint64 (depth, nslots)``.
        hash_b: per-row, per-slot hash coefficients ``b``, ``uint64 (depth, nslots)``.
        conservative: whether the shard's sketches use conservative update
            (falls back to the sequential per-element kernel).
        seq_slot_offset: byte offset of the 8-byte applied-sequence slot at
            the end of the arena block.  The worker commits the dispatch
            sequence number there *after* applying a batch, so a restarted
            worker's supervisor can read exactly which journaled batches
            reached the shared counters (crash-consistent replay watermark).
    """

    shm_name: str
    shard_index: int
    depth: int
    total_width: int
    offsets: np.ndarray
    widths: np.ndarray
    hash_a: np.ndarray
    hash_b: np.ndarray
    conservative: bool
    seq_slot_offset: int


def _apply_fused(
    arena: np.ndarray,
    spec: ArenaSpec,
    slots: np.ndarray,
    keys: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Hash + scatter one shipped batch across all slots and rows at once.

    All ``depth`` rows are processed in one broadcast kernel pass —
    coefficients gathered as ``(depth, n)`` matrices against broadcast keys —
    and applied with a single ``np.add.at`` into the raveled arena using
    per-row cell offsets.  Bit-exact versus the per-row / per-partition
    path: cells in different rows (or partitions) never alias, and within a
    cell the element application order is the arrival order either way.
    """
    off_el = spec.offsets[slots]
    w_el = spec.widths[slots]
    cols = gathered_hash_columns(
        spec.hash_a[:, slots],
        spec.hash_b[:, slots],
        w_el,
        np.broadcast_to(keys, (spec.depth, len(keys))),
    )
    row_base = (np.arange(spec.depth, dtype=np.int64) * spec.total_width)[:, np.newaxis]
    flat = cols + (off_el + row_base)
    np.add.at(
        arena.reshape(-1),
        flat.reshape(-1),
        np.broadcast_to(counts, (spec.depth, len(counts))).reshape(-1),
    )


def _apply_conservative(
    arena: np.ndarray,
    spec: ArenaSpec,
    slots: np.ndarray,
    keys: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Per-element conservative update (bit-identical to ``update_batch``).

    Conservative update is inherently sequential — each element's cell values
    depend on every earlier element — so columns are still hashed vectorized,
    but the min-raising rule is applied element by element in arrival order.
    """
    off_el = spec.offsets[slots]
    w_el = spec.widths[slots]
    cols = np.empty((spec.depth, len(keys)), dtype=np.int64)
    for row in range(spec.depth):
        cols[row] = gathered_hash_columns(
            spec.hash_a[row][slots], spec.hash_b[row][slots], w_el, keys
        )
    flat = cols + off_el[np.newaxis, :]
    rows = np.arange(spec.depth)
    counts_list = counts.tolist()
    for element in range(flat.shape[1]):
        cells = flat[:, element]
        current = arena[rows, cells]
        new_min = current.min() + counts_list[element]
        np.maximum(current, new_min, out=current)
        arena[rows, cells] = current


def _arena_worker(conn, spec: ArenaSpec, fault_plan=None) -> None:
    """Worker-process loop: attach the arena, apply shipped column batches.

    Commit order per batch — apply counters, write the applied-sequence
    slot, acknowledge — so at any crash point the seq slot tells the
    supervisor exactly which journaled batches are already in the arena.
    """
    # Install unconditionally: a forked worker inherits the coordinator's
    # module-level plan, so ``None`` must actively clear it (a restarted
    # worker only keeps the specs ``restart_plan`` chose to ship).
    _faults.install(fault_plan)
    try:
        # Attaching re-registers the block with the resource tracker, which
        # is shared across the process tree (fork and spawn alike): the
        # duplicate registration is a set no-op, and the coordinator's unlink
        # performs the single matching unregister.
        shm = shared_memory.SharedMemory(name=spec.shm_name)
        arena: Optional[np.ndarray] = np.ndarray(
            (spec.depth, spec.total_width), dtype=np.float64, buffer=shm.buf
        )
        seq_view: Optional[np.ndarray] = np.ndarray(
            (1,), dtype=np.uint64, buffer=shm.buf, offset=spec.seq_slot_offset
        )
    except Exception:  # noqa: BLE001 - report attach failures to the parent
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    staging_shm = None
    staged = None

    def _commit_and_ack(seq: Optional[int]) -> None:
        if seq is not None:
            seq_view[0] = seq
        if _faults._PLAN is not None:
            _faults.crash_point(_faults.SITE_CRASH_AFTER_APPLY, spec.shard_index)
            if _faults.should_fire(_faults.SITE_DROP_ACK, spec.shard_index):
                return
            _faults.maybe_slow_ack(spec.shard_index)
        conn.send(("ok", None))

    try:
        while True:
            message = conn.recv()
            kind = message[0]
            try:
                if kind == "apply_shm":
                    _, segment, count, seq = message
                    slots = staged[0][segment, :count]
                    keys = staged[1][segment, :count]
                    counts = staged[2][segment, :count]
                    if _faults._PLAN is not None:
                        _faults.crash_point(
                            _faults.SITE_CRASH_BEFORE_APPLY, spec.shard_index
                        )
                    if spec.conservative:
                        _apply_conservative(arena, spec, slots, keys, counts)
                    else:
                        _apply_fused(arena, spec, slots, keys, counts)
                    _commit_and_ack(seq)
                elif kind == "apply":
                    _, slots, keys, counts, seq = message
                    if _faults._PLAN is not None:
                        _faults.crash_point(
                            _faults.SITE_CRASH_BEFORE_APPLY, spec.shard_index
                        )
                    if spec.conservative:
                        _apply_conservative(arena, spec, slots, keys, counts)
                    else:
                        _apply_fused(arena, spec, slots, keys, counts)
                    _commit_and_ack(seq)
                elif kind == "staging":
                    _, name, segments, capacity = message
                    staging_shm = shared_memory.SharedMemory(name=name)
                    staged = staging_views(staging_shm.buf, segments, capacity)
                elif kind == "stop":
                    return
                else:  # pragma: no cover - defensive
                    conn.send(("error", f"unknown message kind {kind!r}"))
            except Exception:  # noqa: BLE001 - ship the traceback to the parent
                conn.send(("error", traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        arena = None  # release the buffer views before unmapping
        seq_view = None
        staged = None
        shm.close()
        if staging_shm is not None:
            staging_shm.close()
        conn.close()


class SharedMemoryExecutor:
    """Persistent per-shard workers over shared-memory counter arenas.

    See the module docstring for the design.  Lifecycle: :meth:`start`
    allocates one arena per non-empty shard, re-binds the coordinator
    sketches onto arena views and forks the workers; :meth:`apply_async`
    ships routed columns with at most ``max_pending`` batches in flight per
    shard; :meth:`sync` drains in-flight batches (tables need no pulling);
    :meth:`close` detaches the sketches onto private copies and unlinks the
    arenas — after which :meth:`start` may be called again (restart).

    Args:
        mp_context: multiprocessing start method (``None`` = platform
            default; ``"fork"`` is fastest where available).
        max_pending: batches allowed in flight per shard before dispatch
            blocks on the oldest acknowledgement (≥ 1; 2 = double buffering).
        ack_deadline: seconds to wait for a live worker's acknowledgement
            before declaring the shard failed (``None`` waits indefinitely;
            the supervisor sets this from its
            :class:`~repro.distributed.recovery.RecoveryPolicy`).
        teardown_deadline: seconds granted to a worker to exit on its own
            during :meth:`close`/restart before terminate-then-kill
            escalation.
    """

    def __init__(
        self,
        mp_context: Optional[str] = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        ack_deadline: Optional[float] = None,
        teardown_deadline: float = DEFAULT_TEARDOWN_DEADLINE,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._ctx = multiprocessing.get_context(mp_context)
        self._max_pending = max_pending
        self._workers: List[Optional[multiprocessing.process.BaseProcess]] = []
        self._pipes: List = []
        self._shms: List[Optional[shared_memory.SharedMemory]] = []
        self._stagings: List[Optional[_StagingRing]] = []
        self._attached: List[List[CountMinSketch]] = []
        self._slot_of: List[Dict[int, int]] = []
        self._outstanding: List[int] = []
        self._dispatched: List[int] = []
        self._specs: List[Optional[ArenaSpec]] = []
        self._seq_views: List[Optional[np.ndarray]] = []
        self._inflight: List[Deque[Optional[int]]] = []
        self._acked: List[Optional[int]] = []
        self._dead: Set[int] = set()
        self._started = False
        self.ack_deadline = ack_deadline
        self.teardown_deadline = teardown_deadline
        # Instrumentation (read by the throughput benchmark's breakdown).
        self.dispatch_seconds = 0.0
        self.stall_seconds = 0.0
        self.batches = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, shards: Sequence[SketchShard]) -> None:
        if self._started:
            return
        try:
            for shard in shards:
                self._start_shard(shard)
        except BaseException:
            # A mid-loop failure (tiny /dev/shm, fork limit) must not leak
            # the shards already set up: reap their workers, detach their
            # sketches and unlink their blocks before propagating.
            self.close()
            raise
        self._started = True

    def _start_shard(self, shard: SketchShard) -> None:
        """Set up one shard: arena, sketch views, worker, staging ring.

        Either the shard's complete state is appended to the executor's
        parallel lists (where :meth:`close` knows how to reap it) or this
        method's own partial allocations are rolled back before the
        exception propagates — so a failure leaves nothing half-owned.
        """
        partitions = shard.partition_ids
        if not partitions:
            # A plan with more shards than partitions leaves some shards
            # empty; no work can ever route there, so no worker is needed.
            self._workers.append(None)
            self._pipes.append(None)
            self._shms.append(None)
            self._stagings.append(None)
            self._attached.append([])
            self._slot_of.append({})
            self._outstanding.append(0)
            self._dispatched.append(0)
            self._specs.append(None)
            self._seq_views.append(None)
            self._inflight.append(deque())
            self._acked.append(None)
            return
        sketches = [shard.sketch_for(partition) for partition in partitions]
        depth = sketches[0].depth
        if any(sketch.depth != depth for sketch in sketches):
            raise ValueError(
                f"shard {shard.index} mixes sketch depths; the shared arena "
                "requires one depth per shard"
            )
        widths = np.array([sketch.width for sketch in sketches], dtype=np.uint64)
        offsets = np.zeros(len(sketches), dtype=np.int64)
        np.cumsum(widths[:-1].astype(np.int64), out=offsets[1:])
        total_width = int(widths.sum())
        hash_a = np.empty((depth, len(sketches)), dtype=np.uint64)
        hash_b = np.empty((depth, len(sketches)), dtype=np.uint64)
        for slot, sketch in enumerate(sketches):
            a, b = zip(*sketch.hash_coefficients())
            hash_a[:, slot] = a
            hash_b[:, slot] = b

        # The arena block carries an 8-byte applied-sequence slot after the
        # counter tables — the worker's crash-consistent replay watermark.
        seq_slot_offset = depth * total_width * 8
        shm = shared_memory.SharedMemory(create=True, size=seq_slot_offset + 8)
        attached: List[CountMinSketch] = []
        staging = None
        process = None
        parent_conn = None
        seq_view = None
        try:
            arena = np.ndarray((depth, total_width), dtype=np.float64, buffer=shm.buf)
            for slot, sketch in enumerate(sketches):
                lo = int(offsets[slot])
                sketch.attach_table(arena[:, lo : lo + int(widths[slot])])
                attached.append(sketch)
            del arena  # sketches hold the only remaining views
            seq_view = np.ndarray(
                (1,), dtype=np.uint64, buffer=shm.buf, offset=seq_slot_offset
            )

            spec = ArenaSpec(
                shm_name=shm.name,
                shard_index=shard.index,
                depth=depth,
                total_width=total_width,
                offsets=offsets,
                widths=widths,
                hash_a=hash_a,
                hash_b=hash_b,
                conservative=any(sketch.conservative for sketch in sketches),
                seq_slot_offset=seq_slot_offset,
            )
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_arena_worker,
                args=(child_conn, spec, _faults.current_plan()),
                daemon=True,
                name=f"sketch-arena-{shard.index}",
            )
            process.start()
            child_conn.close()
            # Allocate the staging ring up front (not on first dispatch):
            # steady-state ingest pays no one-time allocation, and the
            # worker learns the geometry before any batch arrives.
            staging = _StagingRing(
                segments=self._max_pending, capacity=MIN_STAGING_CAPACITY
            )
            send_to_worker(
                process,
                parent_conn,
                shard.index,
                ("staging", staging.shm.name, staging.segments, staging.capacity),
                self._LOST_NOTE,
            )
        except BaseException:
            for sketch in attached:
                sketch.detach_table()
            if staging is not None:
                staging.close()
            if process is not None:
                reap_workers([parent_conn], [process])
            elif parent_conn is not None:
                parent_conn.close()
            seq_view = None
            _release_shm(shm)
            raise
        self._workers.append(process)
        self._pipes.append(parent_conn)
        self._shms.append(shm)
        self._stagings.append(staging)
        self._attached.append(sketches)
        self._slot_of.append(
            {partition: slot for slot, partition in enumerate(partitions)}
        )
        self._outstanding.append(0)
        self._dispatched.append(0)
        self._specs.append(spec)
        self._seq_views.append(seq_view)
        self._inflight.append(deque())
        self._acked.append(0)

    def close(self) -> None:
        """Tear down workers and arenas; idempotent and safe after a crash.

        Workers drain their queued batches before honouring ``stop`` (pipe
        order), and the coordinator sketches are detached — counters copied
        back into private arrays — *before* the shared blocks are unlinked,
        so engine state survives teardown bit-for-bit and a later
        :meth:`start` (or snapshot) picks up exactly where ingestion stopped.
        """
        reap_workers(self._pipes, self._workers, deadline=self.teardown_deadline)
        for sketches in self._attached:
            for sketch in sketches:
                sketch.detach_table()
        self._seq_views = []  # release seq views before unlinking the arenas
        for shm in self._shms:
            if shm is not None:
                _release_shm(shm)
        for staging in self._stagings:
            if staging is not None:
                staging.close()
        self._workers = []
        self._pipes = []
        self._shms = []
        self._stagings = []
        self._attached = []
        self._slot_of = []
        self._outstanding = []
        self._dispatched = []
        self._specs = []
        self._inflight = []
        self._acked = []
        self._dead = set()
        self._started = False

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def apply_async(
        self,
        shards: Sequence[SketchShard],
        work: Mapping[int, Sequence[PartitionGroup]],
        seq: Optional[int] = None,
        credit: bool = True,
    ) -> None:
        """Credit + dispatch one batch without waiting for workers to apply it.

        At most ``max_pending`` batches stay in flight per shard; beyond
        that, dispatch blocks on the oldest acknowledgement (backpressure).
        State is consistent again once :meth:`sync` has drained the pipeline.
        A supervised coordinator passes its journal sequence number as
        ``seq`` (committed by the worker after apply) and ``credit=False``
        so it can credit scalar totals itself, exactly once, after the send.
        """
        if not self._started:
            self.start(shards)
        begin = time.perf_counter()
        stalled = 0.0
        for shard_index in sorted(work):
            groups = work[shard_index]
            while self._outstanding[shard_index] >= self._max_pending:
                stall_begin = time.perf_counter()
                self._await_ack(shard_index)
                stalled += time.perf_counter() - stall_begin
            self._dispatch(shard_index, groups, seq)
            # Credit only after a successful send: a dispatch that raises must
            # not leave totals accounting for counters that never shipped.
            if credit:
                shards[shard_index].credit_groups(groups)
            self._outstanding[shard_index] += 1
        dispatched = time.perf_counter() - begin - stalled
        self.batches += 1
        self.stall_seconds += stalled
        self.dispatch_seconds += dispatched
        if _obs._ENABLED:
            _SHM_BATCHES.inc()
            _SHM_DISPATCH_SECONDS.inc(dispatched)
            _SHM_STALL_SECONDS.inc(stalled)
            get_recorder().record(
                "ingest", "shm_dispatch", dispatched, stalled=stalled
            )

    def apply(
        self,
        shards: Sequence[SketchShard],
        work: Mapping[int, Sequence[PartitionGroup]],
    ) -> None:
        """Synchronous apply: dispatch, then drain the involved shards."""
        self.apply_async(shards, work)
        for shard_index in sorted(work):
            self._drain(shard_index)

    def sync(self, shards: Sequence[SketchShard]) -> None:
        """Drain in-flight batches — a flush, not a state transfer.

        Counter tables are shared views and scalar bookkeeping is credited on
        dispatch, so once every outstanding batch is acknowledged the
        coordinator-resident shards are authoritative with no data movement.
        """
        if not self._started:
            return
        begin = time.perf_counter()
        # Drain every healthy shard even when one fails, so a supervised
        # retry after recovery only has the failed shard left outstanding.
        failure: Optional[ShardExecutionError] = None
        for shard_index in range(len(self._outstanding)):
            if shard_index in self._dead:
                continue
            try:
                self._drain(shard_index)
            except ShardExecutionError as error:
                if failure is None:
                    failure = error
        drained = time.perf_counter() - begin
        self.stall_seconds += drained
        if _obs._ENABLED:
            _SHM_STALL_SECONDS.inc(drained)
            get_recorder().record("ingest", "shm_drain", drained)
        if failure is not None:
            raise failure

    def _dispatch(
        self,
        shard_index: int,
        groups: Sequence[PartitionGroup],
        seq: Optional[int] = None,
    ) -> None:
        """Ship one shard's routed columns: slot ids, uint64 keys, counts.

        The columns are written group by group into the next staging-ring
        segment and announced with a tiny ``(segment, count)`` descriptor —
        no bulk data crosses the pipe.  A batch larger than the segment
        capacity (possible only with extreme batch sizes) falls back to
        inline pipe transport.
        """
        slot_of = self._slot_of[shard_index]
        total = sum(len(group) for group in groups)
        staging = self._stagings[shard_index]
        if staging is not None and total <= staging.capacity:
            segment = self._dispatched[shard_index] % staging.segments
            seg_slots = staging.slots[segment]
            seg_keys = staging.keys[segment]
            seg_counts = staging.counts[segment]
            position = 0
            for group in groups:
                end = position + len(group)
                seg_slots[position:end] = slot_of[group.partition]
                seg_keys[position:end] = group.keys
                seg_counts[position:end] = group.counts
                position = end
            self._send(shard_index, ("apply_shm", segment, total, seq))
        else:  # pragma: no cover - requires batches beyond staging capacity
            slots = np.concatenate(
                [
                    np.full(len(group), slot_of[group.partition], dtype=np.int64)
                    for group in groups
                ]
            )
            keys = np.concatenate([group.keys for group in groups])
            counts = np.concatenate([group.counts for group in groups])
            self._send(shard_index, ("apply", slots, keys, counts, seq))
        self._dispatched[shard_index] += 1
        self._inflight[shard_index].append(seq)

    # ------------------------------------------------------------------ #
    # Worker I/O (with death detection)
    # ------------------------------------------------------------------ #
    #: Death note: arena counters for acknowledged batches survive a crash.
    _LOST_NOTE = (
        "in-flight batches are lost; counter updates already applied remain "
        "in the shared arena"
    )

    def _send(self, shard_index: int, message: tuple) -> None:
        process = self._workers[shard_index]
        if process is None:
            raise ShardExecutionError(shard_index, "no worker (empty shard)")
        send_to_worker(
            process, self._pipes[shard_index], shard_index, message, self._LOST_NOTE
        )

    def _await_ack(self, shard_index: int) -> None:
        await_worker_reply(
            self._workers[shard_index],
            self._pipes[shard_index],
            shard_index,
            "ok",
            self._LOST_NOTE,
            deadline=self.ack_deadline,
        )
        self._outstanding[shard_index] -= 1
        # Acks arrive in dispatch order (one pipe, FIFO worker loop), so the
        # oldest in-flight sequence number is the one being acknowledged.
        inflight = self._inflight[shard_index]
        if inflight:
            seq = inflight.popleft()
            if seq is not None:
                self._acked[shard_index] = seq

    def _drain(self, shard_index: int) -> None:
        while self._outstanding[shard_index] > 0:
            self._await_ack(shard_index)

    # ------------------------------------------------------------------ #
    # Supervised recovery (driven by ShardSupervisor)
    # ------------------------------------------------------------------ #
    def acked_seq(self, shard_index: int) -> Optional[int]:
        """Highest journal sequence acknowledged by this shard's worker."""
        return self._acked[shard_index]

    def applied_seq(self, shard_index: int) -> Optional[int]:
        """Highest journal sequence *committed to the arena* by the worker.

        Read from the arena's applied-sequence slot — valid even when the
        worker just died, which is exactly when the supervisor needs it.
        """
        seq_view = self._seq_views[shard_index]
        return None if seq_view is None else int(seq_view[0])

    def restart_shard(
        self, shards: Sequence[SketchShard], shard_index: int
    ) -> Optional[int]:
        """Respawn one shard's worker onto the surviving arena.

        The arena (counters + applied-sequence slot) outlives the worker, so
        recovery is: reap the corpse, fork a fresh worker against the same
        :class:`ArenaSpec`, re-announce the staging ring, and report the
        arena's applied-sequence watermark — the supervisor replays only
        journal entries after it.
        """
        if not self._started:
            raise ShardExecutionError(shard_index, "executor not started")
        spec = self._specs[shard_index]
        if spec is None:
            raise ShardExecutionError(shard_index, "no worker (empty shard)")
        reap_workers(
            [self._pipes[shard_index]],
            [self._workers[shard_index]],
            deadline=self.teardown_deadline,
        )
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_arena_worker,
            args=(child_conn, spec, _faults.restart_plan()),
            daemon=True,
            name=f"sketch-arena-{shard_index}",
        )
        process.start()
        child_conn.close()
        self._workers[shard_index] = process
        self._pipes[shard_index] = parent_conn
        staging = self._stagings[shard_index]
        if staging is not None:
            send_to_worker(
                process,
                parent_conn,
                shard_index,
                ("staging", staging.shm.name, staging.segments, staging.capacity),
                self._LOST_NOTE,
            )
        # Everything that was in flight either committed (visible through the
        # seq slot) or died with the worker; nothing is awaiting an ack now.
        self._outstanding[shard_index] = 0
        self._inflight[shard_index] = deque()
        applied = self.applied_seq(shard_index)
        self._acked[shard_index] = applied
        return applied

    def replay(
        self,
        shards: Sequence[SketchShard],
        shard_index: int,
        groups: Sequence[PartitionGroup],
        seq: Optional[int] = None,
    ) -> None:
        """Re-apply one journaled batch synchronously (no double crediting)."""
        self._dispatch(shard_index, groups, seq)
        self._outstanding[shard_index] += 1
        self._drain(shard_index)

    def mark_failed(self, shard_index: int) -> None:
        """Abandon a shard (degraded serving): reap its worker for good.

        The arena, attached sketches, staging ring and seq view are kept —
        acknowledged counters keep serving queries through the coordinator's
        arena views; only ingest to this shard stops (dropped upstream).
        """
        reap_workers(
            [self._pipes[shard_index]],
            [self._workers[shard_index]],
            deadline=self.teardown_deadline,
        )
        self._workers[shard_index] = None
        self._pipes[shard_index] = None
        self._outstanding[shard_index] = 0
        self._inflight[shard_index] = deque()
        self._dead.add(shard_index)

    # ------------------------------------------------------------------ #
    # Introspection (tests, diagnostics)
    # ------------------------------------------------------------------ #
    @property
    def worker_processes(self) -> Sequence[Optional[multiprocessing.process.BaseProcess]]:
        """The per-shard worker processes (``None`` for empty shards)."""
        return tuple(self._workers)

    @property
    def max_pending(self) -> int:
        """Batches allowed in flight per shard before dispatch blocks."""
        return self._max_pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "started" if self._started else "idle"
        return (
            f"SharedMemoryExecutor(workers={sum(w is not None for w in self._workers)}, "
            f"max_pending={self._max_pending}, {state})"
        )
