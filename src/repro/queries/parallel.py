"""The parallel read plane: a shared-memory reader pool over frozen plan arenas.

PR 4 freed the *write* path from the GIL by giving each shard worker a
shared-memory counter arena; this module does the same for the *read* path.
A :class:`CompiledQueryPlan`'s state is immutable between generations — the
``(depth, Σwidths)`` counter arena, the stacked hash-coefficient matrix, the
per-slot offsets and the router lookup table — so it can be placed in one
POSIX shared-memory block (:class:`PlanArena`) that N reader processes map
**zero-copy**.  A :class:`ReaderPool` spawns those workers and feeds them
coalesced query batches through per-worker staging rings (two int64 input
columns, one float64 result column, double-buffered), so a batch costs two
small pipe messages and no pickling; the hash → route → gather → min work
runs entirely outside the parent's GIL.

Freshness reuses the plan's generation tags: :meth:`ReaderPool.swap`
publishes a new arena and sends each worker a ``remap`` message.  Pipes are
FIFO, so batches already in a worker's queue finish on the arena they were
dispatched against, the worker then remaps and acknowledges, and the parent
unlinks the old block only after every worker has let go — live ingest never
pauses reads.

Each worker also keeps a *direct-mapped memo* of recent point estimates
(vectorized open-addressing over ``2**cache_bits`` slots, keyed by the
canonical uint64 edge key — the same identity
:class:`~repro.queries.plan.HotEdgeCache` memoizes under).  On the
Zipf-skewed traffic the serving tier sees, the memo answers most keys with
three array kernels instead of a full gather; it is invalidated wholesale on
every remap, so pool answers stay bit-identical to the plan oracle at the
same generation.

Reader count and scratch sizing are configuration, not environment
variables: :class:`PlanConfig` rides
``EngineBuilder.plan(PlanConfig(...))`` next to the existing
``.recovery(...)`` pattern.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np

from repro import faults as _faults
from repro.distributed.shared_memory import release_shm
from repro.graph.edge import EdgeKey
from repro.observability import metrics as _obs
from repro.observability.instruments import (
    READER_DEAD,
    READER_RESTART_EVENTS,
    READER_RESTART_SECONDS,
)
from repro.queries.kernels import NumpyScratchKernel, scratch_capacity
from repro.queries.plan import CompiledQueryPlan, HotEdgeCache
from repro.sketches.hashing import pair_keys_to_uint64

_T = TypeVar("_T")

_U64 = np.uint64
_GOLDEN_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


class _PairScratch:
    """Scratch-staged :func:`pair_keys_to_uint64` for the worker hot loop.

    Identical uint64 op sequence as the oracle (splitmix64 per endpoint,
    then the tuple rolling mix), staged through three preallocated buffers —
    a warm worker batch canonicalizes with zero heap allocation.
    """

    def __init__(self, capacity: int) -> None:
        self._buffers = [np.empty(capacity, dtype=np.uint64) for _ in range(3)]
        self._capacity = capacity

    def _splitmix(self, value: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        np.add(value, _GOLDEN_GAMMA, out=value)
        np.right_shift(value, _U64(30), out=tmp)
        np.bitwise_xor(value, tmp, out=value)
        np.multiply(value, _MIX1, out=value)
        np.right_shift(value, _U64(27), out=tmp)
        np.bitwise_xor(value, tmp, out=value)
        np.multiply(value, _MIX2, out=value)
        np.right_shift(value, _U64(31), out=tmp)
        np.bitwise_xor(value, tmp, out=value)
        return value

    def pair_keys(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Canonical uint64 edge keys; the result is a scratch view."""
        n = len(sources)
        if n > self._capacity:
            self._buffers = [np.empty(n, dtype=np.uint64) for _ in range(3)]
            self._capacity = n
        hs, ht, tmp = (buffer[:n] for buffer in self._buffers)
        np.copyto(hs, sources, casting="unsafe")  # two's-complement wrap,
        np.copyto(ht, targets, casting="unsafe")  # matching astype(uint64)
        self._splitmix(hs, tmp)
        self._splitmix(ht, tmp)
        np.bitwise_xor(hs, _GOLDEN_GAMMA, out=hs)
        self._splitmix(hs, tmp)  # acc = splitmix(GG ^ h(source))
        np.bitwise_xor(hs, ht, out=hs)
        return self._splitmix(hs, tmp)  # splitmix(acc ^ h(target))

#: Partition sentinel; mirrors :data:`repro.core.router.OUTLIER_PARTITION`.
OUTLIER_PARTITION = -1

#: Below this many keys a batch is not worth splitting across workers.
MIN_SPLIT_KEYS = 128

#: Staging-ring capacity floor (keys per segment).
MIN_BATCH_CAPACITY = 1024


@dataclass(frozen=True)
class PlanConfig:
    """Typed read-plane configuration (``EngineBuilder.plan(...)``).

    Attributes:
        readers: reader-pool size; ``0`` answers queries in-process.
        scratch_mb: per-worker scratch budget for the
            :class:`~repro.queries.kernels.NumpyScratchKernel`, in MiB.
        cache_bits: per-worker direct-mapped memo size (``2**cache_bits``
            slots); ``0`` disables the memo.
        max_pending: staging segments (in-flight batches) per worker.
        batch_capacity: staging-ring capacity per segment, in keys.
        supervised: whether the serving tier wraps the pool in a
            :class:`ReaderSupervisor` that respawns dead workers (the pool
            itself never respawns; unsupervised pools degrade permanently).
        max_restarts: respawns per worker slot before the supervisor gives
            up on it (the pool keeps serving on the survivors).
        restart_backoff_seconds: delay before the second respawn of the
            same worker slot (the first respawn is immediate); grows by
            ``restart_backoff_multiplier`` per further respawn.
        restart_backoff_multiplier: exponential backoff factor.
    """

    readers: int = 0
    scratch_mb: float = 4.0
    cache_bits: int = 16
    max_pending: int = 2
    batch_capacity: int = 8192
    supervised: bool = True
    max_restarts: int = 5
    restart_backoff_seconds: float = 0.05
    restart_backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.readers < 0:
            raise ValueError(f"readers must be >= 0, got {self.readers}")
        if self.scratch_mb <= 0:
            raise ValueError(f"scratch_mb must be > 0, got {self.scratch_mb}")
        if not 0 <= self.cache_bits <= 28:
            raise ValueError(f"cache_bits must be in [0, 28], got {self.cache_bits}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.batch_capacity < MIN_BATCH_CAPACITY:
            raise ValueError(
                f"batch_capacity must be >= {MIN_BATCH_CAPACITY}, "
                f"got {self.batch_capacity}"
            )
        if self.max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {self.max_restarts}")
        if self.restart_backoff_seconds < 0:
            raise ValueError(
                "restart_backoff_seconds must be >= 0, "
                f"got {self.restart_backoff_seconds}"
            )
        if self.restart_backoff_multiplier < 1:
            raise ValueError(
                "restart_backoff_multiplier must be >= 1, "
                f"got {self.restart_backoff_multiplier}"
            )


class ReaderPoolError(RuntimeError):
    """Base error for reader-pool lifecycle and dispatch failures."""


class ReaderWorkerError(ReaderPoolError):
    """A reader worker died or reported a failure.

    Attributes:
        worker_index: which reader failed.
    """

    def __init__(self, worker_index: int, message: str) -> None:
        super().__init__(f"reader worker {worker_index}: {message}")
        self.worker_index = worker_index


@dataclass(frozen=True)
class PlanArenaSpec:
    """Worker-side geometry of one shared plan arena (shipped over the pipe).

    All arrays live back to back in the named block, in the order the byte
    offsets imply: flat counter arena (float64), ``hash_a``/``hash_b``
    (uint64, ``depth × num_slots``), ``widths`` (uint64), ``offsets``
    (int64), then the router's sorted ``(vertex, partition)`` int64 columns.
    """

    shm_name: str
    generation: int
    depth: int
    num_slots: int
    total_width: int
    router_size: int
    routed: bool  # False → single-slot plan, everything maps to slot 0


class PlanArena:
    """One generation of a compiled plan, serialized into shared memory.

    The parent owns the block (creates and eventually unlinks it); workers
    attach by name and build read-only numpy views.  Arenas are immutable —
    a new generation gets a fresh arena and a ``remap`` broadcast.
    """

    def __init__(self, plan: CompiledQueryPlan) -> None:
        arena, hash_a, hash_b, widths, offsets = plan.export_arrays()
        router_cols = plan.export_router_arrays()
        if router_cols is None:
            if plan.routed:
                raise ReaderPoolError(
                    "reader pool requires integer vertex labels "
                    "(the router has no vectorized lookup table)"
                )
            router_keys = np.zeros(0, dtype=np.int64)
            router_parts = np.zeros(0, dtype=np.int64)
        else:
            router_keys, router_parts = router_cols
        depth, total_width = arena.shape
        num_slots = len(widths)
        sizes = [
            arena.size * 8,
            hash_a.size * 8,
            hash_b.size * 8,
            num_slots * 8,
            num_slots * 8,
            len(router_keys) * 8,
            len(router_parts) * 8,
        ]
        self.shm = shared_memory.SharedMemory(create=True, size=max(1, sum(sizes)))
        views = _arena_views(
            self.shm.buf, depth, total_width, num_slots, len(router_keys)
        )
        for view, source in zip(
            views, (arena.reshape(-1), hash_a, hash_b, widths, offsets,
                    router_keys, router_parts)
        ):
            view[...] = source.reshape(view.shape)
        self.spec = PlanArenaSpec(
            shm_name=self.shm.name,
            generation=plan.generation,
            depth=depth,
            num_slots=num_slots,
            total_width=total_width,
            router_size=len(router_keys),
            routed=plan.routed,
        )

    @property
    def generation(self) -> int:
        return self.spec.generation

    def close(self) -> None:
        release_shm(self.shm)


def _arena_views(
    buf, depth: int, total_width: int, num_slots: int, router_size: int
) -> Tuple[np.ndarray, ...]:
    """Typed views over a plan-arena block, parent and worker alike."""
    offset = 0

    def region(shape, dtype) -> np.ndarray:
        nonlocal offset
        view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        offset += view.nbytes
        return view

    flat = region((depth * total_width,), np.float64)
    hash_a = region((depth, num_slots), np.uint64)
    hash_b = region((depth, num_slots), np.uint64)
    widths = region((num_slots,), np.uint64)
    offsets = region((num_slots,), np.int64)
    router_keys = region((router_size,), np.int64)
    router_parts = region((router_size,), np.int64)
    return flat, hash_a, hash_b, widths, offsets, router_keys, router_parts


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #


class _WorkerState:
    """Everything a reader worker derives from one mapped arena generation."""

    def __init__(self, spec: PlanArenaSpec, capacity: int) -> None:
        self.spec = spec
        self.shm = shared_memory.SharedMemory(name=spec.shm_name)
        (
            self.flat,
            self.hash_a,
            self.hash_b,
            self.widths,
            self.offsets,
            self.router_keys,
            self.router_parts,
        ) = _arena_views(
            self.shm.buf, spec.depth, spec.total_width, spec.num_slots,
            spec.router_size,
        )
        self.row_base = (
            np.arange(spec.depth, dtype=np.int64) * spec.total_width
        )[:, None]
        self.kernel = NumpyScratchKernel(spec.depth, capacity=capacity)

    def route_slots(self, sources: np.ndarray) -> Optional[np.ndarray]:
        """Arena slot per source; ``None`` for single-slot plans."""
        if not self.spec.routed:
            return None
        if self.spec.router_size == 0:
            return np.full(len(sources), self.spec.num_slots - 1, dtype=np.int64)
        positions = np.searchsorted(self.router_keys, sources)
        clipped = np.minimum(positions, self.spec.router_size - 1)
        found = self.router_keys[clipped] == sources
        partitions = np.where(found, self.router_parts[clipped], OUTLIER_PARTITION)
        return np.where(
            partitions == OUTLIER_PARTITION, self.spec.num_slots - 1, partitions
        ).astype(np.int64)

    def estimate(self, keys: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Hash/route/gather/min for one (sub-)batch; may return scratch views."""
        slots = self.route_slots(sources)
        kernel = self.kernel
        if slots is None:
            cols = kernel.hash_columns(
                self.hash_a, self.hash_b, self.widths, keys
            )
        else:
            coeff_a, coeff_b = kernel.take_columns(self.hash_a, self.hash_b, slots)
            cols = kernel.hash_columns(coeff_a, coeff_b, self.widths[slots], keys)
            cols += self.offsets[slots]
        cols += self.row_base
        return kernel.gather_min(self.flat, cols)

    def close(self) -> None:
        self.flat = self.hash_a = self.hash_b = None  # type: ignore[assignment]
        self.widths = self.offsets = None  # type: ignore[assignment]
        self.router_keys = self.router_parts = None  # type: ignore[assignment]
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass


def _reader_worker(
    conn,
    worker_index: int,
    spec: PlanArenaSpec,
    staging_name: str,
    segments: int,
    capacity: int,
    scratch_keys: int,
    cache_bits: int,
    fault_plan=None,
) -> None:
    """Message loop of one reader process.

    Messages: ``("batch", seq, segment, count)`` → estimates written into
    the staging result column, acked with ``("ok", seq, segment, count)``;
    ``("remap", spec)`` → attach the new arena generation (acked with
    ``("remapped", generation)`` after the old mapping is released);
    ``("stop",)`` → clean exit.  Any exception is reported as
    ``("error", message, traceback)`` and ends the process.

    ``fault_plan`` is the parent's installed :class:`~repro.faults.FaultPlan`
    (respawned workers receive :func:`~repro.faults.restart_plan` instead),
    arming the ``reader_*`` injection sites with ``shard=worker_index``.
    The unconditional install matters under the fork start method: a
    respawned worker would otherwise *inherit* the parent's full plan and
    re-fire the one-shot spec that killed its predecessor, forever.
    """
    _faults.install(fault_plan)
    staging_shm = None
    state = None
    try:
        state = _WorkerState(spec, scratch_keys)
        staging_shm = shared_memory.SharedMemory(name=staging_name)
        stage_src, stage_tgt, stage_out = _staging_views(
            staging_shm.buf, segments, capacity
        )
        pair_scratch = _PairScratch(capacity)
        probe_index = np.empty(capacity, dtype=np.int64)
        probe_keys = np.empty(capacity, dtype=np.uint64)
        probe_hit = np.empty(capacity, dtype=bool)
        probe_tmp = np.empty(capacity, dtype=bool)
        if cache_bits > 0:
            mask = np.uint64((1 << cache_bits) - 1)
            memo_keys = np.zeros(1 << cache_bits, dtype=np.uint64)
            memo_vals = np.zeros(1 << cache_bits, dtype=np.float64)
            memo_live = np.zeros(1 << cache_bits, dtype=bool)
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "batch":
                _tag, seq, segment, count = message
                sources = stage_src[segment, :count]
                targets = stage_tgt[segment, :count]
                out = stage_out[segment, :count]
                keys = pair_scratch.pair_keys(sources, targets)
                if cache_bits > 0:
                    index = probe_index[:count]
                    np.bitwise_and(keys, mask, out=index, casting="unsafe")
                    hit = probe_hit[:count]
                    slot_keys = np.take(memo_keys, index, out=probe_keys[:count])
                    np.equal(slot_keys, keys, out=hit)
                    live = np.take(memo_live, index, out=probe_tmp[:count])
                    np.logical_and(hit, live, out=hit)
                    if hit.all():
                        np.take(memo_vals, index, out=out)
                    else:
                        miss = np.logical_not(hit, out=probe_tmp[:count])
                        gathered = state.estimate(keys[miss], sources[miss])
                        out[hit] = memo_vals[index[hit]]
                        out[miss] = gathered
                        store = index[miss]
                        memo_keys[store] = keys[miss]
                        memo_vals[store] = gathered
                        memo_live[store] = True
                else:
                    out[...] = state.estimate(keys, sources)
                if _faults._PLAN is not None:
                    _faults.maybe_stall(_faults.SITE_READER_STALL_RING, worker_index)
                    _faults.crash_point(_faults.SITE_READER_CRASH_BATCH, worker_index)
                conn.send(("ok", seq, segment, count))
            elif tag == "remap":
                new_state = _WorkerState(message[1], scratch_keys)
                state.close()
                state = new_state
                if cache_bits > 0:
                    memo_live[:] = False
                if _faults._PLAN is not None:
                    _faults.crash_point(_faults.SITE_READER_CRASH_REMAP, worker_index)
                conn.send(("remapped", new_state.spec.generation))
            elif tag == "stop":
                break
            else:  # pragma: no cover - protocol guard
                raise ValueError(f"unknown reader message {tag!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        pass
    except BaseException as error:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", str(error), traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover - defensive
            pass
    finally:
        if state is not None:
            state.close()
        if staging_shm is not None:
            stage_src = stage_tgt = stage_out = None
            try:
                staging_shm.close()
            except BufferError:  # pragma: no cover - defensive
                pass
        conn.close()


def _staging_views(buf, segments: int, capacity: int):
    """Per-worker staging columns: int64 sources/targets in, float64 out."""
    src_bytes = segments * capacity * 8
    sources = np.ndarray((segments, capacity), dtype=np.int64, buffer=buf)
    targets = np.ndarray(
        (segments, capacity), dtype=np.int64, buffer=buf, offset=src_bytes
    )
    out = np.ndarray(
        (segments, capacity), dtype=np.float64, buffer=buf, offset=2 * src_bytes
    )
    return sources, targets, out


# --------------------------------------------------------------------------- #
# Parent-side pool
# --------------------------------------------------------------------------- #


@dataclass
class _Reader:
    """Parent-side handle of one reader worker.

    ``pending`` tracks dispatched-but-unacked batch tokens in FIFO order;
    ``done`` holds copied-out results for tokens that were acked before
    their caller collected them (acks free staging segments immediately, so
    results must be copied out at ack time, not collect time).
    """

    process: mp.process.BaseProcess
    conn: Connection
    staging: shared_memory.SharedMemory
    stage_src: np.ndarray
    stage_tgt: np.ndarray
    stage_out: np.ndarray
    free_segments: List[int]
    pending: Deque[Tuple[int, int, int]] = field(default_factory=deque)
    done: Dict[Tuple[int, int, int], np.ndarray] = field(default_factory=dict)


class ReaderPool:
    """N reader processes answering plan gathers over one shared arena.

    Construct from a compiled plan (:meth:`from_plan`) or directly from any
    :class:`~repro.queries.plan.PlanServingMixin` estimator
    (:meth:`from_estimator`), then call :meth:`query_edges` /
    :meth:`query_columns` for synchronous answers, :meth:`map_batches` for a
    pipelined stream, or :meth:`query_edges_cached` for the serving tier's
    cache-merged path.  :meth:`swap` hot-swaps all workers onto a new plan
    generation; :meth:`close` tears everything down (idempotent).
    """

    def __init__(self, plan: CompiledQueryPlan, config: PlanConfig) -> None:
        if config.readers < 1:
            raise ReaderPoolError(
                f"reader pool needs readers >= 1, got {config.readers}"
            )
        self.config = config
        self._arena: Optional[PlanArena] = PlanArena(plan)
        self._readers: List[Optional[_Reader]] = []
        self._next_reader = 0
        self._sequence = 0
        self._closed = False
        self._alive: List[int] = []
        self._alive_dirty = True
        self._scratch_keys = scratch_capacity(config.scratch_mb, plan.depth)
        self._ctx = mp.get_context()
        # Serializes lifecycle mutations (respawn vs swap vs close) so a
        # supervisor healing from another thread never races a generation
        # swap into mapping a worker onto an arena being unlinked.
        self._lock = threading.Lock()
        try:
            for index in range(config.readers):
                self._readers.append(
                    self._spawn_reader(index, _faults.current_plan())
                )
        except BaseException:
            self.close()
            raise

    def _spawn_reader(self, index: int, fault_plan) -> _Reader:
        """Fresh staging ring + worker process mapped to the current arena."""
        config = self.config
        staging = shared_memory.SharedMemory(
            create=True,
            size=config.max_pending * config.batch_capacity * 24,
        )
        try:
            stage_src, stage_tgt, stage_out = _staging_views(
                staging.buf, config.max_pending, config.batch_capacity
            )
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_reader_worker,
                args=(
                    child_conn,
                    index,
                    self._arena.spec,
                    staging.name,
                    config.max_pending,
                    config.batch_capacity,
                    self._scratch_keys,
                    config.cache_bits,
                    fault_plan,
                ),
                daemon=True,
                name=f"repro-reader-{index}",
            )
            process.start()
            child_conn.close()
        except BaseException:
            release_shm(staging)
            raise
        return _Reader(
            process=process,
            conn=parent_conn,
            staging=staging,
            stage_src=stage_src,
            stage_tgt=stage_tgt,
            stage_out=stage_out,
            free_segments=list(range(config.max_pending)),
        )

    def respawn_worker(self, index: int) -> None:
        """Bring a dead worker slot back against the *current* generation.

        The respawned worker gets a fresh staging ring, maps the arena the
        pool currently serves (not the one its predecessor died on) and
        rejoins the round-robin on the next :meth:`_next`.  Restarted
        workers receive :func:`repro.faults.restart_plan` — persistent
        fault specs survive, one-shot specs do not — mirroring the shard
        executors' restart semantics.
        """
        with self._lock:
            self._require_open()
            if not 0 <= index < len(self._readers):
                raise ReaderPoolError(f"no reader slot {index}")
            if self._readers[index] is not None:
                raise ReaderPoolError(f"reader {index} is still in service")
            self._readers[index] = self._spawn_reader(index, _faults.restart_plan())
            self._alive_dirty = True

    # -- constructors ---------------------------------------------------- #
    @classmethod
    def from_plan(cls, plan: CompiledQueryPlan, config: PlanConfig) -> "ReaderPool":
        return cls(plan, config)

    @classmethod
    def from_estimator(cls, estimator, config: PlanConfig) -> "ReaderPool":
        """Pool over the estimator's current compiled plan."""
        return cls(estimator.compile_plan(), config)

    # -- introspection ---------------------------------------------------- #
    @property
    def readers(self) -> int:
        return len(self._readers)

    @property
    def alive_count(self) -> int:
        """Workers currently in the round-robin."""
        return len(self._alive_readers())

    def dead_workers(self) -> List[int]:
        """Slot indices whose worker has died and not been respawned."""
        return [i for i, reader in enumerate(self._readers) if reader is None]

    @property
    def generation(self) -> int:
        """The plan generation workers currently serve (post-swap)."""
        if self._arena is None:
            raise ReaderPoolError("reader pool is closed")
        return self._arena.generation

    @property
    def closed(self) -> bool:
        return self._closed

    # -- dispatch plumbing ------------------------------------------------ #
    def _require_open(self) -> None:
        if self._closed or self._arena is None:
            raise ReaderPoolError("reader pool is closed")

    def _reader(self, index: int) -> _Reader:
        reader = self._readers[index]
        if reader is None:
            raise ReaderWorkerError(index, "worker previously failed")
        return reader

    def _fail_reader(self, index: int, message: str) -> ReaderWorkerError:
        """Mark a reader dead and surface a typed error (pool stays closed-safe)."""
        reader = self._readers[index]
        if reader is not None:
            exitcode = reader.process.exitcode
            if exitcode is not None:
                message = f"{message} (exitcode {exitcode})"
            self._teardown_reader(index, reader)
        return ReaderWorkerError(index, message)

    def _teardown_reader(self, index: int, reader: _Reader) -> None:
        try:
            reader.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if reader.process.is_alive():  # pragma: no cover - timing dependent
            reader.process.terminate()
        reader.process.join(timeout=5)
        reader.stage_src = reader.stage_tgt = reader.stage_out = None  # type: ignore[assignment]
        release_shm(reader.staging)
        self._readers[index] = None
        self._alive_dirty = True

    def _send(self, index: int, message) -> None:
        reader = self._reader(index)
        try:
            reader.conn.send(message)
        except (BrokenPipeError, OSError) as error:
            raise self._fail_reader(index, f"died before dispatch: {error}") from None

    def _recv(self, index: int):
        reader = self._reader(index)
        try:
            return reader.conn.recv()
        except (EOFError, OSError) as error:
            raise self._fail_reader(index, f"died mid-batch: {error}") from None

    def _handle_ok(self, index: int, message) -> Tuple[int, int, int]:
        """Retire one batch ack: copy its results out, recycle the segment."""
        reader = self._reader(index)
        expected = reader.pending.popleft()
        if (message[1], message[2], message[3]) != expected:
            raise ReaderWorkerError(
                index, f"ack out of order: expected {expected}, got {message[1:]}"
            )
        _seq, segment, count = expected
        reader.done[expected] = reader.stage_out[segment, :count].copy()
        reader.free_segments.append(segment)
        return expected

    def _await_ack(self, index: int) -> Tuple[int, int, int]:
        """Block for the oldest pending batch ack of one reader."""
        while True:
            message = self._recv(index)
            tag = message[0]
            if tag == "ok":
                return self._handle_ok(index, message)
            if tag == "remapped":
                continue  # swap acknowledgement racing ahead of our wait
            if tag == "error":
                raise self._fail_reader(
                    index, f"failed: {message[1]}\n{message[2]}"
                )
            raise ReaderWorkerError(index, f"unknown reply {tag!r}")

    def _dispatch(
        self, index: int, sources: np.ndarray, targets: np.ndarray
    ) -> Tuple[int, int, int]:
        """Stage one (sub-)batch on a reader; returns the pending token."""
        count = len(sources)
        if count > self.config.batch_capacity:
            raise ReaderPoolError(
                f"batch of {count} keys exceeds staging capacity "
                f"{self.config.batch_capacity}; split it or raise "
                "PlanConfig.batch_capacity"
            )
        reader = self._reader(index)
        if not reader.free_segments:
            self._await_ack(index)
            reader = self._reader(index)
        segment = reader.free_segments.pop()
        reader.stage_src[segment, :count] = sources
        reader.stage_tgt[segment, :count] = targets
        self._sequence += 1
        token = (self._sequence, segment, count)
        reader.pending.append(token)
        self._send(index, ("batch", self._sequence, segment, count))
        return token

    def _collect(self, index: int, token: Tuple[int, int, int]) -> np.ndarray:
        """Wait until ``token`` is acked, then hand its copied results over."""
        reader = self._reader(index)
        while token not in reader.done:
            self._await_ack(index)
            reader = self._reader(index)
        return reader.done.pop(token)

    def _alive_readers(self) -> List[int]:
        if self._alive_dirty:
            self._alive = [
                i for i, reader in enumerate(self._readers) if reader is not None
            ]
            self._alive_dirty = False
        return self._alive

    def _next(self) -> int:
        """Round-robin over the surviving readers."""
        alive = self._alive_readers()
        if not alive:
            raise ReaderPoolError("no reader workers left alive")
        choice = alive[self._next_reader % len(alive)]
        self._next_reader += 1
        return choice

    # -- public query paths ------------------------------------------------ #
    def query_columns(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        *,
        split: bool = True,
    ) -> np.ndarray:
        """Synchronous estimates for parallel int64 source/target columns.

        Large batches are split into contiguous chunks across the surviving
        readers and reassembled **in submission order** — the demux contract
        the cross-worker ordering regression test pins.
        """
        self._require_open()
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        count = len(sources)
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        alive = len(self._alive_readers())
        if not split or count < MIN_SPLIT_KEYS or alive == 1:
            index = self._next()
            token = self._dispatch(index, sources, targets)
            return self._collect(index, token)
        chunks = min(alive, max(1, count // (MIN_SPLIT_KEYS // 2)))
        bounds = np.linspace(0, count, chunks + 1).astype(int)
        inflight: List[Tuple[int, Tuple[int, int, int], int, int]] = []
        for begin, end in zip(bounds[:-1], bounds[1:]):
            if begin == end:
                continue
            index = self._next()
            token = self._dispatch(index, sources[begin:end], targets[begin:end])
            inflight.append((index, token, begin, end))
        out = np.empty(count, dtype=np.float64)
        for index, token, begin, end in inflight:
            out[begin:end] = self._collect(index, token)
        return out

    def query_edges(self, edges: Sequence[EdgeKey], *, split: bool = True) -> np.ndarray:
        """Synchronous estimates for ``(source, target)`` edge keys."""
        sources = np.fromiter(
            (edge[0] for edge in edges), dtype=np.int64, count=len(edges)
        )
        targets = np.fromiter(
            (edge[1] for edge in edges), dtype=np.int64, count=len(edges)
        )
        return self.query_columns(sources, targets, split=split)

    def query_edges_cached(
        self,
        edges: Sequence[EdgeKey],
        cache: HotEdgeCache,
        generation: int,
    ) -> np.ndarray:
        """Cache-merged pool path: memo hits on the loop, misses to the pool.

        This is the serving tier's coalesced answer path when a pool is
        active: :meth:`HotEdgeCache.lookup_partial` fills the hits at their
        original batch positions, the misses are compacted, split across
        workers, and scattered back by miss index — so mixed cached/gathered
        batches keep exactly the submission order regardless of how many
        workers served them.
        """
        self._require_open()
        count = len(edges)
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        sources = np.fromiter((edge[0] for edge in edges), dtype=np.int64, count=count)
        targets = np.fromiter((edge[1] for edge in edges), dtype=np.int64, count=count)
        keys = pair_keys_to_uint64(sources, targets)
        key_list = keys.tolist()
        cached, miss = cache.lookup_partial(generation, key_list)
        if cached is None:
            values = self.query_columns(sources, targets)
            cache.store_many(generation, key_list, values.tolist())
            return values
        if not miss.any():
            return cached
        miss_indices = np.nonzero(miss)[0]
        gathered = self.query_columns(sources[miss_indices], targets[miss_indices])
        cached[miss_indices] = gathered
        cache.store_many(
            generation,
            [key_list[index] for index in miss_indices],
            gathered.tolist(),
        )
        return cached

    def map_batches(
        self, batches: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> List[np.ndarray]:
        """Pipelined answers for many column batches, in submission order.

        Keeps every reader's staging ring full (``max_pending`` deep) —
        the benchmark's steady-state dispatch pattern, mirroring how the
        serving coalescer overlaps drains with pool compute.
        """
        self._require_open()
        placements: List[Tuple[int, Tuple[int, int, int]]] = []
        results: List[Optional[np.ndarray]] = [None] * len(batches)
        for position, (sources, targets) in enumerate(batches):
            index = self._next()
            token = self._dispatch(
                index,
                np.ascontiguousarray(sources, dtype=np.int64),
                np.ascontiguousarray(targets, dtype=np.int64),
            )
            placements.append((index, token))
            # Collect eagerly once the ring is saturated so staging segments
            # recycle without ever blocking the whole fleet on one reader.
            ready = position - len(self._readers) * (self.config.max_pending - 1)
            if ready >= 0 and results[ready] is None:
                r_index, r_token = placements[ready]
                results[ready] = self._collect(r_index, r_token)
        for position, (index, token) in enumerate(placements):
            if results[position] is None:
                results[position] = self._collect(index, token)
        return results  # type: ignore[return-value]

    # -- generation hot-swap ---------------------------------------------- #
    def swap(self, plan: CompiledQueryPlan) -> None:
        """Publish a new plan generation to every worker, without pausing reads.

        In-flight batches finish on the old arena (worker pipes are FIFO);
        the old block is unlinked only after every surviving worker has
        remapped, so no reader ever loses its mapping mid-gather.

        Worker death mid-swap (broken pipe on the remap send, death before
        the remap ack) marks that worker dead and moves on: the survivors
        still remap, the old arena is **always** released — a swap can
        shrink the pool but never leak the superseded ``PlanArena`` segment
        or leave survivors serving mixed generations.  A supervisor (or an
        explicit :meth:`respawn_worker`) brings the dead slots back against
        the new generation.
        """
        self._require_open()
        with self._lock:
            if plan.generation == self._arena.generation:
                return
            new_arena = PlanArena(plan)
            old_arena = self._arena
            self._arena = new_arena
            try:
                for index, reader in enumerate(self._readers):
                    if reader is None:
                        continue
                    try:
                        self._send(index, ("remap", new_arena.spec))
                    except ReaderWorkerError:
                        continue
                for index, reader in enumerate(self._readers):
                    if reader is None:
                        continue
                    try:
                        self._await_remapped(index, new_arena.generation)
                    except ReaderWorkerError:
                        continue
            finally:
                old_arena.close()

    def _await_remapped(self, index: int, generation: int) -> None:
        while True:
            message = self._recv(index)
            tag = message[0]
            if tag == "remapped" and message[1] == generation:
                return
            if tag == "ok":
                self._handle_ok(index, message)
                continue
            if tag == "error":
                raise self._fail_reader(index, f"failed: {message[1]}\n{message[2]}")
            raise ReaderWorkerError(index, f"unknown reply {tag!r}")

    def swap_from(self, estimator) -> bool:
        """Swap onto ``estimator``'s current plan if its generation moved."""
        if estimator.ingest_generation != self.generation:
            self.swap(estimator.compile_plan())
            return True
        return False

    # -- lifecycle ---------------------------------------------------------- #
    def close(self) -> None:
        """Stop workers, release staging rings and unlink the arena (idempotent).

        Teardown must not depend on any per-worker step succeeding: a
        broken pipe, an already-reaped process or a teardown exception on
        one worker never blocks releasing the others' staging rings or
        unlinking the plan arena — close after partial worker death is
        exactly as leak-free as close of a healthy pool.
        """
        if self._closed:
            return
        self._closed = True
        with self._lock:
            for index, reader in enumerate(self._readers):
                if reader is None:
                    continue
                try:
                    reader.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
                try:
                    self._teardown_reader(index, reader)
                except Exception:  # pragma: no cover - defensive
                    self._readers[index] = None
                    release_shm(reader.staging)
            if self._arena is not None:
                try:
                    self._arena.close()
                finally:
                    self._arena = None

    def __enter__(self) -> "ReaderPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        alive = sum(reader is not None for reader in self._readers)
        return (
            f"ReaderPool(readers={alive}/{len(self._readers)}, "
            f"generation={self._arena.generation if self._arena else 'closed'})"
        )


# --------------------------------------------------------------------------- #
# Supervision
# --------------------------------------------------------------------------- #


class ReaderSupervisor:
    """Self-healing driver over a :class:`ReaderPool`.

    Mirrors :class:`~repro.distributed.recovery.ShardSupervisor` for the
    read plane: worker deaths surface as :class:`ReaderWorkerError` on the
    dispatch path, the supervisor re-issues the failed (idempotent) batch
    on the survivors immediately, and a background healer respawns the dead
    slot against the pool's current arena generation — with exponential
    backoff between respawns of the same slot and a per-slot restart budget
    (:attr:`PlanConfig.max_restarts`).  A request only ever fails once the
    whole pool is gone and the blocking heal cannot bring any slot back.

    Pass ``background=False`` for deterministic tests: nothing heals until
    :meth:`heal` is called explicitly.
    """

    def __init__(self, pool: ReaderPool, *, background: bool = True) -> None:
        self.pool = pool
        self.restarts = 0
        self.exhausted: Set[int] = set()
        self._attempts: Dict[int, int] = {}
        self._not_before: Dict[int, float] = {}
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if background:
            self._thread = threading.Thread(
                target=self._run, daemon=True, name="repro-reader-supervisor"
            )
            self._thread.start()

    # -- healing --------------------------------------------------------- #
    def _backoff(self, attempts: int) -> float:
        """Respawn-rate floor after the ``attempts``-th respawn of a slot."""
        config = self.pool.config
        return config.restart_backoff_seconds * (
            config.restart_backoff_multiplier ** max(attempts - 1, 0)
        )

    def heal(self) -> Optional[float]:
        """Respawn every dead slot whose backoff window has elapsed.

        Returns the seconds until the next slot becomes eligible (``None``
        when nothing is left to heal — all slots alive or budget-exhausted).
        """
        with self._lock:
            return self._heal_locked()

    def _heal_locked(self) -> Optional[float]:
        pool = self.pool
        if pool.closed:
            return None
        soonest: Optional[float] = None
        for index in pool.dead_workers():
            if index in self.exhausted:
                continue
            attempts = self._attempts.get(index, 0)
            if attempts >= pool.config.max_restarts:
                self.exhausted.add(index)
                if _obs._ENABLED:
                    READER_RESTART_EVENTS["exhausted"].inc()
                continue
            now = time.monotonic()
            not_before = self._not_before.get(index, 0.0)
            if now < not_before:
                wait = not_before - now
                soonest = wait if soonest is None else min(soonest, wait)
                continue
            self._attempts[index] = attempts + 1
            self._not_before[index] = now + self._backoff(attempts + 1)
            begin = time.monotonic()
            try:
                pool.respawn_worker(index)
            except ReaderPoolError:
                if pool.closed:
                    return None
                # Spawn failed: the advanced backoff window rate-limits the
                # next attempt; the budget above bounds the total.
                wait = self._not_before[index] - time.monotonic()
                if wait > 0:
                    soonest = wait if soonest is None else min(soonest, wait)
                continue
            self.restarts += 1
            if _obs._ENABLED:
                READER_RESTART_SECONDS.observe(time.monotonic() - begin)
                READER_RESTART_EVENTS["respawned"].inc()
        READER_DEAD.set(float(len(pool.dead_workers()) if not pool.closed else 0))
        return soonest

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                wait = self.heal()
            except Exception:  # pragma: no cover - healer must never die
                wait = 0.25
            self._wake.wait(timeout=wait)
            self._wake.clear()

    def notify(self) -> None:
        """Wake the background healer (a death was just observed)."""
        self._wake.set()

    def _heal_blocking(self) -> bool:
        """Heal through backoff windows; True once any worker is serving.

        Only used when the pool is empty — there is nothing to serve from,
        so sleeping out the backoff on the calling thread costs no request
        anything it was not already paying.
        """
        while True:
            wait = self.heal()
            if self.pool.closed:
                return False
            if self.pool.alive_count > 0:
                return True
            if wait is None:
                return False
            time.sleep(wait)

    # -- supervised dispatch --------------------------------------------- #
    def call(self, fn: Callable[..., "_T"], *args, **kwargs) -> "_T":
        """Run one idempotent pool operation to completion or pool death.

        ``ReaderWorkerError`` re-issues the operation on the survivors (no
        partial results ever escaped — batch results only surface on a
        complete ack) and wakes the healer; an empty pool triggers a
        blocking heal.  The operation itself must be safe to re-issue,
        which every read path is.
        """
        while True:
            try:
                return fn(*args, **kwargs)
            except ReaderWorkerError:
                if self.pool.closed:
                    raise
                self.notify()
                if self._thread is None:
                    self.heal()
                if self.pool.alive_count == 0 and not self._heal_blocking():
                    raise
            except ReaderPoolError:
                if self.pool.closed:
                    raise
                if not self._heal_blocking():
                    raise

    # -- lifecycle / telemetry ------------------------------------------- #
    def close(self) -> None:
        """Stop the background healer (the pool's lifecycle is the owner's)."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def telemetry(self) -> dict:
        """Supervisor state for the serving health surface."""
        pool = self.pool
        dead = [] if pool.closed else pool.dead_workers()
        return {
            "width": pool.readers,
            "alive": 0 if pool.closed else pool.alive_count,
            "dead_workers": dead,
            "restarts": self.restarts,
            "exhausted": sorted(self.exhausted),
            "degraded": bool(dead),
            "self_healed": not dead and not pool.closed,
        }
