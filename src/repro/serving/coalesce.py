"""Cross-client batch coalescing: many in-flight point queries, one gather.

``BENCH_query.json`` shows the compiled plan answering a batch of 8 at ~27×
direct while batch-1 holds ~50× — per-*call* overhead, not kernel time,
bounds point-query throughput.  The serving tier exploits that: point
queries from *different* clients that are in flight at the same instant are
drained into one :class:`~repro.queries.plan.CompiledQueryPlan` gather and
the per-request slices are demultiplexed back to their futures
(:func:`~repro.queries.plan.demux_by_counts`), so concurrency buys batch
size instead of queueing delay.

:class:`CoalescingQueue` is the micro-batcher.  Requests enter through
:meth:`submit`; a single drain task wakes when work arrives, yields one
event-loop pass before a non-full batch so that every request already read
in that pass joins it (a full batch does not yield), answers one batch
through the ``answer`` callable, and resolves each request's future with its
slice of the results plus the plan generation that answered it.  No request
waits on a timer, which would round up to the loop's 1 ms poll tick.  The
answer runs synchronously on the event loop, so no ingest can land between
the gather and the generation tag it reports.

Overload is **admission-controlled, not buffered**: when more than
``max_pending`` keys are already waiting, :meth:`submit` raises
:class:`AdmissionError` immediately and the server turns that into a typed
``retry_later`` response — memory stays bounded and latency stays honest
under any offered load.  Per-request deadlines are honoured at drain time:
a request whose deadline passed while queued gets
:class:`DeadlineExceededError` instead of a stale answer.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.graph.edge import EdgeKey
from repro.observability import metrics as _obs
from repro.queries.plan import demux_by_counts

#: Default micro-batching bounds: a 512-key gather amortizes call overhead to
#: noise, and 4096 waiting keys hold eight full batches before admission
#: sheds load.
DEFAULT_MAX_BATCH = 512
DEFAULT_MAX_PENDING = 4096

#: The answer callable: one compiled-plan gather over the coalesced keys,
#: returning the per-key estimates and the plan generation that served them.
AnswerFn = Callable[[List[EdgeKey]], Tuple[Sequence[float], int]]

_QUEUE_DEPTH = _obs.REGISTRY.gauge(
    "repro_serve_queue_depth", "Point-query keys waiting in the coalescing queue"
)
_BATCH_SIZE = _obs.REGISTRY.histogram(
    "repro_serve_batch_size",
    "Coalesced gather size (keys per compiled-plan batch)",
    bounds=_obs.BATCH_BUCKET_BOUNDS,
)
_ADMISSION_REJECTS = _obs.REGISTRY.counter(
    "repro_serve_admission_rejects_total",
    "Requests shed by coalescing-queue admission control",
)


class AdmissionError(Exception):
    """The coalescing queue is full; the caller should retry later."""


class DeadlineExceededError(Exception):
    """The request's deadline passed before a batch could answer it."""


class _Pending:
    __slots__ = ("keys", "future", "deadline")

    def __init__(
        self,
        keys: List[EdgeKey],
        future: "asyncio.Future[Tuple[List[float], int]]",
        deadline: Optional[float],
    ) -> None:
        self.keys = keys
        self.future = future
        self.deadline = deadline


class CoalescingQueue:
    """Micro-batcher funnelling concurrent point queries into one gather.

    Args:
        answer: synchronous callable answering one batch of keys (one
            compiled-plan gather); runs on the event loop, so it must be
            fast — which is the whole point of the compiled plan.
        max_batch: largest number of keys drained into one gather.
        max_pending: admission-control bound on waiting keys; submissions
            beyond it raise :class:`AdmissionError` instead of queueing.
    """

    def __init__(
        self,
        answer: AnswerFn,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be > 0, got {max_batch}")
        if max_pending <= 0:
            raise ValueError(f"max_pending must be > 0, got {max_pending}")
        self._answer = answer
        self.max_batch = max_batch
        self.max_pending = max_pending
        self._pending: Deque[_Pending] = deque()
        self._pending_keys = 0
        self._wake = asyncio.Event()
        self._task: Optional["asyncio.Task[None]"] = None
        self._closing = False
        # Always-on plain-int stats (the registry mirrors live alongside,
        # gated on the observability enable flag).
        self.submitted = 0
        self.rejected = 0
        self.expired = 0
        self.cancelled = 0
        self.batches = 0
        self.coalesced_keys = 0
        self.max_depth = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn the drain task on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._drain_loop())

    async def stop(self) -> None:
        """Drain everything already admitted, then stop the drain task.

        New :meth:`submit` calls are rejected from the moment this is
        called; requests admitted before it still get real answers — the
        graceful-shutdown contract.
        """
        self._closing = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None

    @property
    def depth(self) -> int:
        """Keys currently waiting to be drained."""
        return self._pending_keys

    def stats(self) -> dict:
        """Always-on counter snapshot for ``server.stats()`` surfaces."""
        return {
            "depth": self._pending_keys,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "batches": self.batches,
            "coalesced_keys": self.coalesced_keys,
            "max_depth": self.max_depth,
            "mean_batch_size": self.coalesced_keys / self.batches if self.batches else 0.0,
        }

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self, keys: Sequence[EdgeKey], deadline: Optional[float] = None
    ) -> "asyncio.Future[Tuple[List[float], int]]":
        """Queue one request; returns a future of ``(values, generation)``.

        Raises :class:`AdmissionError` *synchronously* when the queue is
        full or the server is draining — shed load never occupies memory.
        ``deadline`` is an absolute ``loop.time()`` instant.
        """
        if self._closing:
            raise AdmissionError("server is draining")
        if self._pending_keys + len(keys) > self.max_pending:
            self.rejected += 1
            _ADMISSION_REJECTS.inc()
            raise AdmissionError(
                f"{self._pending_keys} keys already pending (cap {self.max_pending})"
            )
        future: "asyncio.Future[Tuple[List[float], int]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append(_Pending(list(keys), future, deadline))
        self._pending_keys += len(keys)
        self.submitted += 1
        if self._pending_keys > self.max_depth:
            self.max_depth = self._pending_keys
        if _obs._ENABLED:
            _QUEUE_DEPTH.set(float(self._pending_keys))
        self._wake.set()
        return future

    # ------------------------------------------------------------------ #
    # Draining
    # ------------------------------------------------------------------ #
    async def _drain_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if self._closing:
                    return
                self._wake.clear()
                # Re-check under the cleared event: a submit between the
                # check above and clear() also set the event again.
                if not self._pending:
                    await self._wake.wait()
                continue
            if not self._closing and self._pending_keys < self.max_batch:
                # One loop pass lets every request already read join the
                # batch; a full batch gains nothing by yielding.
                await asyncio.sleep(0)
            self._drain_one(loop.time())

    def _take_batch(self, now: float) -> List[_Pending]:
        """Dequeue FIFO entries up to ``max_batch`` keys, dropping expired ones.

        Always takes at least one live entry, so a single request larger
        than ``max_batch`` still gets answered (as its own batch).

        Entries whose future was cancelled while queued — the requester's
        connection dropped before this drain — are counted and skipped, so
        a vanished client neither occupies gather capacity nor has an
        answer queued for its closed connection.
        """
        batch: List[_Pending] = []
        taken = 0
        while self._pending:
            entry = self._pending[0]
            if entry.future.done():
                self._pending.popleft()
                self._pending_keys -= len(entry.keys)
                self.cancelled += 1
                continue
            if entry.deadline is not None and entry.deadline < now:
                self._pending.popleft()
                self._pending_keys -= len(entry.keys)
                self.expired += 1
                if not entry.future.done():
                    entry.future.set_exception(
                        DeadlineExceededError("deadline passed while queued")
                    )
                continue
            if batch and taken + len(entry.keys) > self.max_batch:
                break
            self._pending.popleft()
            self._pending_keys -= len(entry.keys)
            batch.append(entry)
            taken += len(entry.keys)
        return batch

    def _drain_one(self, now: float) -> None:
        """Answer one batch and resolve each request's slice.

        Futures cancelled by a dropped connection are skipped (and counted)
        when the batch is taken; the checks below keep a cancelled future
        from raising into the drain loop instead of being counted.
        """
        batch = self._take_batch(now)
        if _obs._ENABLED:
            _QUEUE_DEPTH.set(float(self._pending_keys))
        if not batch:
            return
        keys: List[EdgeKey] = []
        counts: List[int] = []
        for entry in batch:
            keys.extend(entry.keys)
            counts.append(len(entry.keys))
        self.batches += 1
        self.coalesced_keys += len(keys)
        if _obs._ENABLED:
            _BATCH_SIZE._observe(float(len(keys)))
        try:
            values, generation = self._answer(keys)
        except Exception as exc:  # noqa: BLE001 - fanned out per request
            for entry in batch:
                if entry.future.cancelled():
                    self.cancelled += 1
                elif not entry.future.done():
                    entry.future.set_exception(exc)
            return
        for entry, slice_values in zip(batch, demux_by_counts(values, counts)):
            if entry.future.cancelled():
                self.cancelled += 1
            elif not entry.future.done():
                entry.future.set_result((slice_values, generation))
