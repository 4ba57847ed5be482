"""Shard execution backends.

The coordinator never touches sketch counters directly; it hands per-shard
work lists to a :class:`ShardExecutor`.  Two backends share the protocol:

* :class:`SequentialExecutor` — applies work in the calling thread.  Zero
  overhead and the in-process reference that parity tests compare against.
* :class:`~repro.distributed.shared_memory.SharedMemoryExecutor` — per-shard
  worker processes whose counter tables live in shared-memory arenas; apply
  ships only routed index/frequency columns, sync is a no-op flush, and
  dispatch is pipelined (double-buffered).  The production backend, and the
  only one the :mod:`~repro.distributed.recovery` supervisor can restart.

Both backends produce bit-identical sketch state: work for one shard is
always applied in submission order, and distinct shards share no counters.
This module also holds the worker-process plumbing the shared-memory
backend builds on (death-aware send/receive and escalating teardown).
"""

from __future__ import annotations

import time
from typing import Mapping, Optional, Protocol, Sequence, Union

from repro import faults as _faults
from repro.core.batch_router import PartitionGroup
from repro.distributed.shard import SketchShard
from repro.observability.instruments import INGEST_STAGE
from repro.observability.tracing import span

#: Default seconds granted to a worker to exit on its own before escalation
#: (terminate, then kill) in :func:`reap_workers`.
DEFAULT_TEARDOWN_DEADLINE = 5.0


class ShardExecutionError(RuntimeError):
    """A shard worker failed (crashed, hung up, or reported an exception).

    Raised instead of an opaque pipe error / indefinite hang when an
    out-of-process worker dies mid-stream.  ``shard_index`` names the shard
    whose worker failed; the executor is unusable afterwards, but
    :meth:`~ShardExecutor.close` stays safe (and idempotent) so callers can
    tear down cleanly.
    """

    def __init__(self, shard_index: int, message: str) -> None:
        super().__init__(f"shard {shard_index}: {message}")
        self.shard_index = shard_index


def send_to_worker(process, pipe, shard_index: int, message: tuple, lost_note: str) -> None:
    """Send one message to a shard worker, surfacing a dead worker clearly.

    ``lost_note`` describes what a death means for the backend's data
    (shared-arena workers keep already-applied counters).
    """
    if not process.is_alive():
        raise ShardExecutionError(
            shard_index,
            f"worker process died (exit code {process.exitcode}); {lost_note}",
        )
    try:
        pipe.send(message)
    except (BrokenPipeError, OSError) as exc:
        raise ShardExecutionError(
            shard_index, f"worker pipe closed mid-send ({exc})"
        ) from exc


def await_worker_reply(
    process,
    pipe,
    shard_index: int,
    expected: str,
    lost_note: str,
    deadline: Optional[float] = None,
):
    """Receive one ``(kind, payload)`` worker reply, detecting death while waiting.

    Polls instead of blocking so a worker that dies without replying turns
    into :class:`ShardExecutionError` rather than a hang; an ``"error"``
    reply (worker-side traceback) raises likewise.  With ``deadline`` set,
    a *live* worker that fails to reply within that many seconds raises
    too — the only way a dropped or pathologically slow acknowledgement
    becomes a detectable failure.  Returns the payload.
    """
    begin = time.monotonic()
    while not pipe.poll(0.1):
        if not process.is_alive() and not pipe.poll(0.0):
            raise ShardExecutionError(
                shard_index,
                f"worker process died (exit code {process.exitcode}) "
                f"before acknowledging; {lost_note}",
            )
        if deadline is not None and time.monotonic() - begin >= deadline:
            raise ShardExecutionError(
                shard_index,
                f"no acknowledgement within {deadline:.2f}s (ack deadline); "
                f"{lost_note}",
            )
    try:
        kind, payload = pipe.recv()
    except (EOFError, OSError) as exc:
        raise ShardExecutionError(
            shard_index, f"worker hung up mid-reply ({exc})"
        ) from exc
    if kind == "error":
        raise ShardExecutionError(shard_index, f"worker failed:\n{payload}")
    if kind != expected:  # pragma: no cover - defensive
        raise ShardExecutionError(
            shard_index, f"worker sent {kind!r}, expected {expected!r}"
        )
    return payload


def reap_workers(
    pipes: Sequence,
    processes: Sequence,
    deadline: float = DEFAULT_TEARDOWN_DEADLINE,
) -> None:
    """Stop, join and force-terminate workers; tolerates crashed ones.

    The ``stop`` message is best-effort (a dead worker's pipe raises and is
    ignored); surviving workers drain their queued work first (pipe FIFO)
    and get ``deadline`` seconds to exit on their own.  Escalation is
    terminate (SIGTERM, brief join) and finally ``kill()`` (SIGKILL) — a
    worker that ignores SIGTERM (stuck in an uninterruptible syscall, or a
    masked handler) can therefore never leak as a zombie past ``close()``.
    ``None`` entries (empty shards) are skipped.  Safe to call repeatedly.
    """
    for pipe in pipes:
        if pipe is None:
            continue
        try:
            pipe.send(("stop",))
        except (BrokenPipeError, OSError):
            pass  # worker already gone; join/terminate below still runs
    for process in processes:
        if process is None:
            continue
        process.join(timeout=deadline)
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(timeout=min(1.0, deadline))
        if process.is_alive():  # pragma: no cover - defensive
            process.kill()
            process.join(timeout=deadline)
    for pipe in pipes:
        if pipe is None:
            continue
        try:
            pipe.close()
        except OSError:  # pragma: no cover - defensive
            pass


class ShardExecutor(Protocol):
    """The contract between the coordinator and an execution backend.

    Backends may additionally provide ``apply_async(shards, work)`` — a
    non-blocking dispatch used by the coordinator's pipelined ingest path to
    overlap routing of batch N+1 with the application of batch N.  Executors
    without it (the sequential backend) are driven through :meth:`apply`;
    ``sync`` must always drain any in-flight asynchronous work.
    """

    def start(self, shards: Sequence[SketchShard]) -> None:
        """Attach to the shard set before the first batch (may be a no-op)."""

    def apply(
        self,
        shards: Sequence[SketchShard],
        work: Mapping[int, Sequence[PartitionGroup]],
    ) -> None:
        """Apply per-shard group lists; must complete before returning."""

    def sync(self, shards: Sequence[SketchShard]) -> None:
        """Make the coordinator-resident shard state authoritative again."""

    def close(self) -> None:
        """Release worker processes; the executor may not be reused after."""


#: Canonical string names accepted by :func:`make_executor`.
EXECUTOR_NAMES = ("sequential", "shared")


def make_executor(spec: Union[str, ShardExecutor, None]) -> Optional[ShardExecutor]:
    """Resolve an executor specification to a backend instance.

    Accepts a canonical name (``"sequential"`` or ``"shared"``), an
    already-constructed executor (returned unchanged), or ``None`` (returns
    ``None``; callers fall back to their default).  This is the single
    resolution point behind the engine builder's ``.executor(...)`` knob and
    the benchmark CLIs.
    """
    if spec is None or not isinstance(spec, str):
        return spec
    name = spec.lower()
    if name == "sequential":
        return SequentialExecutor()
    if name == "shared":
        from repro.distributed.shared_memory import SharedMemoryExecutor

        return SharedMemoryExecutor()
    raise ValueError(
        f"unknown executor {spec!r}; expected one of {', '.join(EXECUTOR_NAMES)} "
        "or a ShardExecutor instance"
    )


class SequentialExecutor:
    """Apply all shard work in the calling thread (reference backend)."""

    def start(self, shards: Sequence[SketchShard]) -> None:
        pass

    def apply(
        self,
        shards: Sequence[SketchShard],
        work: Mapping[int, Sequence[PartitionGroup]],
    ) -> None:
        with span("ingest", "apply", INGEST_STAGE["apply"], executor="sequential"):
            for shard_index in sorted(work):
                # In-process "crashes" are simulated as shard failures: the
                # same injection sites as the shared-memory workers, surfacing as
                # the same error type, without killing the coordinator.
                if _faults._PLAN is not None and _faults.should_fire(
                    _faults.SITE_CRASH_BEFORE_APPLY, shard_index
                ):
                    raise ShardExecutionError(
                        shard_index, "injected fault: crash before apply"
                    )
                shards[shard_index].apply(work[shard_index])
                if _faults._PLAN is not None and _faults.should_fire(
                    _faults.SITE_CRASH_AFTER_APPLY, shard_index
                ):
                    raise ShardExecutionError(
                        shard_index, "injected fault: crash after apply"
                    )

    def sync(self, shards: Sequence[SketchShard]) -> None:
        pass

    def close(self) -> None:
        pass
