"""Deterministic fault injection for the distributed write and durability planes.

Fault tolerance is only as trustworthy as its test harness: "the worker
crashed and nothing raised" is not evidence of recovery.  This module turns
every failure mode the engine claims to survive into a *reproducible test
case* — a :class:`FaultPlan` of :class:`FaultSpec` entries installed before
ingestion names exactly which injection site fires, in which shard, on which
hit, and the recovery tests then check the recovered ``state_dict()``
bit-exactly against an unfaulted run.

Injection sites
---------------

* ``worker_crash_before_apply`` — the shard worker dies (``os._exit``)
  after receiving a batch but before applying any of it.
* ``worker_crash_after_apply`` — the worker dies after the batch is fully
  applied (and, on the shared-memory backend, after the applied-sequence
  slot is committed) but before acknowledging it.
* ``drop_ack`` — the worker applies the batch but never acknowledges it;
  detectable only through the coordinator's ack deadline.
* ``slow_ack`` — the worker acknowledges ``delay_seconds`` late, past the
  coordinator's ack deadline.
* ``torn_checkpoint`` — a snapshot / checkpoint section is truncated
  mid-write (simulating a crash between write and fsync).
* ``corrupt_snapshot`` — one byte of a written snapshot / checkpoint
  section is flipped (simulating silent media corruption).
* ``serving_torn_frame`` — the server closes a connection after writing
  only half of a response frame (a torn wire write).
* ``serving_stall_connection`` — the server delays one response by
  ``delay_seconds`` (a stalled / slow-loris-adjacent connection).
* ``serving_drop_drain`` — the server drops a connection during drain,
  after the request was admitted to the coalescer but before its answer
  is demuxed (exercises cancel-on-disconnect in the coalescing queue).
* ``serving_ingest_crash`` — the server drops the connection after an
  ingest mutated the engine but before the acknowledgement frame is
  written (the non-idempotent retry window: clients must *not* retry).

Zero-cost-when-disabled contract
--------------------------------

Production call sites gate on the module global ``_PLAN`` (mirroring the
telemetry plane's ``_ENABLED`` flag)::

    from repro import faults as _faults
    ...
    if _faults._PLAN is not None:
        _faults.crash_point(_faults.SITE_CRASH_BEFORE_APPLY, shard_index)

so the disabled path costs one attribute load and an ``is not None`` test.
Worker processes receive the coordinator's plan (pickled) at spawn time and
install it locally; per-spec hit counters therefore count in the process
where the site lives.  Restarted workers receive :func:`restart_plan` —
only specs marked ``persistent`` survive a restart, so a single-shot crash
spec kills the first worker generation exactly once while a persistent spec
models a shard that can never come back (retry-budget exhaustion).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SITE_CRASH_BEFORE_APPLY = "worker_crash_before_apply"
SITE_CRASH_AFTER_APPLY = "worker_crash_after_apply"
SITE_DROP_ACK = "drop_ack"
SITE_SLOW_ACK = "slow_ack"
SITE_TORN_CHECKPOINT = "torn_checkpoint"
SITE_CORRUPT_SNAPSHOT = "corrupt_snapshot"
SITE_SERVING_TORN_FRAME = "serving_torn_frame"
SITE_SERVING_STALL_CONNECTION = "serving_stall_connection"
SITE_SERVING_DROP_DRAIN = "serving_drop_drain"
SITE_SERVING_INGEST_CRASH = "serving_ingest_crash"

#: Sites that fire inside shard worker processes (or in-process apply paths).
WORKER_SITES = (
    SITE_CRASH_BEFORE_APPLY,
    SITE_CRASH_AFTER_APPLY,
    SITE_DROP_ACK,
    SITE_SLOW_ACK,
)

#: Sites that fire in the durability plane (snapshot / checkpoint writes).
DURABILITY_SITES = (SITE_TORN_CHECKPOINT, SITE_CORRUPT_SNAPSHOT)

#: Sites that fire in the TCP serving tier (server process / event loop).
SERVING_SITES = (
    SITE_SERVING_TORN_FRAME,
    SITE_SERVING_STALL_CONNECTION,
    SITE_SERVING_DROP_DRAIN,
    SITE_SERVING_INGEST_CRASH,
)

ALL_SITES = WORKER_SITES + DURABILITY_SITES + SERVING_SITES

#: Exit code used by injected worker crashes (visible in the
#: ``ShardExecutionError`` message as the worker's exit code).
CRASH_EXIT_CODE = 73


@dataclass
class FaultSpec:
    """One armed fault: fire ``site`` on its ``at_hit``-th matching hit.

    Attributes:
        site: one of :data:`ALL_SITES`.
        at_hit: 1-based hit count at which the fault fires (each spec keeps
            its own counter and fires at most once per process).
        shard: restrict to one shard index (``None`` matches any shard;
            durability sites carry no shard).
        delay_seconds: sleep length for ``slow_ack``.
        persistent: whether the spec survives worker restarts
            (:func:`restart_plan`).  Non-persistent specs model transient
            faults — the restarted worker is healthy; persistent specs model
            a shard that fails every restart (retry-budget exhaustion).
    """

    site: str
    at_hit: int = 1
    shard: Optional[int] = None
    delay_seconds: float = 0.4
    persistent: bool = False
    _hits: int = field(default=0, repr=False, compare=False)
    _fired: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {ALL_SITES}")
        if self.at_hit < 1:
            raise ValueError(f"at_hit must be >= 1, got {self.at_hit}")

    def matches(self, site: str, shard: Optional[int]) -> bool:
        return (
            not self._fired
            and site == self.site
            and (self.shard is None or shard is None or self.shard == shard)
        )


class FaultPlan:
    """An ordered set of armed :class:`FaultSpec` entries.

    Plans are plain picklable objects: the coordinator ships its installed
    plan to each worker process at spawn, where hit counting restarts from
    the shipped state.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs: List[FaultSpec] = list(specs)

    @classmethod
    def seeded(
        cls,
        seed: int,
        sites: Sequence[str] = WORKER_SITES,
        max_hit: int = 4,
        num_shards: Optional[int] = None,
    ) -> "FaultPlan":
        """A deterministic schedule derived from ``seed``.

        One spec per site, each firing on a pseudo-random hit in
        ``[1, max_hit]`` (and, when ``num_shards`` is given, pinned to a
        pseudo-random shard).  The same seed always produces the same
        schedule — the CI fault matrix replays these by seed.
        """
        rng = np.random.default_rng(seed)
        specs = []
        for site in sites:
            shard = int(rng.integers(0, num_shards)) if num_shards else None
            specs.append(
                FaultSpec(site=site, at_hit=int(rng.integers(1, max_hit + 1)), shard=shard)
            )
        return cls(specs)

    def arm(self, site: str, shard: Optional[int] = None) -> Optional[FaultSpec]:
        """Count one hit of ``site``; the spec that fires on it, if any."""
        fired: Optional[FaultSpec] = None
        for spec in self.specs:
            if spec.matches(site, shard):
                spec._hits += 1
                if spec._hits >= spec.at_hit and fired is None:
                    spec._fired = True
                    fired = spec
        return fired

    def for_restart(self) -> Optional["FaultPlan"]:
        """The plan a restarted worker should receive (persistent specs only)."""
        survivors = [spec for spec in self.specs if spec.persistent and not spec._fired]
        return FaultPlan(survivors) if survivors else None

    def injected(self) -> Dict[str, int]:
        """Fired-spec counts by site (this process only)."""
        counts: Dict[str, int] = {}
        for spec in self.specs:
            if spec._fired:
                counts[spec.site] = counts.get(spec.site, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.specs!r})"


#: The process-local installed plan; ``None`` (the default) disables every
#: injection site.  Production code gates on this exact global.
_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install (or, with ``None``, clear) the process-local fault plan."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Disable fault injection in this process."""
    install(None)


def current_plan() -> Optional[FaultPlan]:
    """The installed plan (shipped to workers at spawn time)."""
    return _PLAN


def restart_plan() -> Optional[FaultPlan]:
    """The plan to ship to a *restarted* worker (persistent specs only)."""
    return None if _PLAN is None else _PLAN.for_restart()


def fire(site: str, shard: Optional[int] = None) -> Optional[FaultSpec]:
    """Count one hit of ``site``; returns the spec that fires, if any.

    Fired faults are counted into ``repro_faults_injected_total{site=...}``
    (in the process where the site lives) when telemetry is enabled.
    """
    if _PLAN is None:
        return None
    spec = _PLAN.arm(site, shard)
    if spec is not None:
        from repro.observability import metrics as _obs

        if _obs._ENABLED:
            _obs.REGISTRY.counter(
                "repro_faults_injected_total",
                "Deterministic faults injected, by site.",
                {"site": site},
            ).inc()
    return spec


def crash_point(site: str, shard: Optional[int] = None) -> None:
    """Kill this process (``os._exit``) if a crash spec fires here."""
    if fire(site, shard) is not None:
        os._exit(CRASH_EXIT_CODE)


def should_fire(site: str, shard: Optional[int] = None) -> bool:
    """Boolean form of :func:`fire` (used for drop-ack and simulated faults)."""
    return fire(site, shard) is not None


def maybe_slow_ack(shard: Optional[int] = None) -> None:
    """Sleep past the coordinator's ack deadline if a slow-ack spec fires."""
    spec = fire(SITE_SLOW_ACK, shard)
    if spec is not None:
        time.sleep(spec.delay_seconds)


def maybe_stall(site: str, shard: Optional[int] = None) -> float:
    """Sleep ``delay_seconds`` if a stall spec for ``site`` fires here.

    Returns the injected delay (0.0 when nothing fired) so async call
    sites can ``await asyncio.sleep(...)`` instead of blocking the loop.
    """
    spec = fire(site, shard)
    if spec is None:
        return 0.0
    if site not in SERVING_SITES:
        time.sleep(spec.delay_seconds)
    return spec.delay_seconds


def tear_frame(data: bytes) -> Tuple[bytes, bool]:
    """Apply a serving torn-frame fault to an encoded wire frame.

    Returns ``(possibly-truncated bytes, fired)``.  A torn frame keeps the
    length prefix plus roughly half the payload, so the reader on the other
    end sees a short read mid-payload — exactly what a server crash between
    two ``send(2)`` calls produces.
    """
    if _PLAN is None or len(data) < 6:
        return data, False
    if fire(SITE_SERVING_TORN_FRAME) is not None:
        return data[: 4 + max(1, (len(data) - 4) // 2)], True
    return data, False


def mangle_payload(data: bytes) -> Tuple[bytes, Optional[str]]:
    """Apply a durability fault to ``data`` about to be written.

    Returns ``(possibly-mangled bytes, site-or-None)``: a torn write keeps
    only the first half of the payload, a corruption flips one byte in the
    middle.  Callers compute checksums over the *true* bytes first, so the
    mangled file fails validation exactly like a real torn/corrupt write.
    """
    if _PLAN is None or not data:
        return data, None
    if fire(SITE_TORN_CHECKPOINT) is not None:
        return data[: len(data) // 2], SITE_TORN_CHECKPOINT
    if fire(SITE_CORRUPT_SNAPSHOT) is not None:
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0xFF
        return bytes(flipped), SITE_CORRUPT_SNAPSHOT
    return data, None
