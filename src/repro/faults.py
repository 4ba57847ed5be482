"""Deterministic fault injection for the durability and serving planes.

Fault tolerance is only as trustworthy as its test harness: "the write was
torn and nothing raised" is not evidence of durability.  This module turns
every failure mode the engine claims to survive into a *reproducible test
case* — a :class:`FaultPlan` of :class:`FaultSpec` entries installed before
the operation names exactly which injection site fires on which hit, and the
tests then check that the damage is detected (a torn snapshot is rejected
with its section named) or survived (a torn response frame is retried).

Injection sites
---------------

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
    if _faults._PLAN is not None and _faults.should_fire(site):
        ...

so the disabled path costs one attribute load and an ``is not None`` test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

SITE_TORN_CHECKPOINT = "torn_checkpoint"
SITE_CORRUPT_SNAPSHOT = "corrupt_snapshot"
SITE_SERVING_TORN_FRAME = "serving_torn_frame"
SITE_SERVING_STALL_CONNECTION = "serving_stall_connection"
SITE_SERVING_DROP_DRAIN = "serving_drop_drain"
SITE_SERVING_INGEST_CRASH = "serving_ingest_crash"

#: Sites that fire in the durability plane (snapshot / checkpoint writes).
DURABILITY_SITES = (SITE_TORN_CHECKPOINT, SITE_CORRUPT_SNAPSHOT)

#: Sites that fire in the TCP serving tier (server process / event loop).
SERVING_SITES = (
    SITE_SERVING_TORN_FRAME,
    SITE_SERVING_STALL_CONNECTION,
    SITE_SERVING_DROP_DRAIN,
    SITE_SERVING_INGEST_CRASH,
)

ALL_SITES = DURABILITY_SITES + SERVING_SITES


@dataclass
class FaultSpec:
    """One armed fault: fire ``site`` on its ``at_hit``-th hit.

    Attributes:
        site: one of :data:`ALL_SITES`.
        at_hit: 1-based hit count at which the fault fires (each spec keeps
            its own counter and fires at most once).
        delay_seconds: sleep length for ``serving_stall_connection``.
    """

    site: str
    at_hit: int = 1
    delay_seconds: float = 0.4
    _hits: int = field(default=0, repr=False, compare=False)
    _fired: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {ALL_SITES}")
        if self.at_hit < 1:
            raise ValueError(f"at_hit must be >= 1, got {self.at_hit}")

    def matches(self, site: str) -> bool:
        return not self._fired and site == self.site


class FaultPlan:
    """An ordered set of armed :class:`FaultSpec` entries."""

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs: List[FaultSpec] = list(specs)

    def arm(self, site: str) -> Optional[FaultSpec]:
        """Count one hit of ``site``; the spec that fires on it, if any."""
        fired: Optional[FaultSpec] = None
        for spec in self.specs:
            if spec.matches(site):
                spec._hits += 1
                if spec._hits >= spec.at_hit and fired is None:
                    spec._fired = True
                    fired = spec
        return fired

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


def fire(site: str) -> Optional[FaultSpec]:
    """Count one hit of ``site``; returns the spec that fires, if any.

    Fired faults are counted into ``repro_faults_injected_total{site=...}``
    when telemetry is enabled.
    """
    if _PLAN is None:
        return None
    spec = _PLAN.arm(site)
    if spec is not None:
        from repro.observability import metrics as _obs

        if _obs._ENABLED:
            _obs.REGISTRY.counter(
                "repro_faults_injected_total",
                "Deterministic faults injected, by site.",
                {"site": site},
            ).inc()
    return spec


def should_fire(site: str) -> bool:
    """Boolean form of :func:`fire`."""
    return fire(site) is not None


def maybe_stall(site: str) -> float:
    """The stall length if a stall spec for ``site`` fires here, else 0.0.

    The caller sleeps (``await asyncio.sleep(...)`` on the event loop), so
    the stall never blocks other connections.
    """
    spec = fire(site)
    return 0.0 if spec is None else spec.delay_seconds


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
