"""Shared metric handles for the ingest and build planes.

The gSketch core, the sharded coordinator and the executors all report into
the same stage families (``repro_ingest_stage_seconds{stage=...}`` etc.);
resolving the handles here once keeps the catalogue in one place and the
registration idempotent.  Query-plane handles live in
:mod:`repro.queries.plan`, next to their call sites.
"""

from __future__ import annotations

from repro.observability.metrics import REGISTRY

__all__ = [
    "BUILD_STAGE",
    "DEGRADED_DROPPED_ELEMENTS",
    "DEGRADED_SHARDS",
    "INGEST_BATCHES",
    "INGEST_ELEMENTS",
    "INGEST_STAGE",
    "RECOVERY_EVENTS",
    "RECOVERY_SECONDS",
]

#: Per-stage ingest latency: ``route`` (hash + group), ``dispatch`` (shard
#: scatter), ``apply`` (counter updates), ``flush`` (pipeline drain / stall).
INGEST_STAGE = {
    stage: REGISTRY.histogram(
        "repro_ingest_stage_seconds",
        "Ingest stage latency (seconds)",
        {"stage": stage},
    )
    for stage in ("route", "dispatch", "apply", "flush")
}

INGEST_BATCHES = REGISTRY.counter(
    "repro_ingest_batches_total", "Edge batches ingested"
)
INGEST_ELEMENTS = REGISTRY.counter(
    "repro_ingest_elements_total", "Stream elements ingested"
)

#: Shard recovery latency: worker restart + journal replay, end to end.
RECOVERY_SECONDS = REGISTRY.histogram(
    "repro_recovery_seconds",
    "Shard recovery latency (worker restart + journal replay), seconds",
)

#: Recovery attempts by outcome (``recovered`` = shard back in service,
#: ``exhausted`` = retry budget spent; the degraded/poisoned path follows).
RECOVERY_EVENTS = {
    outcome: REGISTRY.counter(
        "repro_recovery_total",
        "Shard recovery incidents by outcome",
        {"outcome": outcome},
    )
    for outcome in ("recovered", "exhausted")
}

DEGRADED_SHARDS = REGISTRY.gauge(
    "repro_degraded_shards",
    "Shards abandoned after retry exhaustion and excluded from ingest",
)
DEGRADED_DROPPED_ELEMENTS = REGISTRY.counter(
    "repro_degraded_dropped_elements_total",
    "Stream elements dropped or lost because their shard is degraded",
)

#: Partition-tree construction phases of ``build_partition_tree``.
BUILD_STAGE = {
    stage: REGISTRY.histogram(
        "repro_build_stage_seconds",
        "Partition-tree build stage latency (seconds)",
        {"stage": stage},
    )
    for stage in ("lexsort", "split", "materialize")
}
