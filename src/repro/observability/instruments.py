"""Shared metric handles for the ingest and build planes.

Every estimator backend reports into the same stage families
(``repro_ingest_stage_seconds{stage=...}`` etc.);
resolving the handles here once keeps the catalogue in one place and the
registration idempotent.  Query-plane handles live in
:mod:`repro.queries.plan`, next to their call sites.
"""

from __future__ import annotations

from repro.observability.metrics import REGISTRY

__all__ = [
    "BUILD_STAGE",
    "INGEST_BATCHES",
    "INGEST_ELEMENTS",
    "INGEST_STAGE",
]

#: Per-stage ingest latency.  ``route``: vertex routing plus the edge-key
#: canonicalization (an endpoint fold and one splitmix64 pass) on the
#: partitioned backends, the canonicalization alone on the one-sketch
#: baseline.  ``apply``: the per-row multiply-shift
#: hash and the counter scatter (the one apply kernel, or the baseline's
#: ``update_batch``).
INGEST_STAGE = {
    stage: REGISTRY.histogram(
        "repro_ingest_stage_seconds",
        "Ingest stage latency (seconds)",
        {"stage": stage},
    )
    for stage in ("route", "apply")
}

INGEST_BATCHES = REGISTRY.counter(
    "repro_ingest_batches_total", "Edge batches ingested"
)
INGEST_ELEMENTS = REGISTRY.counter(
    "repro_ingest_elements_total", "Stream elements ingested"
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
