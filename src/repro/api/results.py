"""Typed query results.

The raw backend methods return bare floats; the public facade surface wraps
them in :class:`Estimate` objects that carry the point value, the
per-partition Equation-1 :class:`~repro.core.estimator.ConfidenceInterval`
(when the query shape admits one), and a :class:`Provenance` record saying
*which physical structure answered* — the backend, the partition and
whether the outlier sketch served the query.  Different partitions give
different error guarantees (Section 5), so provenance is part of the answer,
not debug metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.estimator import ConfidenceInterval


@dataclass(frozen=True)
class Provenance:
    """Where an estimate came from.

    Attributes:
        backend: canonical backend name (``"gsketch"``, ``"global"``,
            ``"windowed"``).
        partition: index of the localized partition that answered, when the
            backend routes queries through a partitioning
            (:data:`~repro.core.router.OUTLIER_PARTITION` marks the outlier
            sketch); ``None`` when the notion does not apply.
        outlier: whether the outlier sketch served the query; ``None`` when
            the backend has no outlier reservation.
        generation: the engine's ingest generation at answer time (``None``
            on subgraph and window answers, which carry no tag).  The
            serving tier returns it on every response so sessions can assert
            monotonic reads across live ingest.
    """

    backend: str
    partition: Optional[int] = None
    outlier: Optional[bool] = None
    generation: Optional[int] = None


@dataclass(frozen=True)
class Estimate:
    """A typed point estimate.

    Attributes:
        value: the estimated aggregate frequency.
        interval: the Equation-1 confidence interval, when the query shape
            admits one (single-edge lifetime queries); ``None`` otherwise.
        provenance: which physical structure answered.
    """

    value: float
    interval: Optional[ConfidenceInterval]
    provenance: Provenance

    def __float__(self) -> float:
        return self.value

    def to_dict(self) -> dict:
        """Plain-JSON form (used by the CLI)."""
        result: dict = {
            "value": self.value,
            "backend": self.provenance.backend,
        }
        if self.provenance.partition is not None:
            result["partition"] = self.provenance.partition
        if self.provenance.outlier is not None:
            result["outlier"] = self.provenance.outlier
        if self.provenance.generation is not None:
            result["generation"] = self.provenance.generation
        if self.interval is not None:
            result["interval"] = {
                "lower": self.interval.lower,
                "upper": self.interval.upper,
                "additive_bound": self.interval.additive_bound,
                "failure_probability": self.interval.failure_probability,
            }
        return result
