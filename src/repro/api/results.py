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


class Estimate:
    """A typed, immutable point estimate.

    Stored as the record ``(value, provenance, additive_bound,
    failure_probability)`` — the columns one plan pass produces — so a batch
    of answers costs one small object per key.  The attributes are
    read-only properties over private slots, and the Equation-1
    :attr:`interval` is derived from the answering partition's bound on
    access.  Equality and hashing compare ``(value, interval, provenance)``.

    Attributes:
        value: the estimated aggregate frequency.
        interval: the Equation-1 confidence interval, when the query shape
            admits one (single-edge lifetime queries); ``None`` otherwise.
        provenance: which physical structure answered.
    """

    __slots__ = ("_value", "_provenance", "_additive_bound", "_failure_probability")

    def __init__(
        self,
        value: float,
        provenance: Provenance,
        additive_bound: Optional[float] = None,
        failure_probability: Optional[float] = None,
    ) -> None:
        self._value = value
        self._provenance = provenance
        self._additive_bound = additive_bound
        self._failure_probability = failure_probability

    @property
    def value(self) -> float:
        return self._value

    @property
    def provenance(self) -> Provenance:
        return self._provenance

    @property
    def interval(self) -> Optional[ConfidenceInterval]:
        if self._additive_bound is None:
            return None
        return ConfidenceInterval(self._value, self._additive_bound, self._failure_probability)

    def _key(self) -> tuple:
        return (self._value, self.interval, self._provenance)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Estimate):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Estimate(value={self._value!r}, interval={self.interval!r}, "
            f"provenance={self._provenance!r})"
        )

    def __float__(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        """Plain-JSON form (used by the CLI)."""
        provenance = self._provenance
        result: dict = {
            "value": self._value,
            "backend": provenance.backend,
        }
        if provenance.partition is not None:
            result["partition"] = provenance.partition
        if provenance.outlier is not None:
            result["outlier"] = provenance.outlier
        if provenance.generation is not None:
            result["generation"] = provenance.generation
        interval = self.interval
        if interval is not None:
            result["interval"] = {
                "lower": interval.lower,
                "upper": interval.upper,
                "additive_bound": interval.additive_bound,
                "failure_probability": interval.failure_probability,
            }
        return result
