"""The Global Sketch baseline (Section 3.2).

A single Count-Min sketch spans the entire graph stream; every edge
``(x, y)`` is hashed under its concatenated key regardless of structure.  This
is the state-of-the-art baseline the paper compares gSketch against, and its
weakness — the additive error is proportional to the *whole* stream's
frequency mass ``N`` — is exactly what sketch partitioning removes.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Sequence

from repro.core.config import GSketchConfig
from repro.core.estimator import (
    ConfidenceInterval,
    countmin_confidence,
    intervals_from_arrays,
)
from repro.core.gsketch import DEFAULT_BATCH_SIZE, iter_edge_batches
from repro.graph.batch import EdgeBatch, require_valid_frequencies
from repro.graph.edge import EdgeKey, StreamEdge, edge_key
from repro.graph.stream import GraphStream
from repro.observability.health import sketch_health
from repro.observability.instruments import (
    INGEST_BATCHES,
    INGEST_ELEMENTS,
    INGEST_STAGE,
)
from repro.observability.tracing import stage_clock
from repro.queries.plan import PlanServingMixin
from repro.queries.subgraph_query import SubgraphQuery
from repro.sketches.countmin import CountMinSketch


class GlobalSketch(PlanServingMixin):
    """A single global Count-Min sketch over the whole edge universe.

    Point queries ride the compiled-plan read path (a one-slot arena plus the
    hot-edge cache); the pre-plan path stays as :meth:`query_edges_direct`.

    Args:
        config: space budget.  The baseline uses the *entire* budget
            (``total_cells``) for its one sketch: the outlier reservation only
            applies to gSketch.
    """

    def __init__(self, config: GSketchConfig) -> None:
        self.config = config
        self._sketch = CountMinSketch(
            width=max(1, config.total_width),
            depth=config.depth,
            seed=config.seed,
            conservative=config.conservative_updates,
        )
        self._init_query_plane()

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def update(self, source: Hashable, target: Hashable, frequency: float = 1.0) -> None:
        """Record one stream element for the edge ``(source, target)``."""
        self._sketch.update(edge_key(source, target), frequency)
        self._bump_generation()

    def update_edge(self, edge: StreamEdge) -> None:
        """Record one :class:`~repro.graph.edge.StreamEdge`."""
        self.update(edge.source, edge.target, edge.frequency)

    def ingest_batch(self, batch: EdgeBatch | Sequence[StreamEdge]) -> int:
        """Ingest one columnar block of stream elements.

        Keys are canonicalized vectorized (:meth:`EdgeBatch.hashed_keys`) and
        land in the sketch via one
        :meth:`~repro.sketches.countmin.CountMinSketch.update_batch` call;
        counters come out bit-identical to per-edge :meth:`update` calls.
        Returns the number of elements ingested.
        """
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch.from_edges(list(batch))
        require_valid_frequencies(batch.frequencies)
        if len(batch) == 0:
            return 0
        clock = stage_clock("ingest", INGEST_STAGE)
        keys = batch.hashed_keys()
        clock.lap("route")
        self._sketch.update_batch(keys, batch.frequencies)
        clock.lap("apply")
        self._bump_generation()
        INGEST_BATCHES.inc()
        INGEST_ELEMENTS.inc(len(batch))
        return len(batch)

    def process(
        self,
        stream: GraphStream | Iterable[StreamEdge],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> int:
        """Ingest an entire stream; returns the number of elements processed.

        Uses the sketch's vectorized batch path, which is how a C++
        implementation would amortize hashing cost; the semantics are
        identical to calling :meth:`update` per element.
        """
        return sum(
            self.ingest_batch(batch) for batch in iter_edge_batches(stream, batch_size)
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query_edge(self, edge: EdgeKey) -> float:
        """Estimate the aggregate frequency of a directed edge.

        Served through the compiled plan and hot-edge cache; bit-identical to
        a direct :meth:`~repro.sketches.countmin.CountMinSketch.estimate`.
        """
        return float(self._planned_estimates([edge])[0])

    def query_edges(self, edges: Sequence[EdgeKey]) -> List[float]:
        """Estimate many edges at once through the compiled query plan.

        Element-wise identical to calling :meth:`query_edge` per edge and to
        :meth:`query_edges_direct`: the keys go through the same
        canonicalization and hashing kernels, read from the plan arena.
        """
        return self._planned_estimates(edges).tolist()

    def query_edges_direct(self, edges: Sequence[EdgeKey]) -> List[float]:
        """The pre-plan path (one ``estimate_batch``); parity oracle and
        benchmark baseline for the compiled plan."""
        if len(edges) == 0:
            return []
        keys = EdgeBatch.from_edge_keys(edges).hashed_keys()
        return self._sketch.estimate_batch(keys).tolist()

    def query_subgraph(self, query: SubgraphQuery) -> float:
        """Estimate an aggregate subgraph query by per-edge decomposition."""
        return query.combine(self.query_edges(query.edges))

    def confidence(self, edge: EdgeKey) -> ConfidenceInterval:
        """Equation-1 confidence interval for an edge estimate."""
        return countmin_confidence(self._sketch, self.query_edge(edge))

    def confidence_batch(self, edges: Sequence[EdgeKey]) -> List[ConfidenceInterval]:
        """Equation-1 confidence intervals for many edges at once.

        One plan pass: the keys are hashed once, estimated in one gather, and
        the constant bound/failure pair (one sketch serves every query) is
        broadcast from the plan's per-slot constants.  Element-wise identical
        to :meth:`confidence`.
        """
        if len(edges) == 0:
            return []
        estimates, bounds, failures, _ = self._planned_confidence(edges)
        return intervals_from_arrays(estimates, bounds, failures)

    # ------------------------------------------------------------------ #
    # Snapshot protocol
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Complete estimator state (configuration + sketch counters)."""
        return {"config": self.config, "sketch": self._sketch.state_dict()}

    @classmethod
    def from_state(cls, state: dict) -> "GlobalSketch":
        """Revive an estimator from a :meth:`state_dict` snapshot."""
        sketch = cls(state["config"])
        sketch._sketch.load_state(state["sketch"])
        return sketch

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _plan_layout(self):
        """One-slot arena (no router)."""
        return [self._sketch], None

    @property
    def sketch(self) -> CountMinSketch:
        """The underlying Count-Min sketch."""
        return self._sketch

    @property
    def elements_processed(self) -> int:
        """Number of stream elements ingested so far."""
        return self._sketch.update_count

    @property
    def total_frequency(self) -> float:
        """Total frequency mass ingested (``N``)."""
        return self._sketch.total_count

    @property
    def memory_cells(self) -> int:
        """Number of allocated counter cells."""
        return self._sketch.memory_cells

    def telemetry_snapshot(self) -> dict:
        """Health telemetry: table saturation and plan/cache state."""
        elements = self.elements_processed
        return {
            "backend": "global",
            "elements_processed": elements,
            "outlier_elements": 0,
            "outlier_share": 0.0,
            "num_partitions": 0,
            "memory_cells": self.memory_cells,
            "total_frequency": float(self.total_frequency),
            "tables": [{"partition": 0, **sketch_health(self._sketch)}],
            **self._plan_telemetry(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GlobalSketch(width={self._sketch.width}, depth={self._sketch.depth}, "
            f"N={self._sketch.total_count:.0f})"
        )
