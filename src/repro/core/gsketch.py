"""gSketch: the partitioned graph-stream sketch (Sections 4 and 5).

Construction is a two-phase process:

1. **Offline partitioning** on a data sample (and optionally a query workload
   sample): :func:`~repro.core.partitioner.build_partition_tree` groups source
   vertices with similar average edge frequency into localized sketches and
   allocates the width budget among them; a fixed fraction of the space is
   reserved for the **outlier sketch** serving vertices absent from the
   sample.
2. **Online maintenance**: each incoming edge is routed by its source vertex
   through the hash structure ``H`` to its localized sketch and counted there;
   queries are routed the same way, so each query's error depends only on the
   frequency mass inside its own partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.batch_router import BatchRouter
from repro.core.config import GSketchConfig
from repro.core.estimator import (
    ConfidenceInterval,
    countmin_confidence,
    intervals_from_arrays,
)
from repro.core.partition_tree import PartitionLeaf, PartitionTree
from repro.core.partitioner import build_partition_tree, workload_vertex_weights
from repro.core.router import OUTLIER_PARTITION, VertexRouter
from repro.graph.batch import EdgeBatch, require_valid_frequencies
from repro.graph.edge import EdgeKey, StreamEdge, edge_key
from repro.graph.statistics import VertexStatistics
from repro.graph.stream import GraphStream
from repro.observability.health import sketch_health
from repro.queries.plan import PlanServingMixin
from repro.queries.subgraph_query import SubgraphQuery
from repro.queries.workload import QueryWorkload
from repro.sketches.countmin import CountMinSketch

#: Default number of elements per block for batched ingestion.
DEFAULT_BATCH_SIZE = 8192


def make_partition_sketch(config: GSketchConfig, leaf: PartitionLeaf) -> CountMinSketch:
    """The physical sketch of one partition-tree leaf.

    Centralized so that every consumer — :class:`GSketch` and the shards of
    :class:`~repro.distributed.coordinator.ShardedGSketch` — constructs
    sketches with identical dimensions and hash seeds, which is what makes
    sharded and single-process ingestion bit-identical.
    """
    return CountMinSketch(
        width=leaf.width,
        depth=config.depth,
        seed=config.seed + leaf.index + 1,
        conservative=config.conservative_updates,
    )


def make_outlier_sketch(config: GSketchConfig, surplus_width: int) -> CountMinSketch:
    """The sketch serving vertices absent from the data sample."""
    return CountMinSketch(
        width=max(1, config.outlier_width + surplus_width),
        depth=config.depth,
        seed=config.seed,
        conservative=config.conservative_updates,
    )


def chunked_batches(
    edges: Iterable[StreamEdge], batch_size: int
) -> Iterable[EdgeBatch]:
    """Columnarize an arbitrary element iterable in blocks of ``batch_size``."""
    if batch_size <= 0:
        raise ValueError(f"batch size must be > 0, got {batch_size}")
    chunk: List[StreamEdge] = []
    for edge in edges:
        chunk.append(edge if isinstance(edge, StreamEdge) else StreamEdge(*edge))
        if len(chunk) >= batch_size:
            yield EdgeBatch.from_edges(chunk)
            chunk = []
    if chunk:
        yield EdgeBatch.from_edges(chunk)


def iter_edge_batches(
    stream: GraphStream | Iterable[StreamEdge],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterable[EdgeBatch]:
    """Columnar blocks for a stream or arbitrary edge iterable.

    Materialized :class:`~repro.graph.stream.GraphStream` inputs reuse the
    stream's cached columnar form; arbitrary iterables (including unbounded
    generators) are chunked lazily without materializing.  Every batched
    ingest path dispatches through here.
    """
    if isinstance(stream, GraphStream):
        return stream.iter_batches(batch_size)
    return chunked_batches(stream, batch_size)


def routed_confidence_batch(
    batch_router: BatchRouter,
    edges: Sequence[EdgeKey],
    sketch_for,
) -> "tuple[List[ConfidenceInterval], List[int]]":
    """Equation-1 confidence intervals for a block of edges, one routing pass.

    The single source of truth for partitioned confidence queries, shared by
    :meth:`GSketch.confidence_batch` and
    :meth:`~repro.distributed.coordinator.ShardedGSketch.confidence_batch` so
    the two cannot diverge.  Edges are routed once and estimated per
    partition via ``estimate_batch``; the additive bound and failure
    probability are per-partition constants, so each group contributes two
    scalars.  Returns the intervals plus the partition id that answered each
    edge (:data:`~repro.core.router.OUTLIER_PARTITION` for outliers), both
    positionally aligned with ``edges``.

    Args:
        batch_router: the engine's vectorized router.
        edges: the ``(source, target)`` keys to estimate.
        sketch_for: partition index → physical sketch resolver.
    """
    if len(edges) == 0:
        return [], []
    routed = batch_router.route_edges(edges)
    estimates = np.empty(len(edges), dtype=np.float64)
    bounds = np.empty(len(edges), dtype=np.float64)
    failures = np.empty(len(edges), dtype=np.float64)
    partitions = np.empty(len(edges), dtype=np.int64)
    for group in routed.groups:
        sketch = sketch_for(group.partition)
        estimates[group.positions] = sketch.estimate_batch(group.keys)
        # The bound and failure probability are per-partition constants;
        # derive them once per group from the scalar single source of truth
        # so the two confidence paths cannot diverge.
        template = countmin_confidence(sketch, 0.0)
        bounds[group.positions] = template.additive_bound
        failures[group.positions] = template.failure_probability
        partitions[group.positions] = group.partition
    intervals = [
        ConfidenceInterval(
            estimate=float(estimate),
            additive_bound=float(bound),
            failure_probability=float(failure),
        )
        for estimate, bound, failure in zip(estimates, bounds, failures)
    ]
    return intervals, partitions.tolist()


@dataclass(frozen=True)
class PartitionSummary:
    """Size and load summary of one partition (used by reports and Table 1)."""

    index: int
    vertex_count: int
    width: int
    depth: int
    total_frequency: float
    leaf_reason: str


class GSketch(PlanServingMixin):
    """The partitioned graph-stream sketch.

    Instances are normally created through :meth:`build` (data sample only,
    Figure 2) or :meth:`build_with_workload` (data + workload samples,
    Figure 3) rather than the constructor.

    Batch ingest and point queries both run through a lazily compiled
    :class:`~repro.queries.plan.CompiledQueryPlan` (one arena spanning every
    partition plus the outlier sketch, answers bit-identical to the
    per-partition path) with a generation-tagged hot-edge cache in front of
    reads; the pre-plan routed path stays available as
    :meth:`query_edges_direct` / :meth:`confidence_batch_direct`.
    """

    def __init__(
        self,
        config: GSketchConfig,
        tree: PartitionTree,
        router: VertexRouter,
        stats: VertexStatistics,
        workload_weights: Optional[Mapping[Hashable, float]] = None,
    ) -> None:
        self.config = config
        self.tree = tree
        self.router = router
        self.stats = stats
        self.workload_weights = dict(workload_weights) if workload_weights else None

        self._partitions: List[CountMinSketch] = [
            make_partition_sketch(config, leaf) for leaf in tree.leaves
        ]
        self._outlier = make_outlier_sketch(config, tree.surplus_width)
        self._elements_processed = 0
        self._outlier_elements = 0
        self._batch_router = BatchRouter(router)
        self._init_query_plane()

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @staticmethod
    def _sample_statistics(
        sample: GraphStream, stream_size_hint: Optional[int]
    ) -> VertexStatistics:
        """Vertex statistics from the sample, extrapolated to stream scale.

        The split objectives are scale-invariant, but the Theorem-1
        termination criterion compares ``sum_m d̃(m)`` with absolute sketch
        widths, so the sample counts are scaled by the expected
        stream-to-sample size ratio when the caller can provide one.
        """
        stats = VertexStatistics.from_stream(sample)
        if stream_size_hint is not None and len(sample) > 0 and stream_size_hint > len(sample):
            sample_fraction = len(sample) / stream_size_hint
            stats = stats.extrapolated(sample_fraction)
        return stats

    @classmethod
    def build(
        cls,
        sample: GraphStream,
        config: GSketchConfig,
        stream_size_hint: Optional[int] = None,
    ) -> "GSketch":
        """Partition with a data sample only (Figure 2).

        Args:
            sample: the graph-stream data sample.
            config: space budget and termination constants.
            stream_size_hint: expected number of stream elements the sketch
                will absorb; used to extrapolate the sample statistics for the
                Theorem-1 termination criterion.  ``None`` keeps the raw
                sample counts.
        """
        stats = cls._sample_statistics(sample, stream_size_hint)
        tree = build_partition_tree(stats, config, workload_weights=None)
        router = VertexRouter.from_tree(tree)
        return cls(config=config, tree=tree, router=router, stats=stats)

    @classmethod
    def build_with_workload(
        cls,
        sample: GraphStream,
        workload: QueryWorkload | GraphStream,
        config: GSketchConfig,
        smoothing_alpha: float = 1.0,
        stream_size_hint: Optional[int] = None,
    ) -> "GSketch":
        """Partition with a data sample and a query workload sample (Figure 3).

        Args:
            sample: the graph-stream data sample.
            workload: either a :class:`~repro.queries.workload.QueryWorkload`
                or a :class:`~repro.graph.stream.GraphStream` whose elements
                are the workload-sample edges.
            config: space budget and termination constants.
            smoothing_alpha: Laplace pseudo-count for the vertex weights
                ``w̃(n)`` (Section 6.4).
            stream_size_hint: expected number of stream elements, used to
                extrapolate the sample statistics (see :meth:`build`).
        """
        stats = cls._sample_statistics(sample, stream_size_hint)
        if isinstance(workload, QueryWorkload):
            source_counts = workload.source_vertex_counts()
        else:
            source_counts = {
                vertex: float(freq) for vertex, freq in workload.vertex_frequencies().items()
            }
        weights = workload_vertex_weights(stats, source_counts, smoothing_alpha)
        tree = build_partition_tree(stats, config, workload_weights=weights)
        router = VertexRouter.from_tree(tree)
        return cls(config=config, tree=tree, router=router, stats=stats, workload_weights=weights)

    # ------------------------------------------------------------------ #
    # Stream maintenance
    # ------------------------------------------------------------------ #
    def update(self, source: Hashable, target: Hashable, frequency: float = 1.0) -> None:
        """Route one stream element to its localized (or outlier) sketch."""
        partition = self.router.partition_of(source)
        sketch = self._sketch_for(partition)
        sketch.update(edge_key(source, target), frequency)
        self._elements_processed += 1
        self._bump_generation()
        if partition == OUTLIER_PARTITION:
            self._outlier_elements += 1

    def update_edge(self, edge: StreamEdge) -> None:
        """Record one :class:`~repro.graph.edge.StreamEdge`."""
        self.update(edge.source, edge.target, edge.frequency)

    def ingest_batch(self, batch: EdgeBatch | Sequence[StreamEdge]) -> int:
        """Ingest one columnar block of stream elements.

        The block is routed in one vectorized pass and applied to every
        partition at once by the one apply kernel, straight into the
        compiled plan's arena
        (:meth:`~repro.queries.plan.PlanServingMixin._ingest_routed`): no grouping
        sort and no per-partition call.  Every cell sees its updates in
        arrival order, so the counters are bit-identical to per-edge
        :meth:`update` calls.

        Returns the number of elements ingested.  A batch carrying a negative
        or non-finite frequency raises ``ValueError`` before any counter
        moves.
        """
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch.from_edges(list(batch))
        require_valid_frequencies(batch.frequencies)
        if len(batch) == 0:
            return 0
        partitions = self._ingest_routed(batch)
        self._elements_processed += len(batch)
        self._outlier_elements += int(np.count_nonzero(partitions == OUTLIER_PARTITION))
        return len(batch)

    def process(
        self,
        stream: GraphStream | Iterable[StreamEdge],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> int:
        """Ingest an entire stream using vectorized batched updates.

        Semantically identical to calling :meth:`update` per element — the
        counters come out bit-identical — but hashing, routing and counter
        increments all run as array kernels per block of ``batch_size``
        elements.  Returns the number of elements processed.
        """
        processed = 0
        for batch in iter_edge_batches(stream, batch_size):
            processed += self.ingest_batch(batch)
        return processed

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query_edge(self, edge: EdgeKey) -> float:
        """Estimate the aggregate frequency of a directed edge (Section 5).

        Served through the compiled plan (and hot-edge cache); bit-identical
        to the routed scalar lookup.
        """
        return float(self._planned_estimates([edge])[0])

    def query_edges(self, edges: Sequence[EdgeKey]) -> List[float]:
        """Estimate many edges at once, through the compiled query plan.

        One hash pass, one route, one fused gather across every involved
        partition — element-wise bit-identical to :meth:`query_edges_direct`.
        """
        return self._planned_estimates(edges).tolist()

    def query_edges_direct(self, edges: Sequence[EdgeKey]) -> List[float]:
        """The pre-plan routed path: group per partition, ``estimate_batch``
        per group.  Kept as the plan's parity oracle and benchmark baseline."""
        if len(edges) == 0:
            return []
        routed = self._batch_router.route_edges(edges)
        estimates = np.empty(len(edges), dtype=np.float64)
        for group in routed.groups:
            estimates[group.positions] = self._sketch_for(group.partition).estimate_batch(
                group.keys
            )
        return estimates.tolist()

    def query_subgraph(self, query: SubgraphQuery) -> float:
        """Estimate an aggregate subgraph query by per-edge decomposition.

        The constituent edges are estimated through the vectorized
        :meth:`query_edges` path (one route + one ``estimate_batch`` per
        involved partition) rather than per-edge scalar lookups.
        """
        return query.combine(self.query_edges(query.edges))

    def confidence(self, edge: EdgeKey) -> ConfidenceInterval:
        """Per-partition Equation-1 confidence interval for an edge estimate.

        Different queries get different intervals depending on the partition
        that answers them (Section 5).
        """
        source, _target = edge
        sketch = self._sketch_for(self.router.partition_of(source))
        return countmin_confidence(sketch, sketch.estimate(tuple(edge)))

    def confidence_batch(self, edges: Sequence[EdgeKey]) -> List[ConfidenceInterval]:
        """Equation-1 confidence intervals for many edges at once.

        Element-wise identical to calling :meth:`confidence` per edge; rides
        the compiled plan with the per-partition bound/failure constants
        gathered by partition slot.
        """
        return self.confidence_batch_with_partitions(edges)[0]

    def confidence_batch_with_partitions(
        self, edges: Sequence[EdgeKey]
    ) -> "tuple[List[ConfidenceInterval], List[int]]":
        """Intervals plus the partition id that answered each edge.

        One plan pass serves estimates, constants and provenance; the facade
        uses the partition column without re-routing the keys.  Bit-identical
        to :meth:`confidence_batch_direct`.
        """
        if len(edges) == 0:
            return [], []
        estimates, bounds, failures, partitions = self._planned_confidence(edges)
        return intervals_from_arrays(estimates, bounds, failures), partitions.tolist()

    def confidence_batch_direct(
        self, edges: Sequence[EdgeKey]
    ) -> "tuple[List[ConfidenceInterval], List[int]]":
        """The pre-plan routed confidence path (parity oracle)."""
        return routed_confidence_batch(self._batch_router, edges, self._sketch_for)

    def is_outlier_query(self, edge: EdgeKey) -> bool:
        """Whether the edge query would be answered by the outlier sketch."""
        return self.router.is_outlier(edge[0])

    # ------------------------------------------------------------------ #
    # Snapshot protocol
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Complete estimator state: partitioning, counters and provenance.

        The snapshot is self-contained — :meth:`from_state` revives a sketch
        that routes, estimates and merges bit-identically — and includes the
        outlier sketch plus the ingest counters.
        """
        return {
            "config": self.config,
            "tree": self.tree,
            "router": self.router,
            "stats": self.stats,
            "workload_weights": self.workload_weights,
            "partitions": [sketch.state_dict() for sketch in self._partitions],
            "outlier": self._outlier.state_dict(),
            "elements_processed": self._elements_processed,
            "outlier_elements": self._outlier_elements,
        }

    @classmethod
    def from_state(cls, state: dict) -> "GSketch":
        """Revive a sketch from a :meth:`state_dict` snapshot."""
        sketch = cls(
            config=state["config"],
            tree=state["tree"],
            router=state["router"],
            stats=state["stats"],
            workload_weights=state.get("workload_weights"),
        )
        partition_states = state["partitions"]
        if len(partition_states) != len(sketch._partitions):
            raise ValueError(
                f"snapshot has {len(partition_states)} partitions, tree expects "
                f"{len(sketch._partitions)}"
            )
        for partition, partition_state in zip(sketch._partitions, partition_states):
            partition.load_state(partition_state)
        sketch._outlier.load_state(state["outlier"])
        sketch._elements_processed = int(state["elements_processed"])
        sketch._outlier_elements = int(state["outlier_elements"])
        return sketch

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _sketch_for(self, partition: int) -> CountMinSketch:
        if partition == OUTLIER_PARTITION:
            return self._outlier
        return self._partitions[partition]

    def _plan_layout(self):
        """Arena layout: localized sketches in leaf order, outlier last."""
        return [*self._partitions, self._outlier], self.router

    @property
    def num_partitions(self) -> int:
        """Number of localized (non-outlier) partitions."""
        return len(self._partitions)

    @property
    def outlier_sketch(self) -> CountMinSketch:
        """The sketch serving vertices absent from the data sample."""
        return self._outlier

    @property
    def partitions(self) -> Sequence[CountMinSketch]:
        """The localized sketches, in leaf-index order."""
        return tuple(self._partitions)

    @property
    def elements_processed(self) -> int:
        """Number of stream elements ingested so far."""
        return self._elements_processed

    @property
    def outlier_elements(self) -> int:
        """Number of ingested elements routed to the outlier sketch."""
        return self._outlier_elements

    @property
    def total_frequency(self) -> float:
        """Total ingested frequency mass across all partitions."""
        return sum(s.total_count for s in self._partitions) + self._outlier.total_count

    @property
    def memory_cells(self) -> int:
        """Allocated counter cells across all partitions and the outlier sketch."""
        return sum(s.memory_cells for s in self._partitions) + self._outlier.memory_cells

    def partition_summaries(self) -> List[PartitionSummary]:
        """Per-partition summaries (the outlier sketch is index -1)."""
        summaries = [
            PartitionSummary(
                index=leaf.index,
                vertex_count=len(leaf.vertices),
                width=sketch.width,
                depth=sketch.depth,
                total_frequency=sketch.total_count,
                leaf_reason=leaf.leaf_reason,
            )
            for leaf, sketch in zip(self.tree.leaves, self._partitions)
        ]
        summaries.append(
            PartitionSummary(
                index=OUTLIER_PARTITION,
                vertex_count=0,
                width=self._outlier.width,
                depth=self._outlier.depth,
                total_frequency=self._outlier.total_count,
                leaf_reason="outlier",
            )
        )
        return summaries

    def telemetry_snapshot(self) -> dict:
        """Health telemetry: per-table saturation, outlier share, plan state.

        Computed lazily (``count_nonzero`` over every counter table) — call
        it at scrape/snapshot time, not per batch.
        """
        elements = self._elements_processed
        tables = [
            {"partition": index, **sketch_health(sketch)}
            for index, sketch in enumerate(self._partitions)
        ]
        tables.append(
            {"partition": OUTLIER_PARTITION, **sketch_health(self._outlier)}
        )
        return {
            "backend": "gsketch",
            "elements_processed": elements,
            "outlier_elements": self._outlier_elements,
            "outlier_share": self._outlier_elements / elements if elements else 0.0,
            "num_partitions": self.num_partitions,
            "memory_cells": self.memory_cells,
            "total_frequency": float(self.total_frequency),
            "tables": tables,
            **self._plan_telemetry(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GSketch(partitions={self.num_partitions}, cells={self.memory_cells}, "
            f"N={self.total_frequency:.0f})"
        )
