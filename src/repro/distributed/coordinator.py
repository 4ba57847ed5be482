"""The sharded ingestion & query coordinator.

:class:`ShardedGSketch` is the scale-out form of
:class:`~repro.core.gsketch.GSketch`: the same offline partitioning (tree,
router, outlier reserve) is spread over :class:`~repro.distributed.shard.SketchShard`
units, each owning the localized sketches a
:class:`~repro.distributed.plan.ShardPlan` assigned to it.  Shards are the
unit of checkpointing (one incremental checkpoint section each), merging and
provenance.  All shard sketches sit in one engine-wide arena, laid out in
partition order with the outlier last — the same layout
:class:`~repro.core.gsketch.GSketch` uses — so ingest and queries run the
same compiled-plan code as the single sketch: one route, one hash pass and
one scatter per batch (:meth:`~repro.queries.plan.PlanServingMixin._ingest_routed`).

Because shard sketches are constructed by the same factories — identical
widths, depths and hash seeds — and every cell sees its updates in arrival
order, a ``ShardedGSketch`` produces **bit-identical counters and
estimates** to a single :class:`~repro.core.gsketch.GSketch` over the same
stream, for any shard count.  The parity tests in
``tests/test_distributed.py`` enforce exactly that.
"""

from __future__ import annotations

import pickle
import uuid
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.batch_router import BatchRouter
from repro.core.config import GSketchConfig
from repro.core.estimator import ConfidenceInterval, intervals_from_arrays
from repro.core.gsketch import (
    DEFAULT_BATCH_SIZE,
    GSketch,
    iter_edge_batches,
    make_outlier_sketch,
    make_partition_sketch,
    routed_confidence_batch,
)
from repro.core.partition_tree import PartitionTree
from repro.core.partitioner import build_partition_tree
from repro.core.router import OUTLIER_PARTITION, VertexRouter
from repro.distributed.plan import ShardPlan
from repro.distributed.shard import SketchShard
from repro.graph.batch import EdgeBatch, require_valid_frequencies
from repro.graph.edge import EdgeKey, StreamEdge
from repro.graph.statistics import VertexStatistics
from repro.graph.stream import GraphStream
from repro.observability.health import sketch_health
from repro.queries.plan import PlanServingMixin
from repro.queries.subgraph_query import SubgraphQuery
from repro.sketches.countmin import CountMinSketch


class ShardedGSketch(PlanServingMixin):
    """A gSketch served by N frequency-balanced shards.

    Instances are normally created through :meth:`build` (mirroring
    :meth:`~repro.core.gsketch.GSketch.build`) or :meth:`from_gsketch`
    (re-sharding an existing, possibly populated, single sketch).

    Args:
        config: the space budget and termination constants.
        tree: the offline partitioning tree.
        router: the vertex → partition hash structure ``H``.
        stats: sample statistics (kept for plan weights and re-aggregation).
        num_shards: number of shards when ``plan`` is not given.
        plan: an explicit shard plan (overrides ``num_shards``).
    """

    def __init__(
        self,
        config: GSketchConfig,
        tree: PartitionTree,
        router: VertexRouter,
        stats: VertexStatistics,
        num_shards: int = 2,
        plan: Optional[ShardPlan] = None,
    ) -> None:
        self.config = config
        self.tree = tree
        self.router = router
        self.stats = stats
        self.plan = plan or ShardPlan.from_tree(tree, num_shards, stats=stats)
        self._batch_router = BatchRouter(router)
        self._shard_lookup = self.plan.lookup_table()

        leaves_by_index = {leaf.index: leaf for leaf in tree.leaves}
        shard_sketches: List[Dict[int, CountMinSketch]] = [
            {} for _ in range(self.plan.num_shards)
        ]
        for partition, shard_index in self.plan.assignments.items():
            if partition == OUTLIER_PARTITION:
                sketch = make_outlier_sketch(config, tree.surplus_width)
            else:
                sketch = make_partition_sketch(config, leaves_by_index[partition])
            shard_sketches[shard_index][partition] = sketch
        self._shards: List[SketchShard] = [
            SketchShard(index, sketches) for index, sketches in enumerate(shard_sketches)
        ]

        self._elements_processed = 0
        self._outlier_elements = 0
        # Per-shard dirty generations for incremental checkpoints: bumped on
        # every mutation that can change a shard's counters.  The epoch tag
        # distinguishes generation counters of different engine instances —
        # a revived engine restarts at generation 0, so cross-instance
        # generation equality must never read as "section unchanged".
        self._shard_generations = [0] * self.plan.num_shards
        self._checkpoint_epoch = uuid.uuid4().hex
        self._init_query_plane()

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        sample: GraphStream,
        config: GSketchConfig,
        num_shards: int = 2,
        stream_size_hint: Optional[int] = None,
    ) -> "ShardedGSketch":
        """Partition with a data sample and spread the leaves over shards.

        The offline phase is exactly :meth:`GSketch.build`; only the physical
        placement of the resulting sketches differs.
        """
        stats = GSketch._sample_statistics(sample, stream_size_hint)
        tree = build_partition_tree(stats, config, workload_weights=None)
        router = VertexRouter.from_tree(tree)
        return cls(config=config, tree=tree, router=router, stats=stats, num_shards=num_shards)

    @classmethod
    def from_gsketch(cls, gsketch: GSketch, num_shards: int = 2) -> "ShardedGSketch":
        """Re-shard an existing (possibly populated) single-process sketch.

        Counter state is copied, so the sharded engine picks up serving
        exactly where the single sketch left off.
        """
        sharded = cls(
            config=gsketch.config,
            tree=gsketch.tree,
            router=gsketch.router,
            stats=gsketch.stats,
            num_shards=num_shards,
        )
        for partition, sketch in enumerate(gsketch.partitions):
            sharded._sketch_for_partition(partition).load_state(sketch.state_dict())
        sharded._sketch_for_partition(OUTLIER_PARTITION).load_state(
            gsketch.outlier_sketch.state_dict()
        )
        sharded._elements_processed = gsketch.elements_processed
        sharded._outlier_elements = gsketch.outlier_elements
        return sharded

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        stream: GraphStream | Iterable[StreamEdge],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> int:
        """Ingest a whole stream in columnar blocks; returns elements ingested.

        Materialized :class:`~repro.graph.stream.GraphStream` inputs reuse the
        stream's cached columnar form; arbitrary iterables (including
        unbounded generators) are chunked lazily without materializing.
        """
        processed = 0
        for batch in iter_edge_batches(stream, batch_size):
            processed += self.ingest_batch(batch)
        return processed

    def ingest_batch(self, batch: EdgeBatch | Sequence[StreamEdge]) -> int:
        """Route one block and apply it to every shard's sketches at once.

        Runs the same arena ingest as :meth:`GSketch.ingest_batch`
        (:meth:`~repro.queries.plan.PlanServingMixin._ingest_routed`), then marks
        the shards that received elements dirty for the next incremental
        checkpoint.  A batch carrying a negative or non-finite frequency
        raises ``ValueError`` before any counter moves.
        """
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch.from_edges(list(batch))
        require_valid_frequencies(batch.frequencies)
        if len(batch) == 0:
            return 0
        partitions = self._ingest_routed(batch)
        received = np.bincount(self._shard_lookup[partitions], minlength=self.num_shards)
        for shard_index in np.flatnonzero(received).tolist():
            self._shard_generations[shard_index] += 1
        self._elements_processed += len(batch)
        self._outlier_elements += int(np.count_nonzero(partitions == OUTLIER_PARTITION))
        return len(batch)

    def update(self, source: Hashable, target: Hashable, frequency: float = 1.0) -> None:
        """Single-element convenience path (routes a one-element batch)."""
        self.ingest_batch([StreamEdge(source, target, 0.0, frequency)])

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query_edge(self, edge: EdgeKey) -> float:
        """Estimate the aggregate frequency of a directed edge."""
        return self.query_edges([edge])[0]

    def query_edges(self, edges: Sequence[EdgeKey]) -> List[float]:
        """Estimate many edges at once, through the compiled query plan.

        The arena gather serves every partition of every shard in one pass.
        Element-wise bit-identical to :meth:`query_edges_direct`.
        """
        if len(edges) == 0:
            return []
        return self._planned_estimates(edges).tolist()

    def query_edges_direct(self, edges: Sequence[EdgeKey]) -> List[float]:
        """The pre-plan path: route, then ``estimate_batch`` per shard group
        (parity oracle and benchmark baseline)."""
        if len(edges) == 0:
            return []
        routed = self._batch_router.route_edges(edges)
        estimates = np.empty(len(edges), dtype=np.float64)
        for group in routed.groups:
            shard = self._shards[int(self._shard_lookup[group.partition])]
            estimates[group.positions] = shard.estimate_group(group)
        return estimates.tolist()

    def query_subgraph(self, query: SubgraphQuery) -> float:
        """Estimate an aggregate subgraph query by per-edge decomposition.

        Constituent edges ride the vectorized shard query path
        (:meth:`query_edges`), so the answer is bit-identical to the same
        query served by a single :class:`~repro.core.gsketch.GSketch`.
        """
        return query.combine(self.query_edges(query.edges))

    def confidence(self, edge: EdgeKey) -> ConfidenceInterval:
        """Per-partition Equation-1 confidence interval for an edge estimate."""
        return self.confidence_batch([edge])[0]

    def confidence_batch(self, edges: Sequence[EdgeKey]) -> List[ConfidenceInterval]:
        """Equation-1 confidence intervals for many edges at once.

        Rides the compiled plan (one pass for estimates, constants and
        provenance); :meth:`confidence_batch_direct` keeps the pre-plan
        routed path, and the two are bit-identical by construction.
        """
        return self.confidence_batch_with_partitions(edges)[0]

    def confidence_batch_with_partitions(
        self, edges: Sequence[EdgeKey]
    ) -> "tuple[List[ConfidenceInterval], List[int]]":
        """Intervals plus the partition id that answered each edge."""
        if len(edges) == 0:
            return [], []
        estimates, bounds, failures, partitions = self._planned_confidence(edges)
        return intervals_from_arrays(estimates, bounds, failures), partitions.tolist()

    def confidence_batch_direct(
        self, edges: Sequence[EdgeKey]
    ) -> "tuple[List[ConfidenceInterval], List[int]]":
        """The pre-plan routed confidence path (parity oracle).

        Shares :func:`~repro.core.gsketch.routed_confidence_batch` with
        :meth:`GSketch.confidence_batch_direct` — only the partition → sketch
        resolution differs (shard-resident sketches).
        """
        return routed_confidence_batch(
            self._batch_router, edges, self._sketch_for_partition
        )

    def _sketch_for_partition(self, partition: int) -> CountMinSketch:
        """Resolve a partition's physical sketch from its owning shard."""
        return self._shards[int(self._shard_lookup[partition])].sketch_for(partition)

    def _plan_layout(self):
        """Arena layout: every localized sketch in partition order, outlier
        last, resolved from the owning shards — :class:`GSketch`'s order, so
        one engine-wide arena serves every shard."""
        sketches = [
            self._sketch_for_partition(partition)
            for partition in range(self.plan.num_partitions)
        ]
        sketches.append(self._sketch_for_partition(OUTLIER_PARTITION))
        return sketches, self.router

    def is_outlier_query(self, edge: EdgeKey) -> bool:
        """Whether the edge query would be answered by the outlier sketch."""
        return self.router.is_outlier(edge[0])

    # ------------------------------------------------------------------ #
    # Snapshot protocol
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Complete engine state: partitioning, shard plan and shard counters."""
        return {
            "config": self.config,
            "tree": self.tree,
            "router": self.router,
            "stats": self.stats,
            "plan": self.plan,
            "shards": [shard.state_dict() for shard in self._shards],
            "elements_processed": self._elements_processed,
            "outlier_elements": self._outlier_elements,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ShardedGSketch":
        """Revive an engine from a :meth:`state_dict` snapshot."""
        engine = cls(
            config=state["config"],
            tree=state["tree"],
            router=state["router"],
            stats=state["stats"],
            plan=state["plan"],
        )
        shard_states = state["shards"]
        if len(shard_states) != len(engine._shards):
            raise ValueError(
                f"snapshot has {len(shard_states)} shard states, plan expects "
                f"{len(engine._shards)}"
            )
        for shard, shard_state in zip(engine._shards, shard_states):
            shard.load_state_from(SketchShard.from_state(shard_state))
        engine._elements_processed = int(state["elements_processed"])
        engine._outlier_elements = int(state["outlier_elements"])
        return engine

    # ------------------------------------------------------------------ #
    # Checkpointing / re-aggregation
    # ------------------------------------------------------------------ #
    def shard_states(self) -> List[bytes]:
        """Serialized checkpoints of every shard, in shard order."""
        return [shard.serialize() for shard in self._shards]

    def load_shard_states(self, states: Sequence[bytes]) -> None:
        """Restore shard checkpoints produced by :meth:`shard_states`.

        Element counters are recovered from the revived sketches (every
        ingested element is exactly one update in exactly one sketch).  The
        counters are copied into the live sketches, so the arena keeps
        serving and receiving ingest.
        """
        if len(states) != len(self._shards):
            raise ValueError(
                f"expected {len(self._shards)} shard states, got {len(states)}"
            )
        for shard, payload in zip(self._shards, states):
            shard.load_state_from(SketchShard.deserialize(payload))
        self._elements_processed = 0
        self._outlier_elements = 0
        for shard in self._shards:
            for partition, sketch in shard.sketches():
                self._elements_processed += sketch.update_count
                if partition == OUTLIER_PARTITION:
                    self._outlier_elements = sketch.update_count
        self._mark_all_shards_dirty()
        self._bump_generation()

    def merge(self, other: "ShardedGSketch") -> None:
        """Fold another engine's counters into this one, shard by shard.

        Both engines must descend from the same partitioning (same tree,
        plan and seeds).  Afterwards this engine equals one that ingested
        both input streams concatenated.
        """
        if self.plan.assignments != other.plan.assignments:
            raise ValueError("cannot merge engines built from different shard plans")
        for mine, theirs in zip(self._shards, other._shards):
            mine.merge(theirs)
        self._elements_processed += other._elements_processed
        self._outlier_elements += other._outlier_elements
        self._mark_all_shards_dirty()
        self._bump_generation()

    def to_gsketch(self) -> GSketch:
        """Re-aggregate the shards into a plain single-process ``GSketch``.

        The result is a deep copy: serving it does not alias shard state.
        """
        gsketch = GSketch(
            config=self.config, tree=self.tree, router=self.router, stats=self.stats
        )
        for shard in self._shards:
            for partition, sketch in shard.sketches():
                state = sketch.state_dict()
                if partition == OUTLIER_PARTITION:
                    gsketch.outlier_sketch.load_state(state)
                else:
                    gsketch.partitions[partition].load_state(state)
        gsketch._elements_processed = self._elements_processed
        gsketch._outlier_elements = self._outlier_elements
        return gsketch

    # ------------------------------------------------------------------ #
    # Incremental checkpoint sections
    # ------------------------------------------------------------------ #
    def _mark_all_shards_dirty(self) -> None:
        self._shard_generations = [
            generation + 1 for generation in self._shard_generations
        ]

    @property
    def checkpoint_epoch(self) -> str:
        """Instance tag scoping the generation counters in checkpoint manifests."""
        return self._checkpoint_epoch

    def checkpoint_generations(self) -> Dict[str, int]:
        """Current dirty generation of every checkpoint section.

        Sections: ``state`` (partitioning, plan, scalar counters — cheap,
        rewritten whenever anything changed) and one ``shard-N`` per shard
        (the counter tables — rewritten only when that shard ingested,
        merged or restored since the manifest's generation).
        """
        sections = {"state": int(self._plan_generation)}
        for shard_index, generation in enumerate(self._shard_generations):
            sections[f"shard-{shard_index}"] = int(generation)
        return sections

    def checkpoint_section(self, name: str) -> bytes:
        """Serialize one checkpoint section named by :meth:`checkpoint_generations`."""
        if name == "state":
            meta = {
                "config": self.config,
                "tree": self.tree,
                "router": self.router,
                "stats": self.stats,
                "plan": self.plan,
                "elements_processed": self._elements_processed,
                "outlier_elements": self._outlier_elements,
            }
            return pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        if name.startswith("shard-"):
            return self._shards[int(name[len("shard-"):])].serialize()
        raise KeyError(f"unknown checkpoint section {name!r}")

    @classmethod
    def from_checkpoint_sections(cls, sections: Mapping[str, bytes]) -> "ShardedGSketch":
        """Revive an engine from verified checkpoint section payloads."""
        meta = pickle.loads(sections["state"])
        engine = cls(
            config=meta["config"],
            tree=meta["tree"],
            router=meta["router"],
            stats=meta["stats"],
            plan=meta["plan"],
        )
        for shard in engine._shards:
            payload = sections.get(f"shard-{shard.index}")
            if payload is None:
                raise ValueError(f"checkpoint is missing section shard-{shard.index}")
            shard.load_state_from(SketchShard.deserialize(payload))
        engine._elements_processed = int(meta["elements_processed"])
        engine._outlier_elements = int(meta["outlier_elements"])
        return engine

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> Sequence[SketchShard]:
        """The shards, in shard order."""
        return tuple(self._shards)

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def num_partitions(self) -> int:
        """Number of localized (non-outlier) partitions across all shards."""
        return self.plan.num_partitions

    @property
    def elements_processed(self) -> int:
        return self._elements_processed

    @property
    def outlier_elements(self) -> int:
        return self._outlier_elements

    @property
    def total_frequency(self) -> float:
        """Total ingested frequency mass across all shards."""
        return float(sum(shard.total_count for shard in self._shards))

    @property
    def memory_cells(self) -> int:
        """Allocated counter cells across all shards."""
        return sum(shard.memory_cells for shard in self._shards)

    def telemetry_snapshot(self) -> dict:
        """Health telemetry: per-partition saturation across the shards.

        Like the other backends', this is a scrape-time (not per-batch)
        surface.
        """
        elements = self._elements_processed
        tables = []
        for partition in range(self.plan.num_partitions):
            shard_index = int(self._shard_lookup[partition])
            tables.append(
                {
                    "partition": partition,
                    "shard": shard_index,
                    **sketch_health(self._sketch_for_partition(partition)),
                }
            )
        tables.append(
            {
                "partition": OUTLIER_PARTITION,
                "shard": int(self._shard_lookup[OUTLIER_PARTITION]),
                **sketch_health(self._sketch_for_partition(OUTLIER_PARTITION)),
            }
        )
        return {
            "backend": "sharded",
            "elements_processed": elements,
            "outlier_elements": self._outlier_elements,
            "outlier_share": self._outlier_elements / elements if elements else 0.0,
            "num_partitions": self.num_partitions,
            "num_shards": self.num_shards,
            "memory_cells": self.memory_cells,
            "total_frequency": float(self.total_frequency),
            "tables": tables,
            **self._plan_telemetry(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedGSketch(shards={self.num_shards}, "
            f"partitions={self.num_partitions}, N={self._elements_processed})"
        )
