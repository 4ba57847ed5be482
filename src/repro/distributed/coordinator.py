"""The sharded ingestion & query coordinator.

:class:`ShardedGSketch` is the scale-out form of
:class:`~repro.core.gsketch.GSketch`: the same offline partitioning (tree,
router, outlier reserve) drives a fleet of :class:`~repro.distributed.shard.SketchShard`
workers, each owning the localized sketches a
:class:`~repro.distributed.plan.ShardPlan` assigned to it.  The coordinator

1. columnarizes the incoming stream into :class:`~repro.graph.batch.EdgeBatch`
   blocks,
2. hashes + routes + groups each block in one vectorized pass
   (:class:`~repro.core.batch_router.BatchRouter`),
3. scatters the per-partition groups to shard workers through a pluggable
   :class:`~repro.distributed.executor.ShardExecutor` (in-thread, or
   per-shard worker processes over shared-memory arenas), and
4. serves queries from the shard-resident sketches, draining in-flight
   batches first when the executor runs out-of-process.

Because shard sketches are constructed by the same factories — identical
widths, depths and hash seeds — and intra-partition arrival order is
preserved end to end, a ``ShardedGSketch`` produces **bit-identical counters
and estimates** to a single :class:`~repro.core.gsketch.GSketch` over the
same stream, for any shard count and any executor.  The parity tests in
``tests/test_distributed.py`` enforce exactly that.
"""

from __future__ import annotations

import math
import pickle
import uuid
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import GSketchConfig
from repro.core.errors import degraded_union_bound
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
from repro.core.batch_router import BatchRouter, PartitionGroup
from repro.distributed.executor import (
    SequentialExecutor,
    ShardExecutionError,
    ShardExecutor,
)
from repro.distributed.plan import ShardPlan
from repro.distributed.recovery import RecoveryPolicy, ShardSupervisor, can_supervise
from repro.distributed.shard import SketchShard
from repro.graph.batch import EdgeBatch, require_valid_frequencies
from repro.graph.edge import EdgeKey, StreamEdge
from repro.graph.statistics import VertexStatistics
from repro.graph.stream import GraphStream
from repro.observability.health import sketch_health
from repro.observability.instruments import (
    INGEST_BATCHES,
    INGEST_ELEMENTS,
    INGEST_STAGE,
)
from repro.observability.tracing import span, stage_clock
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
        executor: execution backend; defaults to
            :class:`~repro.distributed.executor.SequentialExecutor`.
        plan: an explicit shard plan (overrides ``num_shards``).
        recovery: a :class:`~repro.distributed.recovery.RecoveryPolicy`
            enabling supervised recovery — journaled dispatch, bounded
            worker restarts with replay, and (opt-in) degraded serving.
            ``None`` (default) keeps the original fail-fast behaviour.
    """

    def __init__(
        self,
        config: GSketchConfig,
        tree: PartitionTree,
        router: VertexRouter,
        stats: VertexStatistics,
        num_shards: int = 2,
        executor: Optional[ShardExecutor] = None,
        plan: Optional[ShardPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.config = config
        self.tree = tree
        self.router = router
        self.stats = stats
        self.plan = plan or ShardPlan.from_tree(tree, num_shards, stats=stats)
        self._executor: ShardExecutor = executor or SequentialExecutor()
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
        self._started = False
        self._stale = False
        self._sync_failed = False
        self._recovery = recovery
        self._supervisor = (
            ShardSupervisor(recovery, self.plan.num_shards)
            if recovery is not None
            else None
        )
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
        executor: Optional[ShardExecutor] = None,
        stream_size_hint: Optional[int] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> "ShardedGSketch":
        """Partition with a data sample and spread the leaves over shards.

        The offline phase is exactly :meth:`GSketch.build`; only the physical
        placement of the resulting sketches differs.
        """
        stats = GSketch._sample_statistics(sample, stream_size_hint)
        tree = build_partition_tree(stats, config, workload_weights=None)
        router = VertexRouter.from_tree(tree)
        return cls(
            config=config,
            tree=tree,
            router=router,
            stats=stats,
            num_shards=num_shards,
            executor=executor,
            recovery=recovery,
        )

    @classmethod
    def from_gsketch(
        cls,
        gsketch: GSketch,
        num_shards: int = 2,
        executor: Optional[ShardExecutor] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> "ShardedGSketch":
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
            executor=executor,
            recovery=recovery,
        )
        for partition, sketch in enumerate(gsketch.partitions):
            shard = sharded._shards[sharded.plan.shard_of(partition)]
            shard.sketch_for(partition).load_state(sketch.state_dict())
        outlier_shard = sharded._shards[sharded.plan.shard_of(OUTLIER_PARTITION)]
        outlier_shard.sketch_for(OUTLIER_PARTITION).load_state(
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
        self._ensure_started()
        processed = 0
        for batch in iter_edge_batches(stream, batch_size):
            processed += self.ingest_batch(batch)
        return processed

    def ingest_batch(self, batch: EdgeBatch | Sequence[StreamEdge]) -> int:
        """Route one block to its shards and apply it through the executor.

        Executors exposing ``apply_async`` (the shared-memory backend) are
        dispatched without waiting for the batch to be applied: the next call
        routes batch N+1 while workers still apply batch N (pipelining).  Any
        read of engine state — queries, snapshots, :meth:`flush` — drains the
        pipeline first via :meth:`~ShardExecutor.sync`, so observable state is
        always consistent.
        """
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch.from_edges(list(batch))
        require_valid_frequencies(batch.frequencies)
        self._ensure_started()
        clock = stage_clock("ingest", INGEST_STAGE)
        routed = self._batch_router.route(batch)
        if not routed.groups:
            return 0
        work: Dict[int, List[PartitionGroup]] = {}
        for group in routed.groups:
            shard_index = int(self._shard_lookup[group.partition])
            work.setdefault(shard_index, []).append(group)
        clock.lap("route")
        if self._supervisor is not None:
            dropped, dropped_outliers = self._dispatch_supervised(work)
            counted = routed.num_elements - dropped
            counted_outliers = routed.outlier_count - dropped_outliers
        else:
            dispatch = getattr(self._executor, "apply_async", None)
            try:
                if dispatch is not None:
                    dispatch(self._shards, work)
                else:
                    self._executor.apply(self._shards, work)
            except ShardExecutionError:
                # A worker died mid-batch: some shards may hold this batch
                # while others never saw it.  Poison reads (they would
                # silently serve inconsistent counters); a checkpoint
                # restore recovers.
                self._sync_failed = True
                raise
            counted = routed.num_elements
            counted_outliers = routed.outlier_count
        clock.lap("dispatch")
        dead = self._supervisor.dead_shards if self._supervisor is not None else ()
        for shard_index in work:
            if shard_index not in dead:
                self._shard_generations[shard_index] += 1
        self._elements_processed += counted
        self._outlier_elements += counted_outliers
        self._stale = True
        self._bump_generation()
        INGEST_BATCHES.inc()
        INGEST_ELEMENTS.inc(counted)
        if self._supervisor is not None and self._supervisor.needs_flush():
            # The journal bound forces a pipeline drain: once every retained
            # entry is settled the journal is cleared.
            self._synchronize()
        return counted

    def _dispatch_supervised(
        self, work: Dict[int, List[PartitionGroup]]
    ) -> "tuple[int, int]":
        """Dispatch under supervision: journal, recover on failure, degrade.

        Returns ``(dropped_elements, dropped_outlier_elements)`` — the part
        of the batch that never reached a shard because its shard is (or
        became) dead.  Everything else either applied directly or will apply
        through journal replay after a successful recovery, so the engine's
        element accounting stays truthful in both outcomes.
        """
        sup = self._supervisor
        executor = self._executor
        dropped = 0
        dropped_outliers = 0

        def drop(shard_index: int, groups: Sequence[PartitionGroup]) -> None:
            nonlocal dropped, dropped_outliers
            sup.record_dropped(shard_index, groups)
            for group in groups:
                dropped += len(group)
                if group.partition == OUTLIER_PARTITION:
                    dropped_outliers += len(group)

        live: Dict[int, Sequence[PartitionGroup]] = {}
        for shard_index, groups in work.items():
            if shard_index in sup.dead_shards:
                drop(shard_index, groups)
            else:
                live[shard_index] = groups
        if not live:
            return dropped, dropped_outliers
        seq = sup.journal.append(live) if can_supervise(executor) else None
        try:
            for shard_index in sorted(live):
                groups = live[shard_index]
                try:
                    self._dispatch_one(shard_index, groups, seq)
                except ShardExecutionError:
                    if sup.recover(executor, self._shards, shard_index):
                        # Recovery replayed every journaled batch the shard
                        # had not committed — including this one — so the
                        # dispatch must not be repeated.
                        continue
                    if not sup.policy.degraded_serving:
                        self._sync_failed = True
                        raise
                    sup.mark_dead(executor, shard_index)
                    for group in groups:
                        dropped += len(group)
                        if group.partition == OUTLIER_PARTITION:
                            dropped_outliers += len(group)
        finally:
            sup.after_dispatch(executor)
        return dropped, dropped_outliers

    def _dispatch_one(
        self, shard_index: int, groups: Sequence[PartitionGroup], seq: Optional[int]
    ) -> None:
        """Dispatch one shard's groups, crediting scalar totals exactly once.

        Pipelined executors are passed ``credit=False`` and credited here,
        with the supervisor told which sequence the credit covers — journal
        replay after a crash then knows not to credit the same batch twice.
        """
        dispatch = getattr(self._executor, "apply_async", None)
        if dispatch is not None:
            dispatch(self._shards, {shard_index: groups}, seq=seq, credit=False)
            self._shards[shard_index].credit_groups(groups)
            self._supervisor.note_credited(shard_index, seq)
        else:
            self._executor.apply(self._shards, {shard_index: groups})

    def update(self, source: Hashable, target: Hashable, frequency: float = 1.0) -> None:
        """Single-element convenience path (routes a one-element batch)."""
        self.ingest_batch([StreamEdge(source, target, 0.0, frequency)])

    def start(self) -> None:
        """Spawn executor workers eagerly (otherwise lazy on first ingest).

        Useful when worker startup cost (process forks, shared-memory
        arena allocation) should not be attributed to the first batch —
        e.g. in throughput measurements or latency-sensitive serving.
        """
        self._ensure_started()

    def _ensure_started(self) -> None:
        if not self._started:
            if (
                self._recovery is not None
                and self._recovery.ack_deadline_seconds is not None
                and hasattr(self._executor, "ack_deadline")
            ):
                setattr(self._executor, "ack_deadline", self._recovery.ack_deadline_seconds)
            self._executor.start(self._shards)
            self._started = True

    def _synchronize(self) -> None:
        """Drain in-flight batches so coordinator state is authoritative."""
        if self._sync_failed:
            raise RuntimeError(
                "engine state is incomplete: worker synchronization failed "
                "during close(); updates in flight at the failure are lost. "
                "Restore a checkpoint (load_shard_states / from_state) to "
                "resume serving from known-good state."
            )
        if not self._stale:
            return
        with span("ingest", "flush", INGEST_STAGE["flush"]):
            if self._supervisor is None:
                self._executor.sync(self._shards)
            else:
                self._sync_supervised()
        self._stale = False

    def _sync_supervised(self) -> None:
        """Drain in-flight batches, recovering (or degrading) on failure.

        Each retry only has the previously-failed shard left unsettled: the
        executor's ``sync`` keeps draining healthy shards even when one
        fails, so this loop terminates after at most one incident per shard.
        """
        sup = self._supervisor
        while True:
            try:
                self._executor.sync(self._shards)
                break
            except ShardExecutionError as error:
                failed = error.shard_index
                if sup.recover(self._executor, self._shards, failed):
                    continue
                if sup.policy.degraded_serving:
                    sup.mark_dead(self._executor, failed)
                    continue
                self._sync_failed = True
                raise
        sup.on_sync()

    def flush(self) -> None:
        """Drain in-flight batches; coordinator state is authoritative after.

        For the shared-memory executor this waits for outstanding
        acknowledgements (counters are shared views, so no state moves).
        Ingestion throughput measurements must include this, or pipelined
        batches still in flight go uncounted.
        """
        self._synchronize()

    def _reset_executor(self) -> None:
        """Make the coordinator-resident shard state authoritative again.

        Called after coordinator-side mutations (merge, checkpoint restore):
        out-of-process workers still hold the pre-mutation state, so they are
        shut down and respawned lazily from the current shards on the next
        ingest.  In-process executors restart cheaply (or not at all).
        """
        if self._started:
            self._executor.close()
            self._started = False
        self._stale = False
        self._sync_failed = False  # checkpoint restore replaces any lost state
        if self._supervisor is not None:
            self._supervisor.reset()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query_edge(self, edge: EdgeKey) -> float:
        """Estimate the aggregate frequency of a directed edge."""
        return self.query_edges([edge])[0]

    def query_edges(self, edges: Sequence[EdgeKey]) -> List[float]:
        """Estimate many edges at once, through the compiled query plan.

        The coordinator answers from its own attached view of the shard
        state — no worker round-trip: the pipeline is drained once
        (:meth:`~ShardExecutor.sync` via the plan's pre-query hook) and the
        arena gather serves every partition in one pass.  Element-wise
        bit-identical to :meth:`query_edges_direct`.
        """
        if len(edges) == 0:
            return []
        return self._planned_estimates(edges).tolist()

    def query_edges_direct(self, edges: Sequence[EdgeKey]) -> List[float]:
        """The pre-plan path: route, then ``estimate_batch`` per shard group
        (parity oracle and benchmark baseline)."""
        if len(edges) == 0:
            return []
        self._synchronize()
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
        """Intervals plus the partition id that answered each edge.

        Under degraded serving, queries answered by a dropped shard get
        widened intervals: the shard's lost frequency mass becomes upper
        slack (its counters may now *under*estimate by that much) and the
        failure probability is union-bounded with a second ``e^-d`` term
        (:func:`~repro.core.errors.degraded_union_bound`).
        """
        if len(edges) == 0:
            return [], []
        estimates, bounds, failures, partitions = self._planned_confidence(edges)
        slacks = None
        sup = self._supervisor
        if sup is not None and sup.dead_shards:
            shards_of = self._shard_lookup[partitions]
            slacks = np.zeros_like(estimates)
            failures = failures.copy()
            extra = math.exp(-self.config.depth)
            for dead in sup.dead_shards:
                mask = shards_of == dead
                if np.any(mask):
                    slacks[mask] = sup.lost_frequency(dead)
                    failures[mask] = degraded_union_bound(failures[mask], extra)
        intervals = intervals_from_arrays(estimates, bounds, failures, slacks)
        return intervals, partitions.tolist()

    def confidence_batch_direct(
        self, edges: Sequence[EdgeKey]
    ) -> "tuple[List[ConfidenceInterval], List[int]]":
        """The pre-plan routed confidence path (parity oracle).

        Shares :func:`~repro.core.gsketch.routed_confidence_batch` with
        :meth:`GSketch.confidence_batch_direct` — only the partition → sketch
        resolution differs (shard-resident sketches).
        """
        self._synchronize()
        return routed_confidence_batch(
            self._batch_router, edges, self._sketch_for_partition
        )

    def _sketch_for_partition(self, partition: int) -> CountMinSketch:
        """Resolve a partition's physical sketch from its owning shard."""
        return self._shards[int(self._shard_lookup[partition])].sketch_for(partition)

    def _plan_layout(self):
        """Arena layout: every localized sketch in partition order, outlier
        last, resolved from the owning shards.

        The plan **copies** the tables (never attaches): the coordinator's
        sketch tables may already be zero-copy views into a shared-memory
        ingest arena, re-bound whenever the executor starts or closes — so
        the read arena re-copies on each generation refresh instead.
        """
        sketches = [
            self._sketch_for_partition(partition)
            for partition in range(self.plan.num_partitions)
        ]
        sketches.append(self._sketch_for_partition(OUTLIER_PARTITION))
        return sketches, self.router, False

    def _before_plan_query(self) -> None:
        """Drain in-flight batches so the arena refresh sees final counters."""
        self._synchronize()

    def is_outlier_query(self, edge: EdgeKey) -> bool:
        """Whether the edge query would be answered by the outlier sketch."""
        return self.router.is_outlier(edge[0])

    # ------------------------------------------------------------------ #
    # Snapshot protocol
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Complete engine state: partitioning, shard plan and shard counters.

        Worker state is synchronized back to the coordinator first, so the
        snapshot is authoritative for any executor.
        """
        self._synchronize()
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
    def from_state(
        cls, state: dict, executor: Optional[ShardExecutor] = None
    ) -> "ShardedGSketch":
        """Revive an engine from a :meth:`state_dict` snapshot.

        The executor is not part of the snapshot (it is a process-local
        resource); pass one explicitly or get the sequential default.
        """
        engine = cls(
            config=state["config"],
            tree=state["tree"],
            router=state["router"],
            stats=state["stats"],
            executor=executor,
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
        self._synchronize()
        return [shard.serialize() for shard in self._shards]

    def load_shard_states(self, states: Sequence[bytes]) -> None:
        """Restore shard checkpoints produced by :meth:`shard_states`.

        Element counters are recovered from the revived sketches (every
        ingested element is exactly one update in exactly one sketch), and
        any out-of-process worker state is discarded in favour of the
        checkpoint.
        """
        if len(states) != len(self._shards):
            raise ValueError(
                f"expected {len(self._shards)} shard states, got {len(states)}"
            )
        self._reset_executor()
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
        self._synchronize()
        other._synchronize()
        for mine, theirs in zip(self._shards, other._shards):
            mine.merge(theirs)
        self._elements_processed += other._elements_processed
        self._outlier_elements += other._outlier_elements
        self._mark_all_shards_dirty()
        self._bump_generation()
        # Workers (if any) still hold the pre-merge state; respawn them from
        # the merged coordinator state on next use.
        self._reset_executor()

    def to_gsketch(self) -> GSketch:
        """Re-aggregate the shards into a plain single-process ``GSketch``.

        The result is a deep copy: serving it does not alias shard state.
        """
        self._synchronize()
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
        merged or restored since the manifest's generation).  Synchronizes
        first so the reported generations describe final counters.
        """
        self._synchronize()
        sections = {"state": int(self._plan_generation)}
        for shard_index, generation in enumerate(self._shard_generations):
            sections[f"shard-{shard_index}"] = int(generation)
        return sections

    def checkpoint_section(self, name: str) -> bytes:
        """Serialize one checkpoint section named by :meth:`checkpoint_generations`."""
        self._synchronize()
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
    def from_checkpoint_sections(
        cls,
        sections: Mapping[str, bytes],
        executor: Optional[ShardExecutor] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> "ShardedGSketch":
        """Revive an engine from verified checkpoint section payloads."""
        meta = pickle.loads(sections["state"])
        engine = cls(
            config=meta["config"],
            tree=meta["tree"],
            router=meta["router"],
            stats=meta["stats"],
            executor=executor,
            plan=meta["plan"],
            recovery=recovery,
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
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Synchronize worker state and release executor resources.

        If a worker died, the synchronization step raises
        :class:`~repro.distributed.executor.ShardExecutionError` — but the
        executor is still torn down (processes reaped, shared memory
        unlinked, sketches detached), so no resources leak, and a repeated
        :meth:`close` is a clean no-op.  After such a failure the engine is
        **poisoned**: reads that would need the lost worker state raise
        instead of silently serving partial counters; restore a checkpoint
        (:meth:`load_shard_states` / :meth:`from_state`) to recover.
        """
        if not self._started:
            return
        try:
            # An already-poisoned engine skips the sync: the failure was
            # surfaced when it happened, and close() should still release
            # resources quietly (reads keep raising until a restore).
            if not self._sync_failed:
                self._synchronize()
        except BaseException:
            if self._stale:
                self._sync_failed = True
            raise
        finally:
            self._executor.close()
            self._started = False

    def __enter__(self) -> "ShardedGSketch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> Sequence[SketchShard]:
        """The shard workers, in shard order."""
        return tuple(self._shards)

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def num_partitions(self) -> int:
        """Number of localized (non-outlier) partitions across all shards."""
        return self.plan.num_partitions

    @property
    def degraded(self) -> bool:
        """Whether any shard was dropped (degraded serving is active)."""
        return self._supervisor is not None and bool(self._supervisor.dead_shards)

    @property
    def dead_shards(self) -> "tuple[int, ...]":
        """Shards abandoned after retry exhaustion, in index order."""
        if self._supervisor is None:
            return ()
        return tuple(sorted(self._supervisor.dead_shards))

    @property
    def recovery_policy(self) -> Optional[RecoveryPolicy]:
        return self._recovery

    @property
    def supervisor(self) -> Optional[ShardSupervisor]:
        """The recovery driver (``None`` without a recovery policy)."""
        return self._supervisor

    @property
    def elements_processed(self) -> int:
        return self._elements_processed

    @property
    def outlier_elements(self) -> int:
        return self._outlier_elements

    @property
    def total_frequency(self) -> float:
        """Total ingested frequency mass across all shards."""
        self._synchronize()
        return float(sum(shard.total_count for shard in self._shards))

    @property
    def memory_cells(self) -> int:
        """Allocated counter cells across all shards."""
        return sum(shard.memory_cells for shard in self._shards)

    def telemetry_snapshot(self) -> dict:
        """Health telemetry: per-partition saturation across the shards.

        Drains the ingest pipeline first so the reported counters are final;
        like the other backends', this is a scrape-time (not per-batch)
        surface.
        """
        self._synchronize()
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
        snapshot = {
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
        if self._supervisor is not None:
            snapshot["recovery"] = self._supervisor.telemetry()
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedGSketch(shards={self.num_shards}, "
            f"partitions={self.num_partitions}, N={self._elements_processed})"
        )
