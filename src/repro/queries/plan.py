"""The read-optimized query plane: one sketch arena + one-gather estimation.

The serving workload — many small point-query batches per second — is
dominated by per-call overhead, not kernel time: a per-partition path pays,
per call, an ``EdgeBatch`` round-trip, a stable argsort, per-partition
``PartitionGroup`` construction, and one ``estimate_batch`` (itself a
per-row Python loop) *per partition touched*.

:class:`CompiledQueryPlan` removes all of that.  At compile time the counter
tables of every partition sketch **plus the outlier sketch** are laid out in
one contiguous ``(depth, Σwidths)`` arena
(:class:`~repro.sketches.arena.ArenaLayout`: the one hash family every
slot shares, plus per-slot widths and column offsets).  A batch of M edges
spanning any number of partitions is then answered by exactly

1. one vectorized key canonicalization
   (:func:`~repro.sketches.hashing.pair_keys_to_uint64`),
2. one vectorized key → partition route
   (:meth:`~repro.core.router.VertexRouter.route_batch`) plus one ``where``
   mapping partitions onto arena slots,
3. one vector multiply-shift pass over all ``depth × M`` (row, key) pairs
   (:meth:`~repro.sketches.arena.ArenaLayout.columns`),
4. one fancy-index gather from the flat arena and one ``min`` reduce —

with **no per-group Python loop and no per-partition ``estimate_batch``
calls**.  Because the arithmetic is the identical uint64 kernel sequence the
per-sketch path runs, plan answers are bit-identical to
``CountMinSketch.estimate_batch`` per element; the parity tests in
``tests/test_query_plan.py`` enforce that for every backend.

The arena is also where partitioned backends *write*: compiling attaches
every sketch to a zero-copy view of its slot
(:meth:`~repro.sketches.countmin.CountMinSketch.attach_table`), and
:meth:`CompiledQueryPlan.apply` scatters a routed batch with the one apply
kernel (:func:`~repro.sketches.arena.apply_batch`).  Freshness is
generation-based: every backend bumps an ingest generation counter on any
mutation, and :class:`PlanServingMixin` lazily refreshes the plan (the
per-slot confidence constants) and clears the :class:`HotEdgeCache` when the
generation moved.  Ingest never pays that refresh.
"""

from __future__ import annotations

import functools
import math
import time
from itertools import repeat
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.batch import EdgeBatch, label_column
from repro.graph.edge import EdgeKey
from repro.observability import metrics as _obs
from repro.observability.instruments import INGEST_BATCHES, INGEST_ELEMENTS, INGEST_STAGE
from repro.observability.tracing import span as _span
from repro.observability.tracing import stage_clock as _stage_clock
from repro.sketches import arena as _arena
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashing import key_to_uint64

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.core.estimator import ConfidenceInterval
    from repro.core.router import VertexRouter

# Telemetry handles (see README "Observability" for the name catalogue).
# Resolved once at import; every update is gated on the module enable flag,
# so the disabled hot path pays one flag check and no dictionary lookups.
_QUERY_STAGE_HISTOGRAMS = {
    stage: _obs.REGISTRY.histogram(
        "repro_query_stage_seconds",
        "Compiled-plan query stage latency (seconds)",
        {"stage": stage},
    )
    for stage in ("hash", "route", "gather")
}
_QUERY_SECONDS = _obs.REGISTRY.histogram(
    "repro_query_plan_seconds", "End-to-end plan-served query batch latency (seconds)"
)
_QUERY_BATCHES = _obs.REGISTRY.counter(
    "repro_query_batches_total", "Plan-served query batches answered"
)
_QUERY_EDGES = _obs.REGISTRY.counter(
    "repro_query_edges_total", "Edges answered through the compiled query plan"
)
_PLAN_COMPILES = _obs.REGISTRY.counter(
    "repro_plan_compile_total", "Query plans compiled from scratch"
)
_PLAN_REFRESHES = _obs.REGISTRY.counter(
    "repro_plan_refresh_total", "Stale query plans refreshed in place"
)

#: Mirrors :data:`repro.core.router.OUTLIER_PARTITION`.  Importing it here
#: would cycle (``repro.core.__init__`` → ``gsketch`` → this module); the
#: equality is pinned by ``tests/test_query_plan.py``.
OUTLIER_PARTITION = -1

#: Batches up to this size take the scalar all-or-nothing memo path (cheaper
#: than columnarizing a tiny batch).  Larger batches — the shape coalesced
#: server traffic arrives in — consult the memo per key instead
#: (:meth:`HotEdgeCache.lookup_partial`): cached keys are served from the
#: memo and only the misses are gathered from the arena, so hot-edge traffic
#: from many clients never bypasses the cache just because it was coalesced.
HOT_CACHE_MAX_BATCH = 8

#: Default number of memoized point estimates per estimator.
DEFAULT_CACHE_CAPACITY = 65_536

#: Bound on the process-wide memo of scalar edge canonicalizations that the
#: small-batch path runs before its hot-cache lookup.
EDGE_KEY_MEMO_SIZE = 8_192


@functools.lru_cache(maxsize=EDGE_KEY_MEMO_SIZE, typed=True)
def _memo_edge_uint64(source, target) -> int:
    return key_to_uint64((source, target))


def edge_uint64(source, target) -> int:
    """``key_to_uint64((source, target))``, memoized for scalar endpoints.

    Hot point queries repeat a small set of edges, and the recursive scalar
    canonicalization dominated the memo-served small-batch path.  The memo is
    typed, so ``1``, ``1.0`` and ``True`` keep separate entries.
    Tuple-valued endpoints bypass it: their items compare by value, so a
    nested ``-1`` and ``-1.0`` would share an entry although they
    canonicalize differently.
    """
    if isinstance(source, tuple) or isinstance(target, tuple):
        return key_to_uint64((source, target))
    return _memo_edge_uint64(source, target)


def demux_by_counts(values: Sequence[float], counts: Sequence[int]) -> List[List[float]]:
    """Split one flat gather's results back into per-request slices.

    The serving tier coalesces point queries from many clients into a single
    compiled-plan batch; this is the inverse — ``counts[i]`` consecutive
    values belong to request ``i``.  The slices are plain lists (they go
    straight onto the wire as JSON).
    """
    slices: List[List[float]] = []
    cursor = 0
    for count in counts:
        nxt = cursor + count
        chunk = values[cursor:nxt]
        slices.append(chunk.tolist() if isinstance(chunk, np.ndarray) else list(chunk))
        cursor = nxt
    if cursor != len(values):
        raise ValueError(f"counts sum to {cursor}, but {len(values)} values were given")
    return slices


class HotEdgeCache:
    """Generation-tagged memo of point estimates, keyed by canonical uint64.

    Repeated point queries for the same (hot) edges are the dominant serving
    pattern the paper's workload model implies — Zipf-skewed query sets hit a
    small set of edges over and over.  The cache maps the canonical uint64
    edge key to its most recent estimate and is invalidated wholesale whenever
    the owning estimator's ingest generation moves, so a hit is always
    bit-identical to recomputing through the plan.
    """

    __slots__ = (
        "capacity",
        "_entries",
        "_generation",
        "hits",
        "misses",
        "evictions",
        "invalidations",
    )

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[int, float] = {}
        self._generation = -1
        # Plain ints, always on: cheaper than registry probes in the per-query
        # path; snapshots mirror them into the registry (``telemetry()``).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def generation(self) -> int:
        """The ingest generation the cached estimates belong to."""
        return self._generation

    def _sync_generation(self, generation: int) -> Dict[int, float]:
        if generation != self._generation:
            if self._generation != -1:
                # The first sync merely adopts the owner's generation; every
                # later move means ingest/restore/merge made the memo stale.
                self.invalidations += 1
            self._entries = {}
            self._generation = generation
        return self._entries

    def lookup_many(self, generation: int, keys: Sequence[int]) -> Optional[List[float]]:
        """All-or-nothing lookup: the estimates for ``keys``, or ``None``.

        Partial hits return ``None`` — the vectorized plan path answers the
        whole batch at essentially the cost of answering the misses alone.
        Hit/miss counters tally lookup *batches*, matching the all-or-nothing
        contract.
        """
        entries = self._sync_generation(generation)
        values = []
        for key in keys:
            value = entries.get(key)
            if value is None:
                self.misses += 1
                return None
            values.append(value)
        self.hits += 1
        return values

    def lookup_partial(
        self, generation: int, keys: Sequence[int]
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Per-key lookup for large (coalesced) batches: hits served, misses marked.

        Returns ``(values, miss_mask)`` where ``values[i]`` holds the memoized
        estimate for every hit and ``miss_mask[i]`` is ``True`` where the key
        must still be gathered from the arena.  Returns ``(None, None)`` when
        the memo is empty for ``generation`` — the caller's untouched
        vectorized path costs nothing extra then.  Unlike
        :meth:`lookup_many`'s all-or-nothing batch contract, hits and misses
        are tallied *per key* here: a coalesced server batch routinely mixes
        hot and cold edges, and serving the hot ones from the memo while
        gathering only the misses is the whole point.
        """
        entries = self._sync_generation(generation)
        if not entries:
            return None, None
        # NaN marks a miss.  No estimate is NaN (ingest rejects non-finite
        # counts), and one that were would only be gathered again.
        values = np.fromiter(
            map(entries.get, keys, repeat(math.nan)), dtype=np.float64, count=len(keys)
        )
        miss = np.isnan(values)
        values[miss] = 0.0
        misses = int(np.count_nonzero(miss))
        self.hits += len(keys) - misses
        self.misses += misses
        return values, miss

    def store_many(
        self, generation: int, keys: Sequence[int], values: Sequence[float]
    ) -> None:
        """Memoize a batch of (key, estimate) pairs under ``generation``."""
        entries = self._sync_generation(generation)
        if len(entries) + len(keys) > self.capacity:
            # Wholesale eviction: the hot set re-establishes itself within a
            # few batches, and a clear keeps the memo O(1) with no bookkeeping.
            self.evictions += len(entries)
            entries.clear()
        for key, value in zip(keys, values):
            entries[key] = value

    def telemetry(self) -> Dict[str, int]:
        """Counter snapshot for ``telemetry_snapshot()`` surfaces."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "generation": self._generation,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class CompiledQueryPlan:
    """An arena-backed read and write path over a set of Count-Min sketches.

    Build instances through :meth:`compile`; slot ``i`` serves partition ``i``
    and, when a router is present, the last slot serves the outlier partition.
    """

    def __init__(
        self,
        *,
        arena: np.ndarray,
        layout: _arena.ArenaLayout,
        sketches: Sequence[CountMinSketch],
        router: Optional[VertexRouter],
        generation: int,
    ) -> None:
        self._arena = arena
        self._flat = arena.reshape(-1)
        self._layout = layout
        self._sketches = tuple(sketches)
        self._router = router
        self.generation = generation
        rows = np.arange(layout.depth, dtype=np.int64)
        self._row_base = (rows * layout.total_width)[:, None]
        self._widths = layout.widths.astype(np.float64)
        self._bounds = np.zeros(layout.num_slots, dtype=np.float64)
        self._failures = np.full(layout.num_slots, math.exp(-layout.depth))

    # ------------------------------------------------------------------ #
    # Compilation / refresh
    # ------------------------------------------------------------------ #
    @classmethod
    def compile(
        cls,
        sketches: Sequence[CountMinSketch],
        router: Optional[VertexRouter],
        generation: int = 0,
    ) -> "CompiledQueryPlan":
        """Lay the sketches out in one arena and attach them to it.

        Args:
            sketches: the physical sketches in slot order — for partitioned
                backends the localized sketches in partition order followed by
                the outlier sketch; a single sketch for the global baseline.
                Each adopts a zero-copy view of its slot as its live table,
                so every later write lands in the arena.
            router: the vertex → partition hash structure ``H``; ``None``
                routes every edge to slot 0 (single-sketch backends).
            generation: the owning estimator's ingest generation at compile
                time.
        """
        layout = _arena.ArenaLayout(sketches)
        arena = np.zeros((layout.depth, layout.total_width), dtype=np.float64)
        for slot, sketch in enumerate(sketches):
            start = int(layout.offsets[slot])
            sketch.attach_table(arena[:, start : start + sketch.width])
        plan = cls(
            arena=arena,
            layout=layout,
            sketches=sketches,
            router=router,
            generation=generation,
        )
        plan._refresh_constants()
        return plan

    def _refresh_constants(self) -> None:
        """Re-derive the per-slot Equation-1 bounds from the live sketches.

        One array expression over the slots' totals, with the operations of
        :func:`~repro.core.estimator.countmin_confidence` (``e * N / w``) in
        its order, so every slot stays bit-exact with that scalar source of
        truth; the failure probability ``e^-depth`` is shared by all slots
        and never moves.  ``tests/test_query_plan.py`` pins both.
        """
        sketches = self._sketches
        totals = np.fromiter(
            (sketch.total_count for sketch in sketches), dtype=np.float64, count=len(sketches)
        )
        np.multiply(totals, math.e, out=self._bounds)
        self._bounds /= self._widths

    def refresh(self, generation: int) -> None:
        """Bring the plan up to date with the sketches after a mutation.

        The sketches' tables are the arena, so only the confidence constants
        (which follow each sketch's ``total_count``) need re-deriving.
        """
        self._refresh_constants()
        self.generation = generation

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    @property
    def num_slots(self) -> int:
        """Number of arena slots (partitions plus outlier, or 1)."""
        return self._layout.num_slots

    @property
    def arena_cells(self) -> int:
        """Number of counter cells in the arena."""
        return self._arena.size

    def _slots_of(self, partitions: np.ndarray) -> np.ndarray:
        return np.where(partitions == OUTLIER_PARTITION, self.num_slots - 1, partitions)

    def route_sources(
        self, sources: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Arena slot per source vertex, plus the raw partition ids.

        Single-sketch plans (no router) route everything to slot 0 and report
        no partition column.
        """
        if self._router is None:
            return np.zeros(len(sources), dtype=np.int64), None
        partitions = self._router.route_batch(sources)
        return self._slots_of(partitions), partitions

    def estimate_keys(self, keys: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Point estimates for pre-canonicalized keys with known arena slots.

        One multiply-shift pass over all ``depth × M`` pairs, one flat gather,
        one ``min`` reduce — bit-identical per element to
        :meth:`~repro.sketches.countmin.CountMinSketch.estimate_batch` on the
        slot's own sketch.
        """
        if keys.size == 0:
            return np.zeros(0, dtype=np.float64)
        cells = self._layout.columns(keys, slots)
        cells += self._row_base
        return self._flat[cells].min(axis=0)

    def apply(self, keys: np.ndarray, partitions: np.ndarray, counts: np.ndarray) -> None:
        """Apply one routed, validated batch to the arena in one pass.

        The whole batch lands through one
        :func:`~repro.sketches.arena.apply_batch` call — no grouping sort
        and no per-partition loop.
        """
        slots = self._slots_of(partitions)
        _arena.apply_batch(self._arena, self._layout, self._sketches, keys, slots, counts)

    def confidence_constants(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-element additive bounds and failure probabilities, by slot."""
        return self._bounds[slots], self._failures[slots]

    def query_edges(self, edges: Sequence[EdgeKey]) -> np.ndarray:
        """Estimates for bare edge keys (hash + route + gather, no cache)."""
        if len(edges) == 0:
            return np.zeros(0, dtype=np.float64)
        clock = _stage_clock("query", _QUERY_STAGE_HISTOGRAMS)
        batch = EdgeBatch.from_edge_keys(edges)
        keys = batch.hashed_keys()
        clock.lap("hash")
        slots, _ = self.route_sources(batch.sources)
        clock.lap("route")
        estimates = self.estimate_keys(keys, slots)
        clock.lap("gather")
        return estimates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledQueryPlan(slots={self.num_slots}, cells={self.arena_cells}, "
            f"generation={self.generation})"
        )


class PlanServingMixin:
    """Plan-served point queries shared by every estimator backend.

    A backend mixes this in, calls :meth:`_init_query_plane` during
    construction, bumps :meth:`_bump_generation` on **every** state mutation
    (per-element update, batch ingest, merge, checkpoint restore), and
    implements :meth:`_plan_layout`; in return it gets :meth:`compile_plan`
    (lazy compile / generation-checked refresh), :meth:`_ingest_routed`
    (batch ingest into the plan's arena, for backends with a ``router``),
    plan-served :meth:`_planned_estimates` with the hot-edge cache in front,
    and :meth:`confidence_columns` producing estimates, Equation-1 constants
    and partition provenance from the same single routing pass.

    The backend's sketch objects must stay the same for its lifetime
    (restores copy counters in place), because the compiled plan holds them
    and they hold views of its arena.
    """

    _query_plan: Optional[CompiledQueryPlan]
    #: The vertex → partition structure of partitioned backends (read by
    #: :meth:`_ingest_routed`).
    router: Optional[VertexRouter]

    def _init_query_plane(self, cache_capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        self._query_plan = None
        self._plan_generation = 0
        self._hot_cache = HotEdgeCache(cache_capacity)

    def _bump_generation(self) -> None:
        """Mark any compiled plan and memoized estimates as stale."""
        self._plan_generation += 1

    @property
    def ingest_generation(self) -> int:
        """Monotonic counter of state mutations (plan/cache invalidation tag)."""
        return self._plan_generation

    # -- backend hook --------------------------------------------------- #
    def _plan_layout(self) -> Tuple[List[CountMinSketch], Optional[VertexRouter]]:
        """The sketches in slot order and the router."""
        raise NotImplementedError

    # -- telemetry ------------------------------------------------------ #
    def _plan_telemetry(self) -> Dict[str, object]:
        """Plan + hot-cache state shared by every ``telemetry_snapshot()``."""
        plan = self._query_plan
        return {
            "plan": {
                "compiled": plan is not None,
                "generation": self._plan_generation,
                "stale": plan is not None and plan.generation != self._plan_generation,
                "slots": plan.num_slots if plan is not None else 0,
                "arena_cells": plan.arena_cells if plan is not None else 0,
            },
            "hot_cache": self._hot_cache.telemetry(),
        }

    # -- plan lifecycle ------------------------------------------------- #
    def compile_plan(self) -> CompiledQueryPlan:
        """The current plan, compiling or refreshing it if ingestion moved on."""
        plan = self._query_plan
        if plan is None:
            with _span("query", "compile"):
                sketches, router = self._plan_layout()
                plan = CompiledQueryPlan.compile(
                    sketches, router, generation=self._plan_generation
                )
            self._query_plan = plan
            _PLAN_COMPILES.inc()
        elif plan.generation != self._plan_generation:
            with _span("query", "refresh"):
                plan.refresh(self._plan_generation)
            _PLAN_REFRESHES.inc()
        return plan

    def _ingest_routed(self, batch: EdgeBatch) -> np.ndarray:
        """The partitioned backend's ingest: route, hash and apply one
        validated, non-empty batch into the plan's arena.

        Compiles the plan on first use but never refreshes it: the counters
        are the arena, and the confidence constants wait for the next read.
        Returns every element's partition (``OUTLIER_PARTITION`` for
        outliers); the backend keeps its own element counters.
        """
        plan = self._query_plan
        if plan is None:
            plan = self.compile_plan()
        clock = _stage_clock("ingest", INGEST_STAGE)
        partitions = self.router.route_batch(batch.sources)
        keys = batch.hashed_keys()
        clock.lap("route")
        plan.apply(keys, partitions, batch.frequencies)
        clock.lap("apply")
        self._bump_generation()
        INGEST_BATCHES.inc()
        INGEST_ELEMENTS.inc(len(batch))
        return partitions

    # -- serving -------------------------------------------------------- #
    def _planned_estimates(self, edges: Sequence[EdgeKey]) -> np.ndarray:
        """Plan-served estimates with the hot-edge cache on small batches.

        The telemetry wrapper times the whole call (histogram
        ``repro_query_plan_seconds``) and tallies batch/edge counters; when
        telemetry is disabled it costs one flag check and one extra frame.
        """
        if not _obs._ENABLED:
            return self._planned_estimates_impl(edges)
        begin = time.perf_counter_ns()
        estimates = self._planned_estimates_impl(edges)
        _QUERY_SECONDS._observe((time.perf_counter_ns() - begin) * 1e-9)
        _QUERY_BATCHES.inc()
        _QUERY_EDGES.inc(len(edges))
        return estimates

    def _planned_estimates_impl(self, edges: Sequence[EdgeKey]) -> np.ndarray:
        if len(edges) == 0:
            return np.zeros(0, dtype=np.float64)
        plan = self.compile_plan()
        if len(edges) <= HOT_CACHE_MAX_BATCH:
            # Memoized scalar canonicalization: bit-identical to the batched
            # pipeline (pair_keys_to_uint64 == key_to_uint64 of the tuple) and
            # cheaper than columnarizing a tiny batch.
            keys = [edge_uint64(edge[0], edge[1]) for edge in edges]
            cached = self._hot_cache.lookup_many(self._plan_generation, keys)
            if cached is not None:
                return np.asarray(cached, dtype=np.float64)
            slots, _ = plan.route_sources(label_column([edge[0] for edge in edges]))
            estimates = plan.estimate_keys(np.asarray(keys, dtype=np.uint64), slots)
            self._hot_cache.store_many(self._plan_generation, keys, estimates.tolist())
            return estimates
        # Large (coalesced) batches: serve per-key memo hits, gather only the
        # misses.  Cached values were produced by this same plan at this same
        # generation, and the miss-subset gather runs the identical per-element
        # kernel sequence, so the merged answer stays bit-exact.
        clock = _stage_clock("query", _QUERY_STAGE_HISTOGRAMS)
        batch = EdgeBatch.from_edge_keys(edges)
        keys_array = batch.hashed_keys()
        clock.lap("hash")
        key_list = keys_array.tolist()
        cached, miss = self._hot_cache.lookup_partial(self._plan_generation, key_list)
        if cached is None:
            slots, _ = plan.route_sources(batch.sources)
            clock.lap("route")
            estimates = plan.estimate_keys(keys_array, slots)
            clock.lap("gather")
            self._hot_cache.store_many(self._plan_generation, key_list, estimates.tolist())
            return estimates
        if not miss.any():
            return cached
        miss_indices = np.nonzero(miss)[0]
        slots, _ = plan.route_sources(batch.sources[miss_indices])
        clock.lap("route")
        gathered = plan.estimate_keys(keys_array[miss_indices], slots)
        clock.lap("gather")
        cached[miss_indices] = gathered
        self._hot_cache.store_many(
            self._plan_generation,
            [key_list[index] for index in miss_indices],
            gathered.tolist(),
        )
        return cached

    def confidence_columns(
        self, edges: Sequence[EdgeKey]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(estimates, bounds, failures, partitions)`` from one routing pass.

        ``partitions`` is ``None`` for single-sketch plans.  The constants are
        gathered per element by arena slot, so queries spanning any number of
        partitions stay loop-free.  Bit-identical per element to the scalar
        ``confidence`` path; the hot-edge cache is not consulted.  Timed and
        counted like :meth:`_planned_estimates` when telemetry is enabled.
        """
        if not _obs._ENABLED:
            return self._planned_confidence_impl(edges)
        begin = time.perf_counter_ns()
        result = self._planned_confidence_impl(edges)
        _QUERY_SECONDS._observe((time.perf_counter_ns() - begin) * 1e-9)
        _QUERY_BATCHES.inc()
        _QUERY_EDGES.inc(len(edges))
        return result

    def confidence_batch(self, edges: Sequence[EdgeKey]) -> List["ConfidenceInterval"]:
        """Equation-1 confidence intervals for many edges at once (one plan
        pass; element-wise identical to the scalar ``confidence`` path)."""
        from repro.core.estimator import intervals_from_arrays

        estimates, bounds, failures, _ = self.confidence_columns(edges)
        return intervals_from_arrays(estimates, bounds, failures)

    def _planned_confidence_impl(
        self, edges: Sequence[EdgeKey]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        plan = self.compile_plan()
        batch = EdgeBatch.from_edge_keys(edges)
        slots, partitions = plan.route_sources(batch.sources)
        estimates = plan.estimate_keys(batch.hashed_keys(), slots)
        bounds, failures = plan.confidence_constants(slots)
        return estimates, bounds, failures, partitions
