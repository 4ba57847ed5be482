"""The :class:`SketchEngine` facade: one entry point for every backend.

``SketchEngine`` owns the full estimator lifecycle — **build** (fluent
builder over data sample / query workload / shard count / window length),
**ingest** (columnar batches through the
:class:`~repro.api.protocol.Estimator` surface), **query** (typed
:class:`~repro.api.queries.Query` objects in,
:class:`~repro.api.results.Estimate` objects out) and **snapshot/restore**
(the versioned :mod:`repro.api.snapshot` format) — so callers program against
one logical interface while the physical execution strategy (single sketch,
partitioned, sharded, windowed) stays a construction-time choice::

    engine = (SketchEngine.builder()
              .config(total_cells=60_000, depth=4, seed=7)
              .dataset(stream)
              .build())
    engine.ingest(stream)
    estimate = engine.query(EdgeQuery(3, 17))
    estimate.value, estimate.interval.lower, estimate.provenance.partition
    engine.save("sketch.snap")
    restored = SketchEngine.load("sketch.snap")
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Union

from repro.api.protocol import (
    BACKEND_GLOBAL,
    BACKEND_GSKETCH,
    BACKEND_SHARDED,
    BACKEND_WINDOWED,
    Estimator,
)
from repro.api.queries import EdgeQuery, Query, SubgraphQuery, WindowQuery
from repro.api.results import Estimate, Provenance
from repro.api.snapshot import (
    SnapshotError,
    backend_name,
    load_checkpoint,
    load_snapshot,
    save_checkpoint,
    save_snapshot,
)
from repro.core.config import GSketchConfig
from repro.core.global_sketch import GlobalSketch
from repro.core.gsketch import DEFAULT_BATCH_SIZE, GSketch, iter_edge_batches
from repro.core.router import OUTLIER_PARTITION
from repro.core.windowed import WindowedGSketch
from repro.datasets.registry import load_dataset
from repro.distributed.coordinator import ShardedGSketch
from repro.graph.batch import EdgeBatch
from repro.graph.edge import EdgeKey, StreamEdge
from repro.graph.sampling import reservoir_sample
from repro.graph.stream import GraphStream
from repro.observability import AccuracyTracker
from repro.observability import metrics as _obs
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.queries.workload import QueryWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.serving imports us)
    from repro.serving.server import ServerHandle, ServingConfig

#: Default reservoir size when the partitioning sample is derived from a
#: dataset rather than supplied explicitly.
DEFAULT_SAMPLE_SIZE = 5_000


class EngineError(ValueError):
    """A builder or query request is inconsistent with the chosen backend."""


class SketchEngine:
    """Facade over one :class:`~repro.api.protocol.Estimator` backend.

    Instances come from :meth:`builder` (fresh engines),
    :meth:`from_estimator` (wrapping an existing backend object) or
    :meth:`load` (snapshot restore); the constructor is internal.
    """

    def __init__(self, estimator: Estimator, backend: Optional[str] = None) -> None:
        self._estimator = estimator
        # Accuracy census starts empty at construction (and therefore at
        # snapshot restore): its exact truth covers edges ingested *through
        # this engine*, which is the only mass it can count exactly.
        self._accuracy = AccuracyTracker()
        if backend is None:
            try:
                backend = backend_name(estimator)
            except SnapshotError:
                # Custom Estimator implementations can be wrapped and queried;
                # only save() requires a registered snapshot backend.
                backend = type(estimator).__name__
        self._backend = backend

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def builder(cls) -> "EngineBuilder":
        """Start a fluent build (config → dataset/sample → variant → build)."""
        return EngineBuilder()

    @classmethod
    def from_estimator(cls, estimator: Estimator) -> "SketchEngine":
        """Wrap an already-constructed backend in the facade."""
        return cls(estimator)

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        stream: GraphStream | Iterable[StreamEdge],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> int:
        """Ingest a whole stream in columnar blocks; returns elements ingested."""
        total = 0
        for batch in iter_edge_batches(stream, batch_size):
            total += self.ingest_batch(batch)
        return total

    def ingest_batch(self, batch: EdgeBatch | Sequence[StreamEdge]) -> int:
        """Ingest one block of stream elements; returns elements ingested.

        The accuracy census observes the batch only after the backend has
        accepted it, so a rejected batch leaves no trace in either.
        """
        if not _obs._ENABLED:
            return self._estimator.ingest_batch(batch)
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch.from_edges(batch)
        ingested = self._estimator.ingest_batch(batch)
        self._accuracy.observe_batch(batch)
        return ingested

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #
    def query(
        self, query: Union[Query, EdgeKey, Sequence[Union[Query, EdgeKey]]]
    ) -> Union[Estimate, List[Estimate]]:
        """The polymorphic query entry point: one query in, one result out.

        Accepts any member of the query family — :class:`EdgeQuery`
        (lifetime; an attached ``window`` lifts it to a
        :class:`WindowQuery`), :class:`SubgraphQuery`, :class:`WindowQuery`
        (windowed backend only), or a bare ``(source, target)`` edge key as
        an :class:`EdgeQuery` shorthand — and returns one typed,
        provenance-carrying :class:`~repro.api.results.Estimate`.

        Also accepts a *sequence* of the above and returns a parallel
        ``List[Estimate]``; plain edge queries inside the sequence share one
        batched plan gather, so mixing families costs nothing over sorting
        them yourself::

            engine.query(EdgeQuery(3, 17)).value
            engine.query([EdgeQuery(3, 17), SubgraphQuery.from_edges(...)])

        This dispatcher is the only query surface the serving tier and the
        CLI use.
        """
        if isinstance(query, (EdgeQuery, SubgraphQuery, WindowQuery)):
            return self._dispatch_query(query)
        if isinstance(query, tuple) and len(query) == 2 and not isinstance(
            query[0], (EdgeQuery, SubgraphQuery, WindowQuery)
        ):
            # A bare edge key, not a 2-element batch of query objects.
            return self._dispatch_query(query)
        if isinstance(query, SequenceABC) and not isinstance(query, (str, bytes)):
            return self._dispatch_batch(list(query))
        raise EngineError(
            f"unsupported query type {type(query).__name__}; expected EdgeQuery, "
            "SubgraphQuery, WindowQuery, a (source, target) key, or a sequence "
            "of those"
        )

    def _dispatch_query(self, query: Union[Query, EdgeKey]) -> Estimate:
        """Answer one typed query with a typed, provenance-carrying result."""
        if isinstance(query, WindowQuery):
            return self._query_window(query)
        if isinstance(query, EdgeQuery):
            if query.window is not None:
                return self._query_window(WindowQuery.from_edge_query(query))
            return self._estimate_edge_keys([query.key])[0]
        if isinstance(query, SubgraphQuery):
            value = self._estimator.query_subgraph(query)
            return Estimate(
                value=float(value),
                interval=None,
                provenance=Provenance(backend=self._backend),
            )
        if isinstance(query, tuple) and len(query) == 2:
            return self._estimate_edge_keys([query])[0]
        raise EngineError(
            f"unsupported query type {type(query).__name__}; expected EdgeQuery, "
            "SubgraphQuery, WindowQuery or a (source, target) key"
        )

    def _dispatch_batch(self, queries: Sequence[Union[Query, EdgeKey]]) -> List[Estimate]:
        """Answer a block of queries; plain edge queries share one batched pass."""
        estimates: List[Optional[Estimate]] = [None] * len(queries)
        edge_positions: List[int] = []
        edge_keys: List[EdgeKey] = []
        for position, query in enumerate(queries):
            if isinstance(query, EdgeQuery) and query.window is None:
                edge_positions.append(position)
                edge_keys.append(query.key)
            elif isinstance(query, tuple) and len(query) == 2:
                edge_positions.append(position)
                edge_keys.append(query)
            else:
                estimates[position] = self._dispatch_query(query)
        if edge_keys:
            for position, estimate in zip(
                edge_positions, self._estimate_edge_keys(edge_keys)
            ):
                estimates[position] = estimate
        assert all(e is not None for e in estimates), "query batch left a slot unanswered"
        return estimates  # type: ignore[return-value]

    def _estimate_edge_keys(self, keys: Sequence[EdgeKey]) -> List[Estimate]:
        """Typed estimates for a block of edge keys (lifetime semantics).

        Partitioned backends answer values, intervals *and* provenance from a
        single routing pass (``confidence_batch_with_partitions``); backends
        without a partitioning fall back to plain ``confidence_batch``.
        """
        generation = getattr(self._estimator, "ingest_generation", None)
        if generation is not None:
            generation = int(generation)
        combined = getattr(self._estimator, "confidence_batch_with_partitions", None)
        if combined is None:
            shared = Provenance(backend=self._backend, generation=generation)
            return [
                Estimate(value=interval.estimate, interval=interval, provenance=shared)
                for interval in self._estimator.confidence_batch(keys)
            ]
        intervals, partitions = combined(keys)
        plan = self._estimator.plan if self._backend == BACKEND_SHARDED else None
        estimates = []
        for interval, partition in zip(intervals, partitions):
            shard = None if plan is None else plan.shard_of(partition)
            estimates.append(
                Estimate(
                    value=interval.estimate,
                    interval=interval,
                    provenance=Provenance(
                        backend=self._backend,
                        partition=partition,
                        shard=shard,
                        outlier=partition == OUTLIER_PARTITION,
                        generation=generation,
                    ),
                )
            )
        return estimates

    def _query_window(self, query: WindowQuery) -> Estimate:
        if self._backend != BACKEND_WINDOWED:
            raise EngineError(
                f"window queries need the windowed backend, engine is {self._backend!r}"
            )
        value = self._estimator.query_edge(query.key, query.start, query.end)
        return Estimate(
            value=float(value),
            interval=None,
            provenance=Provenance(backend=self._backend),
        )

    # ------------------------------------------------------------------ #
    # Read optimization
    # ------------------------------------------------------------------ #
    def frozen(self) -> "SketchEngine":
        """Pre-compile the backend's read plan so the next query hits the arena.

        Every backend auto-plans — the first query after an ingest compiles
        (or refreshes) its :class:`~repro.queries.plan.CompiledQueryPlan`
        lazily — so this is purely a warm-up: call it after bulk ingestion
        and before latency-sensitive serving to keep plan compilation out of
        the first request.  Returns ``self`` for chaining::

            engine.ingest(stream)
            estimates = engine.frozen().query(queries)
        """
        compile_plan = getattr(self._estimator, "compile_plan", None)
        if compile_plan is not None:
            compile_plan()
        return self

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional["ServingConfig"] = None,
    ) -> "ServerHandle":
        """Serve this engine over TCP on a background event-loop thread.

        Point queries from concurrent clients coalesce into shared
        compiled-plan gathers (see :mod:`repro.serving`).  Returns once the
        socket is bound; the handle exposes ``address``, ``stats()`` and
        ``stop()`` and works as a context manager::

            with engine.serve() as handle:
                host, port = handle.address
                ...

        While the handle is live the engine is driven by the server thread —
        don't query or ingest it directly from other threads.
        """
        from repro.serving.server import serve_in_background

        return serve_in_background(self, host, port, config)

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Write a versioned snapshot of the engine's estimator to ``path``."""
        return save_snapshot(self._estimator, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SketchEngine":
        """Restore an engine from a :meth:`save` snapshot (any backend)."""
        return cls.from_estimator(load_snapshot(path))

    def checkpoint(self, directory: Union[str, Path]) -> Path:
        """Write (or incrementally update) a crash-consistent checkpoint.

        Sections whose dirty generation is unchanged since the previous
        checkpoint of the same engine instance are carried forward, so
        steady-state checkpoints rewrite only the shards that ingested in
        between.  See :func:`repro.api.snapshot.save_checkpoint`.
        """
        return save_checkpoint(self._estimator, directory)

    @classmethod
    def restore(cls, directory: Union[str, Path]) -> "SketchEngine":
        """Revive an engine from a :meth:`checkpoint` directory.

        Every section file is length- and checksum-verified before any
        deserialization; a torn or corrupt checkpoint raises
        :class:`~repro.api.snapshot.SnapshotError` naming the bad section.
        """
        return cls.from_estimator(load_checkpoint(directory))

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """End the engine's lifecycle (``with`` blocks call it on exit).

        Every backend runs in process and holds only memory, so there is
        nothing to release; the engine stays queryable afterwards.
        """

    def __enter__(self) -> "SketchEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def backend(self) -> str:
        """Canonical name of the physical backend serving this engine."""
        return self._backend

    @property
    def estimator(self) -> Estimator:
        """The underlying backend object (escape hatch for backend-specific APIs)."""
        return self._estimator

    @property
    def elements_processed(self) -> int:
        """Number of stream elements ingested so far."""
        return self._estimator.elements_processed

    def describe(self) -> dict:
        """Plain-JSON summary of the engine (used by the CLI and reports)."""
        estimator = self._estimator
        summary: dict = {
            "backend": self._backend,
            "elements_processed": self.elements_processed,
        }
        for attribute in ("num_partitions", "num_shards", "num_windows", "memory_cells"):
            value = getattr(estimator, attribute, None)
            if value is not None:
                summary[attribute] = int(value)
        total_frequency = getattr(estimator, "total_frequency", None)
        if total_frequency is not None:
            summary["total_frequency"] = float(total_frequency)
        return summary

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    @property
    def accuracy_tracker(self) -> AccuracyTracker:
        """The live observed-vs-bound census attached to this engine."""
        return self._accuracy

    def metrics(self) -> dict:
        """Full telemetry snapshot: registry metrics, backend health, accuracy.

        Backend health (per-table fill ratios, outlier share, plan and
        hot-cache state) and the live accuracy report are mirrored into
        registry gauges *before* the registry is snapshotted, so a
        subsequent Prometheus render
        (:func:`repro.observability.render_prometheus`) carries them too.
        The accuracy replay issues real queries against the backend and
        therefore shows up in the query-plane counters.
        """
        registry = get_registry()
        health: Optional[dict] = None
        snapshot_fn = getattr(self._estimator, "telemetry_snapshot", None)
        if snapshot_fn is not None:
            health = snapshot_fn()
            _mirror_health(registry, self._backend, health)
        accuracy = self._accuracy.report(self._estimator)
        _mirror_accuracy(registry, self._backend, accuracy)
        return {
            "backend": self._backend,
            "elements_processed": self.elements_processed,
            "health": health,
            "accuracy": accuracy,
            "metrics": registry.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SketchEngine(backend={self._backend!r}, estimator={self._estimator!r})"


def _mirror_tables(
    registry: MetricsRegistry, labels: dict, tables: Iterable[dict]
) -> None:
    for table in tables:
        table_labels = dict(labels)
        table_labels["partition"] = str(table.get("partition", ""))
        registry.gauge(
            "repro_sketch_fill_ratio",
            "Fraction of nonzero counter cells per sketch table.",
            table_labels,
        ).set(float(table.get("fill_ratio", 0.0)))
        registry.gauge(
            "repro_sketch_max_cell",
            "Largest counter cell value per sketch table.",
            table_labels,
        ).set(float(table.get("max_cell", 0.0)))


def _mirror_health(registry: MetricsRegistry, backend: str, health: dict) -> None:
    """Project a backend ``telemetry_snapshot()`` onto registry gauges."""
    labels = {"backend": backend}
    registry.gauge(
        "repro_backend_elements",
        "Stream elements ingested by the backend.",
        labels,
    ).set(float(health.get("elements_processed", 0)))
    outlier_share = health.get("outlier_share")
    if outlier_share is not None:
        registry.gauge(
            "repro_outlier_share",
            "Fraction of ingested elements routed to the outlier sketch.",
            labels,
        ).set(float(outlier_share))
    _mirror_tables(registry, labels, health.get("tables", ()))
    for window in health.get("windows", ()):
        window_labels = dict(labels)
        window_labels["window"] = str(window.get("window", ""))
        _mirror_tables(registry, window_labels, window.get("tables", ()))
    plan = health.get("plan")
    if plan:
        registry.gauge(
            "repro_plan_generation",
            "Ingest generation of the compiled query plan's backend.",
            labels,
        ).set(float(plan.get("generation", 0)))
        registry.gauge(
            "repro_plan_stale",
            "1 when the compiled plan lags the backend generation.",
            labels,
        ).set(1.0 if plan.get("stale") else 0.0)
    hot = health.get("hot_cache")
    if hot:
        for field in ("hits", "misses", "evictions", "invalidations"):
            registry.counter(
                f"repro_hot_cache_{field}_total",
                f"Hot-edge cache {field} (mirrored from the always-on cache).",
                labels,
            ).set_total(float(hot.get(field, 0)))
        registry.gauge(
            "repro_hot_cache_size",
            "Entries currently resident in the hot-edge cache.",
            labels,
        ).set(float(hot.get("size", 0)))


def _mirror_accuracy(registry: MetricsRegistry, backend: str, report: dict) -> None:
    """Project an :class:`AccuracyTracker` report onto registry gauges."""
    labels = {"backend": backend}
    gauges = (
        ("repro_accuracy_samples", "Distinct edges under exact census.", "samples"),
        ("repro_accuracy_mean_error", "Mean estimate minus truth.", "mean_error"),
        ("repro_accuracy_max_error", "Largest estimate minus truth.", "max_error"),
        (
            "repro_accuracy_mean_relative_error",
            "Mean relative overestimate across the census.",
            "mean_relative_error",
        ),
        (
            "repro_accuracy_mean_bound",
            "Mean Equation-1 additive bound across the census.",
            "mean_bound",
        ),
        (
            "repro_accuracy_bound_violation_ratio",
            "Fraction of census edges whose error exceeds their Eq.-1 bound.",
            "bound_violation_ratio",
        ),
    )
    for name, help_text, field in gauges:
        registry.gauge(name, help_text, labels).set(float(report[field]))
    registry.counter(
        "repro_accuracy_bound_violations_total",
        "Census edges whose error exceeds their Eq.-1 bound.",
        labels,
    ).set_total(float(report["bound_violations"]))


class EngineBuilder:
    """Fluent configuration of a :class:`SketchEngine`.

    Call order is free; :meth:`build` validates the combination.  The variant
    defaults to the partitioned single-process gSketch when a sample source is
    given and the Global Sketch baseline otherwise; :meth:`sharded` and
    :meth:`windowed` select the scale-out and time-windowed variants.
    """

    def __init__(self) -> None:
        self._config: Optional[GSketchConfig] = None
        self._dataset: Optional[Union[str, GraphStream]] = None
        self._dataset_seed: Optional[int] = None
        self._sample: Optional[GraphStream] = None
        self._sample_size = DEFAULT_SAMPLE_SIZE
        self._workload: Optional[Union[QueryWorkload, GraphStream]] = None
        self._smoothing_alpha = 1.0
        self._num_shards: Optional[int] = None
        self._window_length: Optional[float] = None
        self._window_sample_size = DEFAULT_SAMPLE_SIZE
        self._stream_size_hint: Optional[int] = None

    # -- space budget -------------------------------------------------- #
    def config(self, config: Optional[GSketchConfig] = None, **kwargs) -> "EngineBuilder":
        """Set the space budget: a ready :class:`GSketchConfig` or its kwargs."""
        if config is not None and kwargs:
            raise EngineError("pass either a GSketchConfig or keyword arguments, not both")
        if config is None:
            config = GSketchConfig(**kwargs)
        self._config = config
        return self

    # -- sample sources ------------------------------------------------ #
    def dataset(
        self, dataset: Union[str, GraphStream], seed: Optional[int] = None
    ) -> "EngineBuilder":
        """The stream the engine will serve: a :class:`GraphStream` or a
        registry name (:func:`repro.datasets.registry.load_dataset`).

        Used to derive the partitioning sample (unless :meth:`sample` is
        given) and the stream-size hint for Theorem-1 extrapolation.
        """
        self._dataset = dataset
        self._dataset_seed = seed
        return self

    def sample(self, sample: GraphStream) -> "EngineBuilder":
        """Explicit partitioning data sample (overrides dataset derivation)."""
        self._sample = sample
        return self

    def sample_size(self, size: int) -> "EngineBuilder":
        """Reservoir size when the sample is derived from the dataset."""
        if size <= 0:
            raise EngineError(f"sample size must be > 0, got {size}")
        self._sample_size = size
        return self

    def workload(
        self,
        workload: Union[QueryWorkload, GraphStream],
        smoothing_alpha: float = 1.0,
    ) -> "EngineBuilder":
        """Query-workload sample for workload-aware partitioning (Figure 3)."""
        self._workload = workload
        self._smoothing_alpha = smoothing_alpha
        return self

    def stream_size_hint(self, hint: int) -> "EngineBuilder":
        """Expected stream length (Theorem-1 extrapolation of the sample)."""
        self._stream_size_hint = hint
        return self

    # -- variants ------------------------------------------------------ #
    def sharded(self, num_shards: int) -> "EngineBuilder":
        """Spread the partitioning over ``num_shards`` in-process shards."""
        if num_shards <= 0:
            raise EngineError(f"shard count must be > 0, got {num_shards}")
        self._num_shards = num_shards
        return self

    def windowed(
        self, window_length: float, sample_size: int = DEFAULT_SAMPLE_SIZE
    ) -> "EngineBuilder":
        """Maintain one estimator per time window of ``window_length``."""
        self._window_length = window_length
        self._window_sample_size = sample_size
        return self

    # -- assembly ------------------------------------------------------ #
    def build(self) -> SketchEngine:
        """Validate the combination and construct the engine."""
        if self._config is None:
            raise EngineError("a space budget is required: call .config(...) first")
        if self._window_length is not None and self._num_shards is not None:
            raise EngineError("windowed and sharded variants are mutually exclusive")

        if self._window_length is not None:
            if self._workload is not None:
                raise EngineError(
                    "the windowed backend partitions each window from the previous "
                    "window's reservoir; a workload sample does not apply"
                )
            estimator: Estimator = WindowedGSketch(
                config=self._config,
                window_length=self._window_length,
                sample_size=self._window_sample_size,
                seed=self._config.seed,
            )
            return SketchEngine(estimator, BACKEND_WINDOWED)

        sample, hint = self._resolve_sample()
        if sample is None:
            if self._num_shards is not None:
                raise EngineError(
                    "the sharded backend needs a partitioning sample: call "
                    ".sample(...) or .dataset(...)"
                )
            if self._workload is not None:
                raise EngineError(
                    "workload-aware partitioning needs a data sample: call "
                    ".sample(...) or .dataset(...)"
                )
            return SketchEngine(GlobalSketch(self._config), BACKEND_GLOBAL)

        if self._workload is not None:
            gsketch = GSketch.build_with_workload(
                sample,
                self._workload,
                self._config,
                smoothing_alpha=self._smoothing_alpha,
                stream_size_hint=hint,
            )
            if self._num_shards is not None:
                # Workload-aware sharding has no direct ShardedGSketch
                # constructor; re-shard the freshly built (empty) sketch.
                sharded = ShardedGSketch.from_gsketch(gsketch, num_shards=self._num_shards)
                return SketchEngine(sharded, BACKEND_SHARDED)
            return SketchEngine(gsketch, BACKEND_GSKETCH)

        if self._num_shards is not None:
            sharded = ShardedGSketch.build(
                sample,
                self._config,
                num_shards=self._num_shards,
                stream_size_hint=hint,
            )
            return SketchEngine(sharded, BACKEND_SHARDED)
        gsketch = GSketch.build(sample, self._config, stream_size_hint=hint)
        return SketchEngine(gsketch, BACKEND_GSKETCH)

    def _resolve_sample(self) -> tuple:
        """The partitioning sample and stream-size hint, resolving the dataset."""
        if self._sample is not None:
            return self._sample, self._stream_size_hint
        if self._dataset is None:
            return None, self._stream_size_hint
        if isinstance(self._dataset, GraphStream):
            stream = self._dataset
        else:
            seed = self._dataset_seed
            if seed is None:
                seed = self._config.seed if self._config is not None else 7
            stream = load_dataset(self._dataset, seed=seed).stream
        hint = self._stream_size_hint if self._stream_size_hint is not None else len(stream)
        size = min(self._sample_size, len(stream))
        if size == 0:
            return None, hint
        sample = reservoir_sample(stream, size, seed=self._config.seed)
        return sample, hint
