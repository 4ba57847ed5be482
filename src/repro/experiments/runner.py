"""Experiment execution.

The runner prepares a shared evaluation environment per
:class:`~repro.experiments.config.ExperimentConfig` (dataset, data sample,
query sets, exact frequencies) and executes the sweeps the paper's figures are
drawn from.  Heavyweight intermediate results are cached per configuration so
that figures sharing a sweep (e.g. Figures 4 and 5) only pay for it once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.datasets.registry import load_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.memory import memory_sweep_for_stream
from repro.graph.sampling import reservoir_sample, zipf_workload_stream
from repro.graph.stream import GraphStream
from repro.queries.evaluation import (
    EvaluationResult,
    evaluate_edge_queries,
    evaluate_subgraph_queries,
)
from repro.queries.workload import (
    bfs_subgraph_queries,
    uniform_edge_queries,
    zipf_edge_queries,
    zipf_subgraph_queries,
)
from repro.utils.timer import Timer

#: Scenario labels: data-sample-only (Section 6.3) and data + workload (6.4).
SCENARIO_DATA = "data"
SCENARIO_WORKLOAD = "workload"

#: Estimator labels used throughout result tables.
METHOD_GLOBAL = "Global Sketch"
METHOD_GSKETCH = "gSketch"


@dataclass(frozen=True)
class AccuracyCell:
    """One estimator's accuracy and timing at one sweep point."""

    method: str
    edge_result: EvaluationResult
    subgraph_result: Optional[EvaluationResult]
    construction_seconds: float
    edge_query_seconds: float
    subgraph_query_seconds: float


@dataclass(frozen=True)
class SweepPoint:
    """All estimators' results at one sweep point (one memory budget or alpha)."""

    label: str
    memory_bytes: int
    cells: Dict[str, AccuracyCell]

    def cell(self, method: str) -> AccuracyCell:
        return self.cells[method]


@dataclass(frozen=True)
class MemorySweepResult:
    """Results of a full memory sweep on one dataset and scenario."""

    dataset: str
    scenario: str
    points: Tuple[SweepPoint, ...]

    def methods(self) -> List[str]:
        return list(self.points[0].cells.keys()) if self.points else []


@dataclass
class _Environment:
    """Shared per-configuration evaluation assets."""

    config: ExperimentConfig
    stream: GraphStream
    sample: GraphStream
    true_frequencies: Dict
    uniform_queries: list
    uniform_subgraphs: list
    workload_sample: GraphStream
    zipf_queries: list
    zipf_subgraphs: list
    memory_budgets: List[int]


@functools.lru_cache(maxsize=16)
def _prepare_environment(config: ExperimentConfig) -> _Environment:
    """Load the dataset and derive samples / query sets once per configuration."""
    bundle = load_dataset(config.dataset, seed=config.seed)
    stream = bundle.stream

    if config.sample_from_first_day:
        sample = stream.time_window(0.0, 1.0, name=f"{stream.name}-day0")
        if len(sample) == 0:
            sample = reservoir_sample(
                stream, max(1, int(len(stream) * config.sample_fraction)), seed=config.seed + 1
            )
    else:
        sample_size = max(1, int(len(stream) * config.sample_fraction))
        sample = reservoir_sample(stream, sample_size, seed=config.seed + 1)

    true_frequencies = stream.edge_frequencies()
    uniform_queries = uniform_edge_queries(stream, config.num_edge_queries, seed=config.seed + 2)
    uniform_subgraphs = bfs_subgraph_queries(
        stream,
        config.num_subgraph_queries,
        edges_per_subgraph=config.edges_per_subgraph,
        seed=config.seed + 3,
    )
    workload_sample = zipf_workload_stream(
        stream, config.workload_sample_size, config.zipf_alpha, seed=config.seed + 4
    )
    zipf_queries = zipf_edge_queries(
        stream, config.num_edge_queries, config.zipf_alpha, seed=config.seed + 5
    )
    zipf_subgraphs = zipf_subgraph_queries(
        stream,
        config.num_subgraph_queries,
        config.zipf_alpha,
        edges_per_subgraph=config.edges_per_subgraph,
        seed=config.seed + 6,
    )
    memory_budgets = memory_sweep_for_stream(stream, depth=config.depth)
    return _Environment(
        config=config,
        stream=stream,
        sample=sample,
        true_frequencies=true_frequencies,
        uniform_queries=uniform_queries,
        uniform_subgraphs=uniform_subgraphs,
        workload_sample=workload_sample,
        zipf_queries=zipf_queries,
        zipf_subgraphs=zipf_subgraphs,
        memory_budgets=memory_budgets,
    )


def environment_summary(config: ExperimentConfig) -> Dict[str, object]:
    """Dataset census used by reports (stream size, sample size, budgets)."""
    env = _prepare_environment(config)
    return {
        "dataset": config.dataset,
        "stream_elements": len(env.stream),
        "distinct_edges": len(env.true_frequencies),
        "sample_elements": len(env.sample),
        "memory_budgets_bytes": list(env.memory_budgets),
    }


def _gsketch_config(config: ExperimentConfig, memory_bytes: int) -> GSketchConfig:
    return GSketchConfig.from_memory_bytes(
        memory_bytes,
        depth=config.depth,
        seed=config.seed,
        min_partition_width=config.min_partition_width,
        collision_constant=config.collision_constant,
        outlier_fraction=config.outlier_fraction,
    )


def _build_estimators(
    env: _Environment, memory_bytes: int, scenario: str
) -> Dict[str, Tuple[object, float]]:
    """Construct and populate both estimators; returns method -> (estimator, Tc).

    Both estimators are built and fed through the
    :class:`~repro.api.engine.SketchEngine` facade, the same surface users and
    the CLI program against; evaluation keeps the raw backend objects so the
    metrics code stays backend-agnostic.
    """
    config = env.config
    sketch_config = _gsketch_config(config, memory_bytes)

    estimators: Dict[str, Tuple[object, float]] = {}

    with Timer() as timer:
        global_engine = (
            SketchEngine.builder().config(sketch_config.without_outlier()).build()
        )
        global_engine.ingest(env.stream)
    estimators[METHOD_GLOBAL] = (global_engine.estimator, timer.elapsed)

    with Timer() as timer:
        builder = (
            SketchEngine.builder()
            .config(sketch_config)
            .sample(env.sample)
            .stream_size_hint(len(env.stream))
        )
        if scenario == SCENARIO_WORKLOAD:
            builder = builder.workload(env.workload_sample)
        gsketch_engine = builder.build()
        gsketch_engine.ingest(env.stream)
    estimators[METHOD_GSKETCH] = (gsketch_engine.estimator, timer.elapsed)
    return estimators


def _queries_for_scenario(env: _Environment, scenario: str) -> Tuple[list, list]:
    if scenario == SCENARIO_WORKLOAD:
        return env.zipf_queries, env.zipf_subgraphs
    return env.uniform_queries, env.uniform_subgraphs


def _evaluate(
    estimator: object,
    env: _Environment,
    scenario: str,
    include_subgraphs: bool,
) -> Tuple[EvaluationResult, Optional[EvaluationResult], float, float]:
    config = env.config
    edge_queries, subgraph_queries = _queries_for_scenario(env, scenario)
    with Timer() as edge_timer:
        edge_result = evaluate_edge_queries(
            estimator.query_edge,  # type: ignore[attr-defined]
            edge_queries,
            env.true_frequencies,
            threshold=config.effectiveness_threshold,
        )
    subgraph_result = None
    subgraph_seconds = 0.0
    if include_subgraphs:
        with Timer() as subgraph_timer:
            subgraph_result = evaluate_subgraph_queries(
                estimator.query_edge,  # type: ignore[attr-defined]
                subgraph_queries,
                env.true_frequencies,
                threshold=config.effectiveness_threshold,
            )
        subgraph_seconds = subgraph_timer.elapsed
    return edge_result, subgraph_result, edge_timer.elapsed, subgraph_seconds


@functools.lru_cache(maxsize=32)
def run_memory_sweep(
    config: ExperimentConfig,
    scenario: str = SCENARIO_DATA,
    include_subgraphs: bool = False,
) -> MemorySweepResult:
    """Sweep memory budgets on one dataset for one scenario (Figures 4–9, 13–14).

    Args:
        config: experiment configuration.
        scenario: :data:`SCENARIO_DATA` (partition from the data sample only,
            uniform query sets) or :data:`SCENARIO_WORKLOAD` (partition with a
            Zipf workload sample, Zipf query sets).
        include_subgraphs: whether to also evaluate aggregate subgraph queries
            (the paper reports them for DBLP only).
    """
    if scenario not in (SCENARIO_DATA, SCENARIO_WORKLOAD):
        raise ValueError(f"unknown scenario {scenario!r}")
    env = _prepare_environment(config)
    points: List[SweepPoint] = []
    for memory_bytes in env.memory_budgets:
        estimators = _build_estimators(env, memory_bytes, scenario)
        cells: Dict[str, AccuracyCell] = {}
        for method, (estimator, construction_seconds) in estimators.items():
            edge_result, subgraph_result, edge_seconds, subgraph_seconds = _evaluate(
                estimator, env, scenario, include_subgraphs
            )
            cells[method] = AccuracyCell(
                method=method,
                edge_result=edge_result,
                subgraph_result=subgraph_result,
                construction_seconds=construction_seconds,
                edge_query_seconds=edge_seconds,
                subgraph_query_seconds=subgraph_seconds,
            )
        points.append(
            SweepPoint(label=str(memory_bytes), memory_bytes=memory_bytes, cells=cells)
        )
    return MemorySweepResult(dataset=config.dataset, scenario=scenario, points=tuple(points))


@functools.lru_cache(maxsize=32)
def run_alpha_sweep(
    config: ExperimentConfig,
    alphas: Tuple[float, ...] = (1.2, 1.4, 1.6, 1.8, 2.0),
    include_subgraphs: bool = False,
) -> MemorySweepResult:
    """Sweep the Zipf skewness factor at fixed memory (Figures 10–12).

    The memory budget is fixed at ``config.fixed_memory_fraction`` of the
    stream's distinct-edge count, mirroring the paper's fixed 2 MB / 1 GB
    settings.
    """
    env = _prepare_environment(config)
    distinct = len(env.true_frequencies)
    fixed_cells = max(64, int(distinct * config.fixed_memory_fraction))
    memory_bytes = fixed_cells * 4

    points: List[SweepPoint] = []
    for alpha in alphas:
        alpha_config = config.with_alpha(float(alpha))
        alpha_env = _prepare_environment(alpha_config)
        estimators = _build_estimators(alpha_env, memory_bytes, SCENARIO_WORKLOAD)
        cells: Dict[str, AccuracyCell] = {}
        for method, (estimator, construction_seconds) in estimators.items():
            edge_result, subgraph_result, edge_seconds, subgraph_seconds = _evaluate(
                estimator, alpha_env, SCENARIO_WORKLOAD, include_subgraphs
            )
            cells[method] = AccuracyCell(
                method=method,
                edge_result=edge_result,
                subgraph_result=subgraph_result,
                construction_seconds=construction_seconds,
                edge_query_seconds=edge_seconds,
                subgraph_query_seconds=subgraph_seconds,
            )
        points.append(SweepPoint(label=f"alpha={alpha}", memory_bytes=memory_bytes, cells=cells))
    return MemorySweepResult(dataset=config.dataset, scenario="alpha-sweep", points=tuple(points))


@dataclass(frozen=True)
class OutlierSweepPoint:
    """Table 1 row: overall gSketch error vs. outlier-only error."""

    memory_bytes: int
    gsketch_error: float
    outlier_error: Optional[float]
    outlier_query_count: int


@functools.lru_cache(maxsize=8)
def run_outlier_experiment(config: ExperimentConfig) -> Tuple[OutlierSweepPoint, ...]:
    """Reproduce Table 1: error of queries answered by the outlier sketch.

    For each memory budget the gSketch is built from the data sample, the
    whole stream is ingested, and the uniform edge query set is split into
    queries answered by partitioned sketches vs. the outlier sketch; average
    relative errors are reported for the full set and the outlier subset.
    """
    env = _prepare_environment(config)
    rows: List[OutlierSweepPoint] = []
    for memory_bytes in env.memory_budgets:
        sketch_config = _gsketch_config(config, memory_bytes)
        engine = (
            SketchEngine.builder()
            .config(sketch_config)
            .sample(env.sample)
            .stream_size_hint(len(env.stream))
            .build()
        )
        engine.ingest(env.stream)
        gsketch = engine.estimator

        all_result = evaluate_edge_queries(
            gsketch.query_edge,
            env.uniform_queries,
            env.true_frequencies,
            threshold=config.effectiveness_threshold,
        )
        outlier_queries = [
            q for q in env.uniform_queries if gsketch.is_outlier_query(q.key)
        ]
        outlier_error = None
        if outlier_queries:
            outlier_result = evaluate_edge_queries(
                gsketch.query_edge,
                outlier_queries,
                env.true_frequencies,
                threshold=config.effectiveness_threshold,
            )
            outlier_error = outlier_result.average_relative_error
        rows.append(
            OutlierSweepPoint(
                memory_bytes=memory_bytes,
                gsketch_error=all_result.average_relative_error,
                outlier_error=outlier_error,
                outlier_query_count=len(outlier_queries),
            )
        )
    return tuple(rows)


def clear_caches() -> None:
    """Drop all cached environments and sweep results (mainly for tests)."""
    _prepare_environment.cache_clear()
    run_memory_sweep.cache_clear()
    run_alpha_sweep.cache_clear()
    run_outlier_experiment.cache_clear()
