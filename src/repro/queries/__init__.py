"""Query model, workload generation, accuracy metrics, the compiled
read-optimized query plan, and the parallel read plane (shared-memory
reader pool + scratch-staged gather kernel)."""

from repro.queries.aggregate import AGGREGATES, AggregateFunction, get_aggregate
from repro.queries.edge_query import EdgeQuery
from repro.queries.evaluation import (
    EvaluationResult,
    average_relative_error,
    effective_query_count,
    evaluate_edge_queries,
    evaluate_subgraph_queries,
    relative_error,
)
from repro.queries.kernels import NumpyScratchKernel
from repro.queries.plan import (
    CompiledQueryPlan,
    HotEdgeCache,
    PlanServingMixin,
    demux_by_counts,
)
from repro.queries.subgraph_query import SubgraphQuery
from repro.queries.workload import (
    QueryWorkload,
    bfs_subgraph_queries,
    uniform_edge_queries,
    zipf_edge_queries,
    zipf_subgraph_queries,
)

__all__ = [
    "AGGREGATES",
    "AggregateFunction",
    "CompiledQueryPlan",
    "EdgeQuery",
    "EvaluationResult",
    "HotEdgeCache",
    "NumpyScratchKernel",
    "PlanConfig",
    "PlanServingMixin",
    "QueryWorkload",
    "ReaderPool",
    "ReaderPoolError",
    "ReaderSupervisor",
    "ReaderWorkerError",
    "SubgraphQuery",
    "average_relative_error",
    "bfs_subgraph_queries",
    "demux_by_counts",
    "effective_query_count",
    "evaluate_edge_queries",
    "evaluate_subgraph_queries",
    "get_aggregate",
    "relative_error",
    "uniform_edge_queries",
    "zipf_edge_queries",
    "zipf_subgraph_queries",
]

#: Reader-pool names re-exported lazily: ``repro.queries.parallel`` pulls in
#: the distributed package, which circularly imports the core estimators
#: while *they* are importing the plan mixin from this package.  PEP 562
#: deferral keeps ``from repro.queries import ReaderPool`` working without
#: eagerly completing that cycle at package-import time.
_PARALLEL_EXPORTS = frozenset(
    {
        "PlanConfig",
        "ReaderPool",
        "ReaderPoolError",
        "ReaderSupervisor",
        "ReaderWorkerError",
    }
)


def __getattr__(name: str):
    if name in _PARALLEL_EXPORTS:
        from repro.queries import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
