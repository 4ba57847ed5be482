"""Query model, workload generation, accuracy metrics and the compiled
read-optimized query plan."""

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
    "PlanServingMixin",
    "QueryWorkload",
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
