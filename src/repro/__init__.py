"""repro — a reproduction of "gSketch: On Query Estimation in Graph Streams".

The library provides:

* :class:`~repro.core.gsketch.GSketch` — the partitioned graph-stream sketch
  (the paper's contribution), built from a data sample and optionally a query
  workload sample;
* :class:`~repro.core.global_sketch.GlobalSketch` — the single-sketch baseline;
* the stream-synopsis substrates in :mod:`repro.sketches`;
* the graph-stream model, sampling and statistics in :mod:`repro.graph`;
* query objects and accuracy metrics in :mod:`repro.queries`;
* synthetic dataset generators in :mod:`repro.datasets`;
* the concurrent query-serving tier (TCP server, cross-client batch
  coalescing, admission control) in :mod:`repro.serving`;
* the experiment harness regenerating every paper figure in
  :mod:`repro.experiments`.

Quickstart (the unified API in :mod:`repro.api` is the canonical surface)::

    from repro import EdgeQuery, GSketchConfig, SketchEngine
    from repro.datasets import load_dataset

    stream = load_dataset("dblp-tiny").stream
    engine = (SketchEngine.builder()
              .config(GSketchConfig.from_memory_bytes(64_000))
              .dataset(stream)
              .build())
    engine.ingest(stream)
    estimate = engine.query(EdgeQuery(*next(iter(stream.distinct_edges()))))
    estimate.value, estimate.interval.lower, estimate.provenance.partition
"""

from repro.api.engine import EngineBuilder, EngineError, SketchEngine
from repro.api.protocol import Estimator
from repro.api.queries import WindowQuery
from repro.api.results import Estimate, Provenance
from repro.api.snapshot import (
    SnapshotError,
    load_checkpoint,
    load_snapshot,
    save_checkpoint,
    save_snapshot,
)
from repro.core.config import GSketchConfig
from repro.core.global_sketch import GlobalSketch
from repro.core.gsketch import GSketch
from repro.core.windowed import WindowedGSketch
from repro.faults import FaultPlan, FaultSpec
from repro.graph.batch import EdgeBatch
from repro.graph.edge import StreamEdge
from repro.graph.stream import GraphStream
from repro.queries.edge_query import EdgeQuery
from repro.queries.plan import CompiledQueryPlan
from repro.queries.subgraph_query import SubgraphQuery
from repro.serving import (
    ServingClient,
    ServingConfig,
    SketchServer,
    SyncServingClient,
    SyncSession,
)
from repro.sketches.countmin import CountMinSketch

__version__ = "1.0.0"

__all__ = [
    "CompiledQueryPlan",
    "CountMinSketch",
    "EdgeBatch",
    "EdgeQuery",
    "EngineBuilder",
    "EngineError",
    "Estimate",
    "Estimator",
    "FaultPlan",
    "FaultSpec",
    "GSketch",
    "GSketchConfig",
    "GlobalSketch",
    "GraphStream",
    "Provenance",
    "ServingClient",
    "ServingConfig",
    "SketchEngine",
    "SketchServer",
    "SnapshotError",
    "SyncServingClient",
    "SyncSession",
    "StreamEdge",
    "SubgraphQuery",
    "WindowQuery",
    "WindowedGSketch",
    "__version__",
    "load_checkpoint",
    "load_snapshot",
    "save_checkpoint",
    "save_snapshot",
]
