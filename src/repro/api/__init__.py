"""repro.api — the unified estimator API.

This package is the canonical way to build, ingest into, query and persist
any estimator backend:

* :class:`~repro.api.protocol.Estimator` — the structural Protocol all three
  backends (:class:`~repro.core.gsketch.GSketch`,
  :class:`~repro.core.global_sketch.GlobalSketch`,
  :class:`~repro.core.windowed.WindowedGSketch`) implement;
* typed queries (:class:`EdgeQuery`, :class:`SubgraphQuery`,
  :class:`WindowQuery`) and typed results (:class:`Estimate`,
  :class:`Provenance`, :class:`ConfidenceInterval`);
* :class:`~repro.api.engine.SketchEngine` — the facade owning the
  build → ingest → query → snapshot/restore lifecycle, with a fluent
  :meth:`~repro.api.engine.SketchEngine.builder`;
* the versioned snapshot format (:func:`save_snapshot`,
  :func:`load_snapshot`) that round-trips every backend;
* the ``python -m repro`` CLI (:mod:`repro.api.cli`).

Quickstart::

    from repro.api import EdgeQuery, SketchEngine

    engine = (SketchEngine.builder()
              .config(total_cells=60_000, depth=4, seed=7)
              .dataset(stream)            # or .sample(...) / .workload(...)
              # .windowed(86400.0)        # or: one estimator per time window
              .build())
    engine.ingest(stream)
    estimate = engine.query(EdgeQuery("alice", "bob"))
    engine.save("sketch.snap")
    restored = SketchEngine.load("sketch.snap")
"""

from repro.api.engine import DEFAULT_SAMPLE_SIZE, EngineBuilder, EngineError, SketchEngine
from repro.api.protocol import (
    BACKEND_GLOBAL,
    BACKEND_GSKETCH,
    BACKEND_WINDOWED,
    Estimator,
)
from repro.api.queries import EdgeQuery, Query, SubgraphQuery, WindowQuery
from repro.api.results import Estimate, Provenance
from repro.api.snapshot import (
    BACKEND_CLASSES,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotError,
    backend_name,
    load_snapshot,
    save_snapshot,
)
from repro.core.estimator import ConfidenceInterval

__all__ = [
    "BACKEND_CLASSES",
    "BACKEND_GLOBAL",
    "BACKEND_GSKETCH",
    "BACKEND_WINDOWED",
    "ConfidenceInterval",
    "DEFAULT_SAMPLE_SIZE",
    "EdgeQuery",
    "EngineBuilder",
    "EngineError",
    "Estimate",
    "Estimator",
    "Provenance",
    "Query",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SketchEngine",
    "SnapshotError",
    "SubgraphQuery",
    "WindowQuery",
    "backend_name",
    "load_snapshot",
    "save_snapshot",
]
