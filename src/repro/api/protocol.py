"""The :class:`Estimator` Protocol: the logical query interface every backend
implements.

Production query engines separate the *logical* query surface callers program
against from the *physical* execution strategy behind it.  This module pins
down that logical surface for the three estimator backends —
:class:`~repro.core.gsketch.GSketch`,
:class:`~repro.core.global_sketch.GlobalSketch` and
:class:`~repro.core.windowed.WindowedGSketch` — so that experiments, the
:class:`~repro.api.engine.SketchEngine` facade and the ``python -m repro`` CLI
can treat any of them interchangeably.

The protocol is *structural* (:func:`typing.runtime_checkable`): backends are
not required to inherit from anything, only to expose the methods below with
compatible semantics.  For :class:`WindowedGSketch` the edge-block queries are
**lifetime** queries (summed over all opened windows); its interval-restricted
``query_edge(edge, start, end)`` surface is windowed-specific and reached
through :class:`~repro.api.queries.WindowQuery`.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.estimator import ConfidenceInterval
from repro.graph.edge import EdgeKey
from repro.queries.subgraph_query import SubgraphQuery

#: Canonical backend names, used by snapshots and provenance records.
BACKEND_GSKETCH = "gsketch"
BACKEND_GLOBAL = "global"
BACKEND_WINDOWED = "windowed"


@runtime_checkable
class Estimator(Protocol):
    """Structural interface shared by all estimator backends.

    Semantics contract (beyond the method shapes):

    * :meth:`ingest_batch` accepts an :class:`~repro.graph.batch.EdgeBatch`
      or a sequence of :class:`~repro.graph.edge.StreamEdge` and returns the
      number of elements absorbed; repeated calls are equivalent to one pass
      over the concatenated stream.
    * :meth:`query_edges` / :meth:`confidence_columns` /
      :meth:`confidence_batch` are element-wise positionally aligned with
      their input and agree with the scalar single-edge paths bit for bit.
    * :meth:`state_dict` captures the *complete* estimator state;
      ``type(est).from_state(est.state_dict())`` must answer every query
      identically to the original.
    """

    def ingest_batch(self, batch) -> int:
        """Absorb one block of stream elements; returns elements ingested."""
        ...

    def query_edges(self, edges: Sequence[EdgeKey]) -> List[float]:
        """Point estimates for a block of edge keys, positionally aligned."""
        ...

    def confidence_columns(
        self, edges: Sequence[EdgeKey]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """``(estimates, bounds, failures, partitions)`` columns for a block of
        edge keys: the point estimates, each answering partition's Equation-1
        additive bound and failure probability, and the partition ids
        (``None`` when the backend answers without a partitioning)."""
        ...

    def confidence_batch(self, edges: Sequence[EdgeKey]) -> List[ConfidenceInterval]:
        """Equation-1 confidence intervals for a block of edge keys."""
        ...

    def query_subgraph(self, query: SubgraphQuery) -> float:
        """Aggregate subgraph estimate by per-edge decomposition."""
        ...

    def state_dict(self) -> dict:
        """Complete, self-contained snapshot of the estimator state."""
        ...

    @property
    def elements_processed(self) -> int:
        """Number of stream elements ingested so far."""
        ...

    @property
    def ingest_generation(self) -> int:
        """Monotonic counter of state mutations; tags every served answer."""
        ...
