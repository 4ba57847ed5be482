"""Vectorized routing of edge blocks to destination partitions.

The single-edge path resolves one dictionary lookup and one hash per element.
:class:`BatchRouter` instead takes a columnar :class:`~repro.graph.batch.EdgeBatch`
and produces, in one vectorized pass:

1. the destination partition of every element
   (:meth:`~repro.core.router.VertexRouter.route_batch`: one direct-address
   ``take`` for dense integer label spaces, one ``searchsorted`` for sparse
   ones);
2. the canonical uint64 sketch key of every element
   (:meth:`~repro.graph.batch.EdgeBatch.hashed_keys`: the endpoints folded
   into one word, then one vectorized splitmix64 pass);
3. per-partition contiguous groups, obtained from a single stable argsort of
   the partition vector, so each group can be handed to one partition
   sketch whole.

The grouped form serves the per-partition *direct* query paths
(``query_edges_direct``, ``confidence_batch_direct``), which are the parity
oracles for the compiled query plan.  Batch ingest needs no grouping: the
one apply kernel (:func:`~repro.sketches.arena.apply_batch`) scatters a whole
routed batch across every partition at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.router import VertexRouter
from repro.graph.batch import EdgeBatch


@dataclass(frozen=True)
class PartitionGroup:
    """All elements of one batch bound for one partition.

    Attributes:
        partition: destination partition index
            (:data:`~repro.core.router.OUTLIER_PARTITION` for the outlier).
        keys: canonical uint64 edge keys, in arrival order.
        positions: positions of these elements in the originating batch, used
            to scatter per-group query results back into batch order.
    """

    partition: int
    keys: np.ndarray
    positions: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class RoutedBatch:
    """The result of routing one :class:`~repro.graph.batch.EdgeBatch`.

    Attributes:
        groups: per-partition groups, ordered by partition index (the outlier
            group, if any, comes first because its sentinel is -1).
    """

    groups: Tuple[PartitionGroup, ...]


class BatchRouter:
    """Groups a columnar edge block by destination partition, vectorized."""

    def __init__(self, router: VertexRouter) -> None:
        self._router = router

    @property
    def router(self) -> VertexRouter:
        """The underlying vertex → partition hash structure ``H``."""
        return self._router

    def route(self, batch: EdgeBatch) -> RoutedBatch:
        """Route one batch: hash keys, resolve partitions, group contiguously."""
        if len(batch) == 0:
            return RoutedBatch(groups=())
        partitions = self._router.route_batch(batch.sources)
        keys = batch.hashed_keys()

        order = np.argsort(partitions, kind="stable")
        sorted_partitions = partitions[order]
        boundaries = np.flatnonzero(sorted_partitions[1:] != sorted_partitions[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_partitions)]))

        groups = []
        for start, end in zip(starts.tolist(), ends.tolist()):
            positions = order[start:end]
            groups.append(
                PartitionGroup(
                    partition=int(sorted_partitions[start]),
                    keys=keys[positions],
                    positions=positions,
                )
            )
        return RoutedBatch(groups=tuple(groups))

    def route_edges(self, edges: Sequence) -> RoutedBatch:
        """Route bare ``(source, target)`` pairs (query-time convenience)."""
        return self.route(EdgeBatch.from_edge_keys(edges))
