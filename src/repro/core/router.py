"""The vertex → partition hash structure ``H`` (Section 5).

Sketch partitioning is an offline pre-processing step; at stream time every
incoming edge ``(m, n)`` is routed by its *source vertex* ``m`` to the
localized sketch ``H(m)``.  Vertices that never appeared in the data sample
are routed to the dedicated outlier partition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.partition_tree import PartitionTree

#: Sentinel partition index meaning "the outlier sketch".
OUTLIER_PARTITION = -1


class VertexRouter:
    """Maps source vertices to partition indices.

    Args:
        assignments: mapping from vertex to partition index (leaf index in the
            partitioning tree).
        num_partitions: number of non-outlier partitions; indices in
            ``assignments`` must lie in ``[0, num_partitions)``.
    """

    def __init__(self, assignments: Mapping[Hashable, int], num_partitions: int) -> None:
        if num_partitions < 0:
            raise ValueError("num_partitions must be >= 0")
        for vertex, index in assignments.items():
            if not 0 <= index < num_partitions:
                raise ValueError(
                    f"vertex {vertex!r} assigned to partition {index}, but only "
                    f"{num_partitions} partitions exist"
                )
        self._assignments: Dict[Hashable, int] = dict(assignments)
        self._num_partitions = num_partitions
        self._int_lookup = self._build_int_lookup()

    @classmethod
    def from_arrays(
        cls,
        labels: Sequence[Hashable],
        int_labels: Optional[np.ndarray],
        partitions: np.ndarray,
        num_partitions: int,
    ) -> "VertexRouter":
        """Build a router from parallel assignment columns, vectorized.

        Validation is one min/max reduction instead of a per-vertex range
        check, and for integer label spaces the ``searchsorted`` lookup table
        comes from a single argsort of ``int_labels`` — no per-vertex Python
        work beyond the (C-speed) construction of the scalar fallback dict.

        Args:
            labels: vertex labels, one per routed vertex.
            int_labels: the same labels as an ``int64`` array when the label
                space is pure integers, else ``None``.
            partitions: partition index per vertex, aligned with ``labels``.
            num_partitions: number of non-outlier partitions.
        """
        if num_partitions < 0:
            raise ValueError("num_partitions must be >= 0")
        partitions = np.asarray(partitions, dtype=np.int64)
        if len(partitions) != len(labels):
            raise ValueError("labels and partitions must be parallel columns")
        if len(partitions) and (
            partitions.min() < 0 or partitions.max() >= num_partitions
        ):
            raise ValueError(
                f"partition indices must lie in [0, {num_partitions}), got range "
                f"[{int(partitions.min())}, {int(partitions.max())}]"
            )
        router = cls.__new__(cls)
        router._assignments = dict(zip(labels, partitions.tolist()))
        router._num_partitions = num_partitions
        if int_labels is not None and len(int_labels) == len(labels) and len(labels):
            int_labels = np.asarray(int_labels, dtype=np.int64)
            order = np.argsort(int_labels, kind="stable")
            router._int_lookup = (int_labels[order], partitions[order])
        else:
            router._int_lookup = router._build_int_lookup()
        return router

    @classmethod
    def from_tree(cls, tree: "PartitionTree") -> "VertexRouter":
        """Build the hash structure ``H`` for a partitioning tree.

        Trees from the columnar builder carry ready-made assignment columns
        (:attr:`~repro.core.partition_tree.PartitionTree.leaf_assignments`);
        scalar-built trees fall back to the per-leaf vertex tuples.
        """
        assignments = tree.leaf_assignments
        if assignments is None:
            return cls(tree.vertex_partition_map(), num_partitions=len(tree.leaves))
        return cls.from_arrays(
            labels=assignments.labels,
            int_labels=assignments.int_labels,
            partitions=assignments.partitions,
            num_partitions=len(tree.leaves),
        )

    def _build_int_lookup(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Sorted ``(keys, partitions)`` arrays for vectorized integer routing.

        Only built when every routed vertex is a genuine integer (the common
        case for the bundled generators); mixed or non-integer label spaces
        fall back to the dictionary path.
        """
        if not self._assignments:
            return None
        keys = []
        values = []
        for vertex, index in self._assignments.items():
            if isinstance(vertex, bool) or not isinstance(vertex, (int, np.integer)):
                return None
            keys.append(int(vertex))
            values.append(index)
        try:
            key_arr = np.asarray(keys, dtype=np.int64)
        except OverflowError:
            return None
        value_arr = np.asarray(values, dtype=np.int64)
        order = np.argsort(key_arr, kind="stable")
        return key_arr[order], value_arr[order]

    @property
    def num_partitions(self) -> int:
        """Number of non-outlier partitions."""
        return self._num_partitions

    def __len__(self) -> int:
        return len(self._assignments)

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self._assignments

    def partition_of(self, vertex: Hashable) -> int:
        """Partition index for ``vertex``; :data:`OUTLIER_PARTITION` if unseen."""
        return self._assignments.get(vertex, OUTLIER_PARTITION)

    def route_batch(self, sources: Sequence[Hashable] | np.ndarray) -> np.ndarray:
        """Partition indices for a block of source vertices.

        Integer-labelled blocks are routed with one ``searchsorted`` over the
        pre-sorted assignment table; anything else falls back to per-vertex
        dictionary lookups.  The result always agrees element-wise with
        :meth:`partition_of`.

        Returns:
            ``int64`` array with one partition index per source;
            :data:`OUTLIER_PARTITION` marks vertices served by the outlier
            sketch.
        """
        arr = np.asarray(sources)
        if self._int_lookup is not None and arr.dtype.kind in "iu" and arr.dtype != np.uint64:
            keys, values = self._int_lookup
            arr = arr.astype(np.int64, copy=False)
            positions = np.searchsorted(keys, arr)
            positions_clipped = np.minimum(positions, len(keys) - 1)
            found = keys[positions_clipped] == arr
            return np.where(found, values[positions_clipped], OUTLIER_PARTITION).astype(
                np.int64
            )
        items = arr.tolist()
        return np.fromiter(
            (self._assignments.get(v, OUTLIER_PARTITION) for v in items),
            dtype=np.int64,
            count=len(arr),
        )

    def same_routing(self, other: "VertexRouter") -> bool:
        """Whether ``other`` routes every vertex to the same partition."""
        return self is other or (
            self._num_partitions == other._num_partitions
            and self._assignments == other._assignments
        )

    def is_outlier(self, vertex: Hashable) -> bool:
        """Whether ``vertex`` is served by the outlier sketch."""
        return vertex not in self._assignments

    def vertices_of(self, partition: int) -> Iterable[Hashable]:
        """All vertices routed to the given partition (slow; for diagnostics)."""
        return (v for v, p in self._assignments.items() if p == partition)

    def partition_sizes(self) -> Dict[int, int]:
        """Number of routed vertices per partition index."""
        sizes: Dict[int, int] = {}
        for index in self._assignments.values():
            sizes[index] = sizes.get(index, 0) + 1
        return sizes
