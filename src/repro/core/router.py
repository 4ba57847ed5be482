"""The vertex → partition hash structure ``H`` (Section 5).

Sketch partitioning is an offline pre-processing step; at stream time every
incoming edge ``(m, n)`` is routed by its *source vertex* ``m`` to the
localized sketch ``H(m)``.  Vertices that never appeared in the data sample
are routed to the dedicated outlier partition.

Integer label spaces are routed without a per-vertex Python step.  Dense
ones (every bundled generator's) use a direct-address table: one subtraction
and one clipped ``take`` per block.  Sparse ones (hashed ids, IP addresses)
use one ``searchsorted`` over the sorted assignment table.  Any other label
space goes through the assignment dictionary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.graph.batch import label_column
from repro.graph.statistics import int_label_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.partition_tree import PartitionTree

#: Sentinel partition index meaning "the outlier sketch".
OUTLIER_PARTITION = -1

#: A direct-address table is built only when the label span is at most this
#: many slots per routed vertex: 64 B per vertex, less than the assignment
#: dictionary already holds for each.
DIRECT_SLOTS_PER_VERTEX = 8

#: Direct-address tables are built only for labels inside ±2^62: the base
#: ``lo − 1`` stays an int64, and a ``label − base`` subtraction that wraps
#: (probes near ±2^63) lands far outside the table, where the clip sends it
#: to a sentinel slot.
_DIRECT_LABEL_LIMIT = 1 << 62


class _DirectTable:
    """Partition per label, indexed by ``label − (lo − 1)``.

    Slot 0 and the slot after ``hi`` are outlier sentinels; a clipped
    ``take`` sends every label outside ``[lo, hi]`` onto one of them, and
    every unrouted label inside the span holds the outlier too.
    """

    __slots__ = ("base", "table")
    kind = "direct"

    def __init__(self, keys: np.ndarray, partitions: np.ndarray, lo: int, hi: int) -> None:
        # An int64 scalar, so narrower integer blocks subtract in int64.
        self.base = np.int64(lo - 1)
        self.table = np.full(hi - lo + 3, OUTLIER_PARTITION, dtype=np.int64)
        self.table[keys - self.base] = partitions

    def route(self, labels: np.ndarray) -> np.ndarray:
        return self.table.take(labels - self.base, mode="clip")


class _SortedTable:
    """Sorted ``(keys, partitions)`` columns, probed with ``searchsorted``."""

    __slots__ = ("keys", "partitions")
    kind = "sorted"

    def __init__(self, keys: np.ndarray, partitions: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.partitions = partitions[order]

    def route(self, labels: np.ndarray) -> np.ndarray:
        labels = labels.astype(np.int64, copy=False)
        positions = np.minimum(np.searchsorted(self.keys, labels), len(self.keys) - 1)
        return np.where(
            self.keys[positions] == labels, self.partitions[positions], OUTLIER_PARTITION
        )


_IntTable = Union[_DirectTable, _SortedTable]


def _int_table(keys: np.ndarray, partitions: np.ndarray) -> Optional[_IntTable]:
    """The vectorized lookup for integer ``keys`` (``None`` when empty).

    A direct-address table when the span is dense enough and inside
    ±2^62, else the sorted table.
    """
    if not len(keys):
        return None
    lo, hi = int(keys.min()), int(keys.max())
    if (
        -_DIRECT_LABEL_LIMIT <= lo
        and hi <= _DIRECT_LABEL_LIMIT
        and hi - lo < DIRECT_SLOTS_PER_VERTEX * len(keys)
    ):
        return _DirectTable(keys, partitions, lo, hi)
    return _SortedTable(keys, partitions)


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
        self._int_table = self._table_from_assignments()

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
        check, and for integer label spaces the lookup table (direct-address
        or sorted) is built from ``int_labels`` by array writes — no
        per-vertex Python work beyond the (C-speed) construction of the
        scalar fallback dict.

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
        if int_labels is not None and len(int_labels) == len(labels):
            router._int_table = _int_table(np.asarray(int_labels, dtype=np.int64), partitions)
        else:
            router._int_table = router._table_from_assignments()
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

    def _table_from_assignments(self) -> Optional[_IntTable]:
        """The vectorized lookup, built from the assignment dictionary.

        Only built when every routed vertex is a genuine integer (the common
        case for the bundled generators); mixed or non-integer label spaces
        fall back to the dictionary path.
        """
        keys = int_label_array(list(self._assignments))
        if keys is None:
            return None
        partitions = np.fromiter(self._assignments.values(), dtype=np.int64, count=len(keys))
        return _int_table(keys, partitions)

    def __getstate__(self) -> dict:
        # The lookup table is derived data: pickles (snapshots, checkpoints)
        # carry only the assignments, so a state written with another table
        # layout still loads.
        return {"_assignments": self._assignments, "_num_partitions": self._num_partitions}

    def __setstate__(self, state: dict) -> None:
        self._assignments = state["_assignments"]
        self._num_partitions = state["_num_partitions"]
        self._int_table = self._table_from_assignments()

    @property
    def num_partitions(self) -> int:
        """Number of non-outlier partitions."""
        return self._num_partitions

    def __len__(self) -> int:
        return len(self._assignments)

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self._assignments

    @property
    def lookup(self) -> str:
        """How :meth:`route_batch` resolves integer blocks: ``"direct"``
        (direct-address table), ``"sorted"`` (``searchsorted``) or ``"dict"``
        (per-vertex dictionary lookups, for non-integer label spaces)."""
        return "dict" if self._int_table is None else self._int_table.kind

    def partition_of(self, vertex: Hashable) -> int:
        """Partition index for ``vertex``; :data:`OUTLIER_PARTITION` if unseen."""
        return self._assignments.get(vertex, OUTLIER_PARTITION)

    def route_batch(self, sources: Sequence[Hashable] | np.ndarray) -> np.ndarray:
        """Partition indices for a block of source vertices.

        Integer-labelled blocks (any integer dtype but ``uint64``) of an
        integer label space are routed through the lookup table: one
        subtraction and one clipped ``take`` on a dense label space, one
        ``searchsorted`` on a sparse one.  Anything else falls back to
        per-vertex dictionary lookups.  The result always agrees element-wise
        with :meth:`partition_of`.

        Returns:
            ``int64`` array with one partition index per source;
            :data:`OUTLIER_PARTITION` marks vertices served by the outlier
            sketch.
        """
        # ``label_column``, not ``np.asarray``: a bare conversion turns mixed
        # int/str labels into strings and tuple labels into a 2-D block.
        arr = sources if isinstance(sources, np.ndarray) else label_column(list(sources))
        if self._int_table is not None and arr.dtype.kind in "iu" and arr.dtype != np.uint64:
            return self._int_table.route(arr)
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
