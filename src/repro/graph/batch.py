"""Columnar blocks of stream elements for vectorized ingestion.

Per-element ingestion pays Python interpreter overhead for every edge: a
router dictionary lookup, a tuple hash, and a per-row modular hash.  The
batched hot path instead moves blocks of edges through the pipeline as
parallel numpy columns — sources, targets and frequencies — so that key
canonicalization (:func:`~repro.sketches.hashing.pair_keys_to_uint64`),
routing (:meth:`~repro.core.router.VertexRouter.route_batch`) and counter
updates (:func:`~repro.sketches.arena.apply_batch`) each run as a handful of
array kernels per batch.

Integer vertex labels (the common case for every bundled generator) ride the
fully vectorized path; arbitrary hashable labels fall back to per-element
canonicalization but still amortize routing and counter updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.graph.edge import StreamEdge
from repro.sketches.hashing import key_to_uint64, pair_keys_to_uint64


def label_column(values: List) -> np.ndarray:
    """Build a label column: an int64 array when possible, object otherwise.

    Only genuine integers are columnarized — floats, bools and strings keep
    their identity in an object array so hashing semantics never change.
    (A bare ``np.asarray`` would promote mixed int/str labels to strings and
    silently change routing.)
    """
    if values and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values
    ):
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            pass
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


#: Backwards-compatible internal alias.
_column = label_column


def require_valid_frequencies(frequencies: np.ndarray) -> None:
    """Reject a frequency column unless every value is finite and >= 0.

    The columnar form of :class:`~repro.graph.stream.GraphStream`'s rule.
    Every backend runs it once per batch, before any routing or counter
    write, so a rejected batch leaves the estimator untouched.
    """
    valid = (frequencies >= 0.0) & (frequencies < np.inf)
    if not valid.all():
        index = int(np.argmin(valid))
        raise ValueError(
            f"batch element {index} carries invalid frequency "
            f"{float(frequencies[index])!r}; frequencies must be finite and >= 0"
        )


@dataclass(frozen=True)
class EdgeBatch:
    """A block of stream elements stored column-wise.

    Attributes:
        sources: source labels; ``int64`` array for integer-labelled streams,
            ``object`` array otherwise.
        targets: target labels, same representation rules as ``sources``.
        frequencies: per-element frequencies as ``float64``.
        timestamps: per-element time-stamps as ``float64``.
    """

    sources: np.ndarray
    targets: np.ndarray
    frequencies: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.sources)
        if not (len(self.targets) == len(self.frequencies) == len(self.timestamps) == n):
            raise ValueError("all EdgeBatch columns must have the same length")

    @classmethod
    def from_edges(cls, edges: Sequence[StreamEdge]) -> "EdgeBatch":
        """Build a batch from stream elements (columnarizing the labels)."""
        sources = _column([e.source for e in edges])
        targets = _column([e.target for e in edges])
        frequencies = np.asarray([e.frequency for e in edges], dtype=np.float64)
        timestamps = np.asarray([e.timestamp for e in edges], dtype=np.float64)
        return cls(sources, targets, frequencies, timestamps)

    @classmethod
    def from_edge_keys(cls, keys: Sequence) -> "EdgeBatch":
        """Build a zero-frequency batch from bare ``(source, target)`` keys.

        Query paths use this to canonicalize edge keys through the same
        columnar pipeline as ingestion, so batched estimates hash
        bit-identically to per-edge lookups.
        """
        return cls.from_arrays(
            sources=_column([k[0] for k in keys]),
            targets=_column([k[1] for k in keys]),
            frequencies=np.zeros(len(keys), dtype=np.float64),
        )

    @classmethod
    def from_arrays(
        cls,
        sources: np.ndarray,
        targets: np.ndarray,
        frequencies: np.ndarray | None = None,
        timestamps: np.ndarray | None = None,
    ) -> "EdgeBatch":
        """Build a batch directly from parallel arrays (generator hot path)."""
        sources = np.asarray(sources)
        targets = np.asarray(targets)
        n = len(sources)
        if frequencies is None:
            frequencies = np.ones(n, dtype=np.float64)
        if timestamps is None:
            timestamps = np.arange(n, dtype=np.float64)
        return cls(
            sources,
            targets,
            np.asarray(frequencies, dtype=np.float64),
            np.asarray(timestamps, dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.sources)

    def slice(self, start: int, end: int) -> "EdgeBatch":
        """A zero-copy sub-batch of elements ``[start, end)`` (numpy views)."""
        return EdgeBatch(
            self.sources[start:end],
            self.targets[start:end],
            self.frequencies[start:end],
            self.timestamps[start:end],
        )

    @property
    def is_integer_labelled(self) -> bool:
        """Whether both label columns are integer arrays (vectorizable)."""
        return self.sources.dtype.kind in "iu" and self.targets.dtype.kind in "iu"

    def hashed_keys(self) -> np.ndarray:
        """Canonical uint64 edge keys, bit-identical to per-edge hashing.

        Integer labels use the vectorized splitmix64 pipeline; other labels
        fall back to :func:`~repro.sketches.hashing.key_to_uint64` per edge.
        """
        if self.is_integer_labelled:
            return pair_keys_to_uint64(self.sources, self.targets)
        return np.fromiter(
            (key_to_uint64((s, t)) for s, t in zip(self.sources, self.targets)),
            dtype=np.uint64,
            count=len(self),
        )

    def iter_edges(self) -> Iterator[StreamEdge]:
        """Re-materialize the batch as stream elements (tests, fallbacks)."""
        for s, t, ts, f in zip(self.sources, self.targets, self.timestamps, self.frequencies):
            source = int(s) if isinstance(s, np.integer) else s
            target = int(t) if isinstance(t, np.integer) else t
            yield StreamEdge(source, target, float(ts), float(f))

    def total_frequency(self) -> float:
        """Total frequency mass carried by the batch."""
        return float(self.frequencies.sum())
