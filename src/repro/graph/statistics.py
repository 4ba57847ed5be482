"""Columnar vertex-level statistics used by the sketch partitioner.

The partitioning algorithms never see true edge frequencies.  They work from a
small data sample and use, per source vertex ``m``:

* the estimated relative vertex frequency ``f̃_v(m)`` (Equation 2),
* the estimated out degree ``d̃(m)`` (Equation 3),
* the derived average outgoing edge frequency ``f̃_v(m) / d̃(m)``.

:class:`VertexStatistics` stores these **columnar**: vertices are interned
once into an id column with parallel ``float64`` frequency/degree arrays.
Every derived statistic the offline build path needs — sort keys, prefix sums,
scaling, extrapolation — is then an array kernel instead of a per-vertex dict
walk.  Scalar accessors (:meth:`~VertexStatistics.frequency`,
:meth:`~VertexStatistics.degree`) remain for point lookups and for the scalar
reference partitioner the equivalence tests compare against.

:func:`variance_ratio` computes the σG/σV statistic of Section 6.1, which the
paper uses to demonstrate local similarity (per-vertex edge-frequency variance
is much smaller than global variance).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.stream import GraphStream


def int_label_array(labels: Sequence[Hashable]) -> Optional[np.ndarray]:
    """``int64`` array for a genuinely integer label space, else ``None``.

    The router's vectorized-lookup rule: booleans, labels outside ``int64``
    and mixed label spaces fall back to dictionary lookups.
    """
    for label in labels:
        if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
            return None
    try:
        return np.asarray(labels, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return None


class VertexStatistics:
    """Per-source-vertex statistics extracted from a data sample, columnar.

    The canonical representation is three parallel columns over the interned
    vertex order: the vertex ids, ``f̃_v`` and ``d̃``.  The legacy mapping views
    (:attr:`vertex_frequency`, :attr:`out_degree`) are materialized lazily and
    cached, so scalar consumers pay for a dictionary only if they ask for one.

    Args:
        vertex_frequency: mapping ``m -> f̃_v(m)`` (sampled frequency mass of
            edges emanating from ``m``).
        out_degree: mapping ``m -> d̃(m)`` (distinct sampled out-edges; may be
            fractional after :meth:`scaled` / :meth:`extrapolated`).
        total_frequency: total frequency mass of the sample.
    """

    __slots__ = (
        "total_frequency",
        "_ids",
        "_freq",
        "_deg",
        "_int_ids",
        "_int_sorter",
        "_index",
        "_freq_map",
        "_deg_map",
    )

    def __init__(
        self,
        vertex_frequency: Mapping[Hashable, float],
        out_degree: Mapping[Hashable, float],
        total_frequency: float = 0.0,
    ) -> None:
        ids: List[Hashable] = list(vertex_frequency.keys())
        extras = [v for v in out_degree.keys() if v not in vertex_frequency]
        if extras:
            # Degenerate hand-built input: every vertex must have a frequency
            # entry so the canonical columns stay parallel.
            ids.extend(extras)
        freq = np.fromiter(
            (vertex_frequency.get(v, 0.0) for v in ids), dtype=np.float64, count=len(ids)
        )
        deg = np.fromiter(
            (out_degree.get(v, 0.0) for v in ids), dtype=np.float64, count=len(ids)
        )
        self._init_columns(ids, freq, deg, float(total_frequency))

    def _init_columns(
        self,
        ids: List[Hashable],
        frequencies: np.ndarray,
        degrees: np.ndarray,
        total_frequency: float,
    ) -> None:
        self._ids = ids
        self._freq = frequencies
        self._deg = degrees
        self.total_frequency = total_frequency
        self._int_ids = int_label_array(ids)
        self._int_sorter: Optional[np.ndarray] = None
        self._index: Optional[Dict[Hashable, int]] = None
        self._freq_map: Optional[Dict[Hashable, float]] = None
        self._deg_map: Optional[Dict[Hashable, float]] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_columns(
        cls,
        ids: Sequence[Hashable],
        frequencies: np.ndarray,
        degrees: np.ndarray,
        total_frequency: float,
    ) -> "VertexStatistics":
        """Build directly from parallel columns (the vectorized fast path)."""
        if not (len(ids) == len(frequencies) == len(degrees)):
            raise ValueError("ids, frequencies and degrees must be parallel columns")
        stats = cls.__new__(cls)
        stats._init_columns(
            list(ids),
            np.asarray(frequencies, dtype=np.float64),
            np.asarray(degrees, dtype=np.float64),
            float(total_frequency),
        )
        return stats

    def _derived(
        self,
        ids: List[Hashable],
        frequencies: np.ndarray,
        degrees: np.ndarray,
        total_frequency: float,
        int_ids: Optional[np.ndarray],
    ) -> "VertexStatistics":
        """Derived-copy constructor that reuses the already-known interning.

        ``scaled``/``extrapolated``/``restricted_to`` preserve (a subset of)
        the id column, so re-running the per-label ``int_label_array`` walk
        would be a wasted O(n) Python pass on the build hot path.
        """
        stats = self.__class__.__new__(self.__class__)
        stats._ids = ids
        stats._freq = frequencies
        stats._deg = degrees
        stats.total_frequency = total_frequency
        stats._int_ids = int_ids
        stats._int_sorter = None
        stats._index = None
        stats._freq_map = None
        stats._deg_map = None
        return stats

    @classmethod
    def from_stream(cls, sample: GraphStream) -> "VertexStatistics":
        """Compute statistics from a (sampled) graph stream."""
        return cls(
            vertex_frequency=sample.vertex_frequencies(),
            out_degree=sample.out_degrees(),
            total_frequency=sample.total_frequency(),
        )

    @classmethod
    def from_arrays(
        cls,
        sources: np.ndarray,
        targets: np.ndarray,
        frequencies: Optional[np.ndarray] = None,
    ) -> "VertexStatistics":
        """Fully vectorized census over integer source/target columns.

        Equivalent to :meth:`from_stream` on the materialized stream, without
        ever constructing per-element Python objects: vertex frequencies come
        from one ``np.unique`` + ``np.bincount`` pass, distinct out-degrees
        from one lexsort over the ``(source, target)`` pairs.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must have the same length")
        if frequencies is None:
            freqs = np.ones(len(sources), dtype=np.float64)
        else:
            freqs = np.asarray(frequencies, dtype=np.float64)
            if freqs.shape != sources.shape:
                raise ValueError("frequencies must align with sources")
        if len(sources) == 0:
            return cls.from_columns(
                [], np.zeros(0), np.zeros(0), 0.0
            )
        unique_sources, inverse = np.unique(sources, return_inverse=True)
        vertex_freq = np.bincount(inverse, weights=freqs, minlength=len(unique_sources))

        # Distinct (source, target) pairs via one lexsort; the first element
        # of every run of equal pairs marks one distinct out-edge.
        order = np.lexsort((targets, sources))
        s_sorted = sources[order]
        t_sorted = targets[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        np.logical_or(
            s_sorted[1:] != s_sorted[:-1], t_sorted[1:] != t_sorted[:-1], out=first[1:]
        )
        distinct_sources = s_sorted[first]
        degree = np.bincount(
            np.searchsorted(unique_sources, distinct_sources),
            minlength=len(unique_sources),
        ).astype(np.float64)

        return cls.from_columns(
            unique_sources.tolist(),
            vertex_freq,
            degree,
            float(freqs.sum()),
        )

    # ------------------------------------------------------------------ #
    # Columnar accessors (the build path)
    # ------------------------------------------------------------------ #
    @property
    def ids(self) -> List[Hashable]:
        """The interned vertex labels, in canonical column order."""
        return self._ids

    @property
    def frequencies(self) -> np.ndarray:
        """``f̃_v`` column, parallel to :attr:`ids` (read-only by convention)."""
        return self._freq

    @property
    def degrees(self) -> np.ndarray:
        """``d̃`` column, parallel to :attr:`ids` (read-only by convention)."""
        return self._deg

    @property
    def int_ids(self) -> Optional[np.ndarray]:
        """``int64`` id column when the label space is pure integers, else ``None``."""
        return self._int_ids

    def average_frequencies(self) -> np.ndarray:
        """``f̃_v / d̃`` column; 0.0 where the sampled degree is zero."""
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = np.where(self._deg > 0, self._freq / self._deg, 0.0)
        return avg

    def indices_of(self, vertices: Sequence[Hashable]) -> np.ndarray:
        """Column positions of ``vertices`` (-1 for labels absent from the sample)."""
        if self._int_ids is not None and len(self._int_ids):
            try:
                arr = np.asarray(vertices)
            except ValueError:
                arr = None  # ragged label sequence; use the dict path
            if arr is not None and arr.ndim == 1 and arr.dtype.kind in "iu" and arr.dtype != np.uint64:
                arr = arr.astype(np.int64, copy=False)
                if self._int_sorter is None:
                    self._int_sorter = np.argsort(self._int_ids, kind="stable")
                sorter = self._int_sorter
                sorted_ids = self._int_ids[sorter]
                positions = np.searchsorted(sorted_ids, arr)
                clipped = np.minimum(positions, len(sorted_ids) - 1)
                found = sorted_ids[clipped] == arr
                return np.where(found, sorter[clipped], -1).astype(np.int64)
        index = self._vertex_index()
        return np.fromiter(
            (index.get(v, -1) for v in vertices), dtype=np.int64, count=len(vertices)
        )

    def columns_for(self, vertices: Sequence[Hashable]) -> Tuple[np.ndarray, np.ndarray]:
        """``(frequencies, degrees)`` gathered for an arbitrary vertex sequence.

        Labels absent from the sample contribute zeros, matching the scalar
        accessors' defaults.
        """
        if len(self._ids) == 0:
            zeros = np.zeros(len(vertices), dtype=np.float64)
            return zeros, zeros.copy()
        positions = self.indices_of(vertices)
        present = positions >= 0
        freq = np.where(present, self._freq[np.maximum(positions, 0)], 0.0)
        deg = np.where(present, self._deg[np.maximum(positions, 0)], 0.0)
        return freq, deg

    def frequency_sum(self, vertices: Sequence[Hashable]) -> float:
        """``sum_m f̃_v(m)`` over a vertex sequence, vectorized."""
        if not len(vertices):
            return 0.0
        freq, _deg = self.columns_for(vertices)
        return float(freq.sum())

    # ------------------------------------------------------------------ #
    # Scalar / mapping compatibility
    # ------------------------------------------------------------------ #
    def _vertex_index(self) -> Dict[Hashable, int]:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._ids)}
        return self._index

    @property
    def vertex_frequency(self) -> Dict[Hashable, float]:
        """``f̃_v`` as a mapping (lazily materialized and cached)."""
        if self._freq_map is None:
            self._freq_map = dict(zip(self._ids, self._freq.tolist()))
        return self._freq_map

    @property
    def out_degree(self) -> Dict[Hashable, float]:
        """``d̃`` as a mapping (lazily materialized and cached)."""
        if self._deg_map is None:
            self._deg_map = dict(zip(self._ids, self._deg.tolist()))
        return self._deg_map

    def vertices(self) -> List[Hashable]:
        """The source vertices covered by the sample."""
        return list(self._ids)

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self._vertex_index()

    def __len__(self) -> int:
        return len(self._ids)

    def frequency(self, vertex: Hashable) -> float:
        """``f̃_v(vertex)``; 0 for vertices absent from the sample."""
        return self.vertex_frequency.get(vertex, 0.0)

    def degree(self, vertex: Hashable) -> float:
        """``d̃(vertex)``; 0 for vertices absent from the sample."""
        return self.out_degree.get(vertex, 0)

    def average_edge_frequency(self, vertex: Hashable) -> float:
        """``f̃_v(m) / d̃(m)``, the estimated mean frequency of ``m``'s out-edges.

        Vertices with zero sampled out-degree have undefined average frequency;
        this returns 0.0 for them, which routes them toward the cheap end of
        the sorted order.
        """
        degree = self.degree(vertex)
        if degree <= 0:
            return 0.0
        return self.frequency(vertex) / degree

    # ------------------------------------------------------------------ #
    # Derived statistics (array kernels)
    # ------------------------------------------------------------------ #
    def restricted_to(self, vertices: Iterable[Hashable]) -> "VertexStatistics":
        """Statistics restricted to a subset of vertices (used by tree splits)."""
        vertex_set = set(vertices)
        mask = np.fromiter(
            (v in vertex_set for v in self._ids), dtype=bool, count=len(self._ids)
        )
        kept_ids = [v for v, keep in zip(self._ids, mask) if keep]
        freq = self._freq[mask]
        return self._derived(
            kept_ids,
            freq,
            self._deg[mask],
            float(freq.sum()),
            self._int_ids[mask] if self._int_ids is not None else None,
        )

    def scaled(self, factor: float) -> "VertexStatistics":
        """Statistics with both frequencies and degrees multiplied by ``factor``.

        Linear degree scaling over-estimates the true out-degree of vertices
        whose edges are heavy (every occurrence of the same edge is counted
        again); prefer :meth:`extrapolated` when the sample fraction is known.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        return self._derived(
            self._ids,
            self._freq * factor,
            self._deg * factor,
            self.total_frequency * factor,
            self._int_ids,
        )

    def extrapolated(self, sample_fraction: float) -> "VertexStatistics":
        """Statistics extrapolated from a ``sample_fraction`` element sample.

        The split objectives (Equations 9 and 11) are scale-invariant, but the
        partitioning-termination criterion of Theorem 1 and the width
        shrinking of criterion-2 leaves compare ``sum_m d̃(m)`` against
        absolute sketch widths, so the sample counts must be extrapolated to
        stream scale:

        * vertex frequencies scale by ``1 / p`` (unbiased for element
          sampling);
        * out-degrees use a capture-probability correction: an edge of true
          frequency ``f`` is present in the sample with probability
          ``1 - (1 - p)^f``, so with ``a = f̃_v / d̃`` the observed average
          per-edge sample count, the true degree is estimated as
          ``d̃ / (1 - (1 - p)^(a / p))``.  Heavy-edge vertices keep their
          observed degree (all of their edges were seen) while
          frequency-one vertices scale by ``~1/p``.
        """
        if not 0 < sample_fraction <= 1:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        p = sample_fraction
        if p == 1.0:
            return self
        scale = 1.0 / p
        observed = self._deg
        with np.errstate(divide="ignore", invalid="ignore"):
            average_sample_count = np.maximum(
                1.0, np.where(observed > 0, self._freq / observed, 1.0)
            )
        estimated_true_freq = average_sample_count / p
        capture_probability = 1.0 - (1.0 - p) ** estimated_true_freq
        degrees = np.where(
            observed > 0, observed / np.maximum(capture_probability, p), 0.0
        )
        return self._derived(
            self._ids,
            self._freq * scale,
            degrees,
            self.total_frequency * scale,
            self._int_ids,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VertexStatistics(vertices={len(self._ids)}, "
            f"N={self.total_frequency:.1f})"
        )


def _group_codes(labels: Sequence[Hashable]) -> np.ndarray:
    """Dense group codes for a label sequence, vectorized where possible."""
    try:
        arr = np.asarray(labels)
    except ValueError:
        arr = None  # ragged label sequence (e.g. mixed-arity tuples)
    if arr is not None and arr.ndim == 1 and arr.dtype.kind in "iufUS":
        _unique, inverse = np.unique(arr, return_inverse=True)
        return inverse
    codes: Dict[Hashable, int] = {}
    return np.fromiter(
        (codes.setdefault(label, len(codes)) for label in labels),
        dtype=np.int64,
        count=len(labels),
    )


def variance_ratio(stream: GraphStream) -> float:
    """Compute σG / σV for a stream (Section 6.1).

    σG is the variance of the exact frequencies of all distinct edges.  σV is
    the average, over source vertices with at least one out-edge, of the
    variance of the frequencies of that vertex's out-edges (single-edge
    vertices contribute zero variance).  A ratio well above 1 indicates the
    local-similarity property gSketch exploits.

    Grouping is one ``np.unique`` pass over the source column plus two
    ``np.bincount`` reductions (the classic two-pass variance), replacing the
    per-vertex Python list build and the per-vertex ``np.var`` calls.

    Raises:
        ValueError: if the stream has no edges.
    """
    frequencies = stream.edge_frequencies()
    if not frequencies:
        raise ValueError("cannot compute a variance ratio on an empty stream")
    values = np.fromiter(
        frequencies.values(), dtype=np.float64, count=len(frequencies)
    )
    global_variance = float(values.var())

    codes = _group_codes([source for source, _target in frequencies.keys()])
    counts = np.bincount(codes).astype(np.float64)
    sums = np.bincount(codes, weights=values)
    means = sums / counts
    squared_deviations = np.bincount(codes, weights=(values - means[codes]) ** 2)
    local_variances = squared_deviations / counts
    average_local_variance = float(local_variances.mean())

    if average_local_variance == 0.0:
        return float("inf") if global_variance > 0 else 1.0
    return global_variance / average_local_variance


def frequency_skew_summary(stream: GraphStream) -> Tuple[float, float, float]:
    """Return ``(mean, p99, max)`` of distinct-edge frequencies.

    A convenience diagnostic used by dataset tests to verify that generated
    streams are heavy-tailed (the global-heterogeneity property of
    Section 3.3).
    """
    frequencies = stream.edge_frequencies()
    if not frequencies:
        raise ValueError("cannot summarize an empty stream")
    values = np.fromiter(
        frequencies.values(), dtype=np.float64, count=len(frequencies)
    )
    return float(values.mean()), float(np.percentile(values, 99)), float(values.max())
