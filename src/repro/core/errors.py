"""The analytic error model that drives sketch partitioning.

Section 4 derives, for a partitioned Count-Min sketch ``S_i`` of width
``w_i`` holding a set of source vertices, the expected overall relative error
of the edges routed to it.  Because true edge frequencies are unknown, the
model substitutes vertex-level statistics from the data sample: a vertex ``m``
contributes ``d̃(m)`` edges of average frequency ``f̃_v(m) / d̃(m)``.

* Equation 6 (data sample only)::

      E_i = sum_m  d̃(m) * F̃(S_i) / (w_i * f̃_v(m)/d̃(m))  -  sum_m d̃(m) / w_i

* Equation 10 (data + workload samples) replaces the leading ``d̃(m)`` by the
  workload weight ``w̃(m)`` so that space follows querying interest::

      E_i = sum_n  w̃(n) * F̃(S_i) / (w_i * f̃_v(n)/d̃(n))  -  sum_n w̃(n) / w_i

* Equations 9 / 11 are the width-free split objectives ``E'`` minimized when a
  partitioning-tree node is split into two equal-width children.

The split-objective evaluators below run in O(n) over a sorted vertex order by
maintaining prefix sums of the two per-vertex quantities each objective needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.statistics import VertexStatistics
from repro.utils.validation import require_positive_int


def _average_frequency(stats: VertexStatistics, vertex: Hashable) -> float:
    """``f̃_v(m) / d̃(m)`` with a tiny floor to avoid division by zero."""
    avg = stats.average_edge_frequency(vertex)
    return avg if avg > 0 else 1e-12


def partition_error_data_only(
    vertices: Sequence[Hashable], stats: VertexStatistics, width: int
) -> float:
    """Expected relative error of one partition, data-sample scenario (Eq. 6)."""
    require_positive_int(width, "width")
    if not len(vertices):
        return 0.0
    freq, deg = stats.columns_for(vertices)
    total_frequency = float(freq.sum())
    contributing = deg > 0
    average = np.where(contributing, freq / np.where(contributing, deg, 1.0), 0.0)
    average = np.where(average > 0, average, 1e-12)
    error = float((deg * total_frequency / (width * average))[contributing].sum())
    degree_sum = float(deg[contributing].sum())
    return error - degree_sum / width


def partition_error_with_workload(
    vertices: Sequence[Hashable],
    stats: VertexStatistics,
    workload_weights: Mapping[Hashable, float],
    width: int,
) -> float:
    """Expected relative error of one partition, workload scenario (Eq. 10)."""
    require_positive_int(width, "width")
    if not len(vertices):
        return 0.0
    freq, deg = stats.columns_for(vertices)
    weights = np.fromiter(
        (workload_weights.get(v, 0.0) for v in vertices),
        dtype=np.float64,
        count=len(vertices),
    )
    total_frequency = float(freq.sum())
    positive = deg > 0
    average = np.where(positive, freq / np.where(positive, deg, 1.0), 0.0)
    average = np.where(average > 0, average, 1e-12)
    contributing = weights > 0
    error = float((weights * total_frequency / (width * average))[contributing].sum())
    weight_sum = float(weights[contributing].sum())
    return error - weight_sum / width


@dataclass(frozen=True)
class SplitDecision:
    """Result of evaluating every contiguous split of a sorted vertex list.

    Attributes:
        pivot: number of vertices assigned to the left child (``S_1``); the
            remaining vertices go to the right child (``S_2``).
        objective: the minimized value of ``E'``.
        order: the sorted vertex order the pivot refers to.
    """

    pivot: int
    objective: float
    order: Tuple[Hashable, ...]

    @property
    def left(self) -> Tuple[Hashable, ...]:
        return self.order[: self.pivot]

    @property
    def right(self) -> Tuple[Hashable, ...]:
        return self.order[self.pivot :]


def best_split_index(
    frequency_terms: np.ndarray, ratio_terms: np.ndarray
) -> Tuple[int, float]:
    """Minimize ``E' = F(S1) * G(S1) + F(S2) * G(S2)`` over contiguous splits.

    ``frequency_terms[i]`` is vertex ``i``'s contribution to ``F̃(S)`` and
    ``ratio_terms[i]`` its contribution to the ``sum_m coeff(m) / avg(m)``
    factor (``G``).  Both objectives 9 and 11 factor into this form, so a
    single prefix-sum pass evaluates every pivot.  This kernel is shared by
    the per-node :class:`SplitDecision` evaluators below and by the columnar
    partition-tree builder, which calls it on contiguous slices of globally
    pre-sorted term columns.

    Returns:
        ``(pivot, objective)`` where ``pivot`` is the number of left-child
        vertices (``1 <= pivot < n``; ties resolve to the smallest pivot).
    """
    n = len(frequency_terms)
    if n < 2:
        raise ValueError("cannot split fewer than two vertices")
    freq_prefix = np.cumsum(frequency_terms)
    ratio_prefix = np.cumsum(ratio_terms)
    total_freq = freq_prefix[-1]
    total_ratio = ratio_prefix[-1]

    left_freq = freq_prefix[:-1]
    left_ratio = ratio_prefix[:-1]
    right_freq = total_freq - left_freq
    right_ratio = total_ratio - left_ratio
    objectives = left_freq * left_ratio + right_freq * right_ratio
    best_index = int(np.argmin(objectives))
    return best_index + 1, float(objectives[best_index])


def _best_pivot(
    order: List[Hashable],
    frequency_terms: np.ndarray,
    ratio_terms: np.ndarray,
) -> SplitDecision:
    """Evaluate every contiguous split of a sorted vertex list (see above)."""
    pivot, objective = best_split_index(frequency_terms, ratio_terms)
    return SplitDecision(pivot=pivot, objective=objective, order=tuple(order))


def split_objective_data_only(
    vertices: Sequence[Hashable], stats: VertexStatistics
) -> SplitDecision:
    """Find the best split under the data-only objective ``E'`` (Equation 9).

    Vertices are sorted by average outgoing edge frequency
    ``f̃_v(m) / d̃(m)`` (Section 4.1) and every contiguous pivot is evaluated.
    """
    order = sorted(vertices, key=lambda v: (stats.average_edge_frequency(v), repr(v)))
    frequency_terms = np.array([stats.frequency(v) for v in order], dtype=np.float64)
    # d̃(m) / (f̃_v(m)/d̃(m))  ==  d̃(m)^2 / f̃_v(m)
    ratio_terms = np.array(
        [stats.degree(v) / _average_frequency(stats, v) for v in order], dtype=np.float64
    )
    return _best_pivot(order, frequency_terms, ratio_terms)


def split_objective_with_workload(
    vertices: Sequence[Hashable],
    stats: VertexStatistics,
    workload_weights: Mapping[Hashable, float],
) -> SplitDecision:
    """Find the best split under the workload-aware objective ``E'`` (Equation 11).

    Vertices are sorted by ``f̃_v(n) / w̃(n)`` (Section 4.2) and every
    contiguous pivot is evaluated.
    """

    def sort_key(vertex: Hashable) -> Tuple[float, str]:
        weight = workload_weights.get(vertex, 0.0)
        ratio = stats.frequency(vertex) / weight if weight > 0 else float("inf")
        return (ratio, repr(vertex))

    order = sorted(vertices, key=sort_key)
    frequency_terms = np.array([stats.frequency(v) for v in order], dtype=np.float64)
    # w̃(n) / (f̃_v(n)/d̃(n))  ==  w̃(n) * d̃(n) / f̃_v(n)
    ratio_terms = np.array(
        [
            workload_weights.get(v, 0.0) * stats.degree(v) / (stats.frequency(v) or 1e-12)
            for v in order
        ],
        dtype=np.float64,
    )
    return _best_pivot(order, frequency_terms, ratio_terms)


def total_expected_error(
    partitions: Sequence[Sequence[Hashable]],
    widths: Sequence[int],
    stats: VertexStatistics,
    workload_weights: Optional[Mapping[Hashable, float]] = None,
) -> float:
    """Sum of per-partition expected relative errors (the Problem 1/2 objective).

    Used by tests and the ablation benchmark to check that the recursive
    partitioner actually reduces the modeled error relative to a single global
    partition.
    """
    if len(partitions) != len(widths):
        raise ValueError("partitions and widths must have the same length")
    total = 0.0
    for vertices, width in zip(partitions, widths):
        if workload_weights is None:
            total += partition_error_data_only(vertices, stats, width)
        else:
            total += partition_error_with_workload(vertices, stats, workload_weights, width)
    return total
