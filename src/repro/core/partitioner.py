"""Sketch-partitioning algorithms (paper Figures 2 and 3).

Both scenarios share the same recursive structure: starting from a virtual
global sketch of width ``partitioned_width``, a node is split into two
children of half the width by choosing the pivot that minimizes the split
objective ``E'`` over vertices sorted by average edge frequency (data-only,
Equation 9) or by ``f̃_v / w̃`` (workload-aware, Equation 11).  A child stops
being split — and is materialized as a physical localized sketch — when either

1. its width would fall below the floor ``w0`` (criterion 1), or
2. its sampled distinct-edge count ``sum_m d̃(m)`` is at most ``C * width``
   (criterion 2, justified by Theorem 1's collision bound).

Leaves terminated by criterion 2 have their width shrunk to ``sum_m d̃(m)``
("the modest value" of Section 4.1); the saved cells are then redistributed
proportionally among the remaining leaves so the configured space budget is
fully used, which is the paper's stated intent for the saved space.

**Columnar build path.**  The sort key of both scenarios is *fixed per
vertex* — a node's sorted order is always a contiguous segment of the global
order — so :func:`build_partition_tree` sorts **once** at the root
(``np.lexsort`` over the key column with the scalar reference's ``repr``
tie-break) and from then on every tree node is a half-open index range
``[lo, hi)`` of that order.  Termination tests read a global degree prefix
sum, split objectives run the shared prefix-sum kernel
(:func:`~repro.core.errors.best_split_index`) on slices of two pre-gathered
term columns, and leaf materialization scores come from further prefix-sum
differences: zero per-node re-sorting and zero per-vertex Python work in the
recursion.  :func:`build_partition_tree_scalar` keeps the original per-node
implementation as the equivalence reference and benchmark baseline; the
golden tests in ``tests/test_columnar_build.py`` prove both produce
leaf-for-leaf identical trees.

One caveat on that identity: split objectives are evaluated with bit-identical
arithmetic (same cumsum over the same slice), but node degree sums come from
global prefix-sum *differences*, whose last-ULP rounding can differ from the
reference's sequential per-node sum.  The two builders could therefore
disagree only if a node's sampled edge count lands exactly on the
``C * width`` termination boundary (or a capacity exactly on a ``ceil``
integer boundary) within ~1 ULP — a measure-zero coincidence that does not
occur on the reference distributions the golden tests and benchmark pin down.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GSketchConfig
from repro.core.errors import (
    SplitDecision,
    best_split_index,
    split_objective_data_only,
    split_objective_with_workload,
)
from repro.core.partition_tree import (
    LeafAssignments,
    PartitionLeaf,
    PartitionNode,
    PartitionTree,
)
from repro.graph.statistics import VertexStatistics
from repro.observability.instruments import BUILD_STAGE
from repro.observability.tracing import stage_clock


def _sampled_edge_count(vertices: Sequence[Hashable], stats: VertexStatistics) -> float:
    """``sum_m d̃(m)`` over the node's vertices (scalar reference path)."""
    return float(sum(stats.degree(v) for v in vertices))


def _should_keep_splitting(
    vertices: Sequence[Hashable],
    width: int,
    stats: VertexStatistics,
    config: GSketchConfig,
) -> Tuple[bool, Optional[str]]:
    """Decide whether a node remains active; returns ``(active, leaf_reason)``."""
    if len(vertices) < 2:
        return False, "too_few_vertices"
    if width < config.effective_width_floor:
        return False, "width_floor"
    if _sampled_edge_count(vertices, stats) <= config.collision_constant * width:
        return False, "collision_bound"
    return True, None


def _choose_split(
    vertices: Sequence[Hashable],
    stats: VertexStatistics,
    workload_weights: Optional[Mapping[Hashable, float]],
) -> SplitDecision:
    if workload_weights is None:
        return split_objective_data_only(vertices, stats)
    return split_objective_with_workload(vertices, stats, workload_weights)


def _empty_sample_tree(root_width: int) -> PartitionTree:
    """Degenerate case: an empty sample yields a single empty leaf so the
    outlier sketch ends up doing all the work."""
    root = PartitionNode(vertices=(), width=root_width, depth_in_tree=0)
    root.leaf_reason = "too_few_vertices"
    tree = PartitionTree(root=root)
    tree.leaves.append(
        PartitionLeaf(
            index=0,
            vertices=(),
            width=root_width,
            nominal_width=root_width,
            leaf_reason="too_few_vertices",
        )
    )
    tree.leaf_assignments = LeafAssignments(
        labels=[],
        int_labels=np.zeros(0, dtype=np.int64),
        partitions=np.zeros(0, dtype=np.int64),
    )
    return tree


# ---------------------------------------------------------------------- #
# Columnar build path (default)
# ---------------------------------------------------------------------- #
def build_partition_tree(
    stats: VertexStatistics,
    config: GSketchConfig,
    workload_weights: Optional[Mapping[Hashable, float]] = None,
) -> PartitionTree:
    """Run the sketch-partitioning algorithm of Figure 2 (or Figure 3).

    This is the columnar single-sort implementation (see the module
    docstring); it produces leaf-for-leaf the same tree as
    :func:`build_partition_tree_scalar`, in near-linear time.

    Args:
        stats: vertex statistics computed from the data sample.
        config: space budget and termination constants.
        workload_weights: smoothed relative vertex weights ``w̃(n)`` derived
            from the query workload sample; ``None`` selects the data-only
            objective (Figure 2), a mapping selects the workload-aware
            objective (Figure 3).

    Returns:
        The partitioning tree with its materializable leaves.  The sum of the
        final leaf widths never exceeds ``config.partitioned_width``.
    """
    n = len(stats)
    root_width = config.partitioned_width
    if n == 0:
        return _empty_sample_tree(root_width)

    clock = stage_clock("build", BUILD_STAGE)
    ids = stats.ids
    freq = stats.frequencies
    deg = stats.degrees
    average = stats.average_frequencies()
    reprs = np.array([repr(v) for v in ids])

    # Per-vertex sort keys and split-objective terms; both are fixed for the
    # whole build, which is what makes the single global sort sufficient.
    if workload_weights is None:
        sort_keys = average
        # d̃(m) / (f̃_v(m)/d̃(m)), with the reference's 1e-12 zero-average floor.
        ratio_raw = deg / np.where(average > 0, average, 1e-12)
        coefficients = deg
    else:
        weights = np.fromiter(
            (workload_weights.get(v, 0.0) for v in ids), dtype=np.float64, count=n
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            sort_keys = np.where(weights > 0, freq / weights, np.inf)
        # w̃(n) * d̃(n) / f̃_v(n), with the reference's 1e-12 zero-frequency floor.
        ratio_raw = weights * deg / np.where(freq != 0, freq, 1e-12)
        coefficients = weights

    # THE single sort: key-ordered with repr tie-break, exactly the order the
    # scalar reference re-derives at every node.
    order = np.lexsort((reprs, sort_keys))
    order_list = order.tolist()
    sorted_ids: List[Hashable] = [ids[i] for i in order_list]

    freq_terms = freq[order]
    ratio_terms = ratio_raw[order]
    degree_prefix = np.concatenate(([0.0], np.cumsum(deg[order])))
    frequency_prefix = np.concatenate(([0.0], np.cumsum(freq_terms)))
    # Equation 6 / Equation 10 coefficient column for leaf-width scoring:
    # coeff(m) / (f̃_v(m)/d̃(m)), zero where the average is undefined.
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff_over_average = np.where(
            average > 0, coefficients / np.where(average > 0, average, 1.0), 0.0
        )[order]
    coefficient_prefix = np.concatenate(([0.0], np.cumsum(coeff_over_average)))
    clock.lap("lexsort")

    width_floor = config.effective_width_floor
    collision_constant = config.collision_constant

    def termination(lo: int, hi: int, width: int) -> Tuple[bool, Optional[str]]:
        if hi - lo < 2:
            return False, "too_few_vertices"
        if width < width_floor:
            return False, "width_floor"
        if float(degree_prefix[hi] - degree_prefix[lo]) <= collision_constant * width:
            return False, "collision_bound"
        return True, None

    # The root keeps the reference's repr-only order (it predates the first
    # key sort there); every other node is a contiguous range of the global
    # key order.
    root_vertices = tuple(ids[i] for i in np.argsort(reprs, kind="stable").tolist())
    root = PartitionNode(vertices=root_vertices, width=root_width, depth_in_tree=0)
    tree = PartitionTree(root=root)

    raw_leaves: List[Tuple[PartitionNode, int, int]] = []
    active: List[Tuple[PartitionNode, int, int]] = []

    keep_splitting, reason = termination(0, n, root_width)
    if keep_splitting:
        active.append((root, 0, n))
    else:
        root.leaf_reason = reason
        raw_leaves.append((root, 0, n))

    while active:
        node, lo, hi = active.pop()
        pivot_offset, _objective = best_split_index(
            freq_terms[lo:hi], ratio_terms[lo:hi]
        )
        pivot = lo + pivot_offset
        child_width = max(1, node.width // 2)
        left = PartitionNode(
            vertices=tuple(sorted_ids[lo:pivot]),
            width=child_width,
            depth_in_tree=node.depth_in_tree + 1,
        )
        right = PartitionNode(
            vertices=tuple(sorted_ids[pivot:hi]),
            width=child_width,
            depth_in_tree=node.depth_in_tree + 1,
        )
        node.left, node.right = left, right

        for child, child_lo, child_hi in ((left, lo, pivot), (right, pivot, hi)):
            keep, leaf_reason = termination(child_lo, child_hi, child.width)
            if keep:
                active.append((child, child_lo, child_hi))
            else:
                child.leaf_reason = leaf_reason
                raw_leaves.append((child, child_lo, child_hi))
    clock.lap("split")

    # ---- leaf materialization: scores from prefix-sum differences ---- #
    nominal_widths = [node.width for node, _lo, _hi in raw_leaves]
    reasons = [node.leaf_reason or "unknown" for node, _lo, _hi in raw_leaves]
    capacities = [
        max(1, int(math.ceil(float(degree_prefix[hi] - degree_prefix[lo]))))
        for _node, lo, hi in raw_leaves
    ]
    if config.width_allocation == "rebalanced":
        if workload_weights is None:
            scores = [float(capacity) for capacity in capacities]
        else:
            scores = [
                math.sqrt(
                    max(
                        float(frequency_prefix[hi] - frequency_prefix[lo])
                        * float(coefficient_prefix[hi] - coefficient_prefix[lo]),
                        0.0,
                    )
                )
                for _node, lo, hi in raw_leaves
            ]
        widths, surplus = _allocate_rebalanced(nominal_widths, scores, capacities)
    else:
        widths, surplus = _allocate_halving(nominal_widths, reasons, capacities)

    tree.leaves = [
        PartitionLeaf(
            index=index,
            vertices=node.vertices,
            width=max(1, width),
            nominal_width=node.width,
            leaf_reason=reason,
        )
        for index, ((node, _lo, _hi), width, reason) in enumerate(
            zip(raw_leaves, widths, reasons)
        )
    ]
    tree.surplus_width = surplus

    # Columnar vertex → leaf assignment: each leaf is one contiguous range of
    # the sorted order, so the router is built by pure array writes.
    partitions = np.empty(n, dtype=np.int64)
    for index, (_node, lo, hi) in enumerate(raw_leaves):
        partitions[lo:hi] = index
    int_ids = stats.int_ids
    tree.leaf_assignments = LeafAssignments(
        labels=sorted_ids,
        int_labels=int_ids[order] if int_ids is not None else None,
        partitions=partitions,
    )
    clock.lap("materialize")
    return tree


# ---------------------------------------------------------------------- #
# Scalar reference path (the pre-columnar implementation)
# ---------------------------------------------------------------------- #
def build_partition_tree_scalar(
    stats: VertexStatistics,
    config: GSketchConfig,
    workload_weights: Optional[Mapping[Hashable, float]] = None,
) -> PartitionTree:
    """The original per-node implementation of Figures 2 and 3.

    Kept as the golden reference for the columnar builder: every tree node
    re-sorts its vertex list with Python key functions and every decision
    walks per-vertex dictionaries.  ``experiments/build_bench.py`` measures
    the columnar speedup against this path, and the equivalence tests assert
    leaf-for-leaf identical output.
    """
    vertices: Tuple[Hashable, ...] = tuple(sorted(stats.vertices(), key=repr))
    root_width = config.partitioned_width
    if not vertices:
        tree = _empty_sample_tree(root_width)
        tree.leaf_assignments = None  # the scalar path carries no columns
        return tree

    root = PartitionNode(vertices=vertices, width=root_width, depth_in_tree=0)
    tree = PartitionTree(root=root)

    raw_leaves: List[PartitionNode] = []
    active: List[PartitionNode] = []

    keep_splitting, reason = _should_keep_splitting(vertices, root_width, stats, config)
    if keep_splitting:
        active.append(root)
    else:
        root.leaf_reason = reason
        raw_leaves.append(root)

    while active:
        node = active.pop()
        decision = _choose_split(node.vertices, stats, workload_weights)
        child_width = max(1, node.width // 2)
        left = PartitionNode(
            vertices=decision.left, width=child_width, depth_in_tree=node.depth_in_tree + 1
        )
        right = PartitionNode(
            vertices=decision.right, width=child_width, depth_in_tree=node.depth_in_tree + 1
        )
        node.left, node.right = left, right

        for child in (left, right):
            keep, leaf_reason = _should_keep_splitting(
                child.vertices, child.width, stats, config
            )
            if keep:
                active.append(child)
            else:
                child.leaf_reason = leaf_reason
                raw_leaves.append(child)

    nominal_widths = [node.width for node in raw_leaves]
    reasons = [node.leaf_reason or "unknown" for node in raw_leaves]
    capacities = [
        max(1, int(math.ceil(_sampled_edge_count(node.vertices, stats))))
        for node in raw_leaves
    ]
    if config.width_allocation == "rebalanced":
        if workload_weights is None:
            scores = [float(capacity) for capacity in capacities]
        else:
            scores = []
            for node in raw_leaves:
                frequency, coefficient = _leaf_error_coefficients(
                    node.vertices, stats, workload_weights
                )
                scores.append(math.sqrt(max(frequency * coefficient, 0.0)))
        widths, surplus = _allocate_rebalanced(nominal_widths, scores, capacities)
    else:
        widths, surplus = _allocate_halving(nominal_widths, reasons, capacities)

    tree.leaves = [
        PartitionLeaf(
            index=index,
            vertices=tuple(node.vertices),
            width=max(1, width),
            nominal_width=node.width,
            leaf_reason=reason,
        )
        for index, (node, width, reason) in enumerate(zip(raw_leaves, widths, reasons))
    ]
    tree.surplus_width = surplus
    return tree


def _leaf_error_coefficients(
    vertices: Sequence[Hashable],
    stats: VertexStatistics,
    workload_weights: Optional[Mapping[Hashable, float]],
) -> Tuple[float, float]:
    """Return ``(F, G)`` such that the leaf's modeled error is ``F * G / width``.

    ``F`` is the leaf's estimated total frequency (Equation 5) and ``G`` the
    coefficient ``sum_m coeff(m) / (f̃_v(m)/d̃(m))`` from Equation 6 (data-only,
    ``coeff = d̃``) or Equation 10 (workload-aware, ``coeff = w̃``).
    """
    total_frequency = sum(stats.frequency(v) for v in vertices)
    coefficient_sum = 0.0
    for vertex in vertices:
        average = stats.average_edge_frequency(vertex)
        if average <= 0:
            continue
        if workload_weights is None:
            coefficient = stats.degree(vertex)
        else:
            coefficient = workload_weights.get(vertex, 0.0)
        coefficient_sum += coefficient / average
    return total_frequency, coefficient_sum


# ---------------------------------------------------------------------- #
# Width allocation (shared by both build paths)
# ---------------------------------------------------------------------- #
def _allocate_rebalanced(
    nominal_widths: Sequence[int],
    scores: Sequence[float],
    capacities: Sequence[int],
) -> Tuple[List[int], int]:
    """Allocate the width budget optimally across the tree's leaf groups.

    The partitioning tree decides *which* vertices share a localized sketch;
    the per-leaf widths are then set to the continuous minimizer of the
    paper's objective ``sum_i F_i * G_i / w_i`` subject to
    ``sum_i w_i = partitioned_width``, i.e. ``w_i ∝ sqrt(F_i * G_i)``.  The
    recursive halving plus the Section 4.1 shrink-and-redistribute rule is a
    coarse approximation of this optimum; applying the closed form directly
    keeps lightly-loaded partitions from hoarding cells at reproduction
    scale.  Leaves whose sampled edge population already fits their
    optimal width (Theorem 1) are capped at ``sum_m d̃(m)`` exactly as in the
    paper, and any resulting surplus is re-offered to the remaining leaves.

    In the data-only scenario the score is the leaf's Theorem-1 capacity
    (width proportional to the sampled distinct-edge population equalizes the
    per-partition collision probability, hence the expected *relative* error);
    with a workload sample it is ``sqrt(F_i * G_i)`` (Equation 10).
    """
    count = len(nominal_widths)
    total_width = sum(nominal_widths)
    widths = [1] * count
    remaining_width = total_width
    active = list(range(count))
    # Iteratively assign sqrt-proportional widths, capping each leaf at its
    # Theorem-1 capacity (a leaf never benefits from more cells than distinct
    # edges) and re-offering the excess to the still-uncapped leaves.
    for _ in range(count):
        score_total = sum(scores[i] for i in active)
        if remaining_width <= 0 or not active or score_total <= 0:
            break
        capped = []
        assigned_this_round = {}
        for i in active:
            share = max(1, int(round(remaining_width * scores[i] / score_total)))
            if share >= capacities[i]:
                assigned_this_round[i] = capacities[i]
                capped.append(i)
            else:
                assigned_this_round[i] = share
        if not capped:
            for i in active:
                widths[i] = assigned_this_round[i]
            remaining_width -= sum(assigned_this_round.values())
            active = []
            break
        for i in capped:
            widths[i] = capacities[i]
            remaining_width -= capacities[i]
            active.remove(i)
    # Rounding in the proportional shares can overshoot the budget by a few
    # cells; trim the widest leaves back until the budget is respected.
    overshoot = sum(widths) - total_width
    while overshoot > 0:
        widest = max(range(len(widths)), key=widths.__getitem__)
        if widths[widest] <= 1:
            break
        reduction = min(overshoot, widths[widest] - 1)
        widths[widest] -= reduction
        overshoot -= reduction
    surplus = max(0, total_width - sum(widths))
    return widths, surplus


def _allocate_halving(
    nominal_widths: Sequence[int],
    reasons: Sequence[str],
    capacities: Sequence[int],
) -> Tuple[List[int], int]:
    """Shrink collision-bound leaves and redistribute the saved width.

    Width accounting: recursive halving means the nominal widths of the raw
    leaves sum to at most ``partitioned_width``.  Criterion-2 leaves only need
    ``sum_m d̃(m)`` cells per row (Theorem 1 keeps their collision probability
    below ``C`` even at that width), so the surplus is handed to the other
    leaves proportionally to their nominal widths.
    """
    shrunk_widths: List[int] = []
    saved = 0
    for width, reason, capacity in zip(nominal_widths, reasons, capacities):
        if reason == "collision_bound":
            final = min(width, capacity)
            saved += width - final
        else:
            final = width
        shrunk_widths.append(final)

    growable = [i for i, reason in enumerate(reasons) if reason != "collision_bound"]
    surplus = 0
    if saved > 0 and growable:
        nominal_total = sum(nominal_widths[i] for i in growable)
        remaining = saved
        for position, i in enumerate(growable):
            if position == len(growable) - 1:
                bonus = remaining
            else:
                bonus = int(saved * nominal_widths[i] / nominal_total)
            shrunk_widths[i] += bonus
            remaining -= bonus
    elif saved > 0:
        # Every leaf terminated via Theorem 1, so none of them needs the saved
        # space; hand it to the outlier sketch instead of wasting it.
        surplus = saved
    return shrunk_widths, surplus


def workload_vertex_weights(
    stats: VertexStatistics,
    workload_source_counts: Mapping[Hashable, float],
    smoothing_alpha: float = 1.0,
) -> Dict[Hashable, float]:
    """Derive smoothed relative vertex weights ``w̃(n)`` for Figure 3.

    The weights are defined over the *data sample's* source vertices; vertices
    that never appear in the workload sample receive the Laplace-smoothed
    floor rather than zero (Section 6.4).
    """
    from repro.graph.smoothing import laplace_smoothed_weights

    return laplace_smoothed_weights(
        counts=workload_source_counts,
        vocabulary=stats.vertices(),
        alpha=smoothing_alpha,
    )
