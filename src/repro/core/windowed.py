"""Time-windowed gSketch maintenance (Section 5, "dynamic queries").

Users may ask for edge frequencies over specific time windows (last month,
last year, ...).  The paper's prescription: divide the time line into
intervals, keep per-window sketch statistics, and partition each window using
a reservoir sample drawn from the *previous* window.  Queries over an
arbitrary interval are answered by extrapolating from the stored windows that
overlap it.

:class:`WindowedGSketch` implements that scheme on top of :class:`GSketch`:

* the first window has no preceding sample, so it is served by a single
  unpartitioned sketch (equivalent to a Global Sketch of the same budget);
* while window ``k`` is being ingested, a reservoir sample of its elements is
  collected; when window ``k + 1`` opens, that sample drives the partitioning
  of window ``k + 1``'s gSketch;
* interval queries sum the per-window estimates, scaling the two boundary
  windows by their fractional overlap with the query interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import GSketchConfig
from repro.core.estimator import ConfidenceInterval, intervals_from_arrays
from repro.core.global_sketch import GlobalSketch
from repro.core.gsketch import GSketch
from repro.graph.batch import EdgeBatch, require_valid_frequencies
from repro.graph.edge import EdgeKey, StreamEdge
from repro.graph.stream import GraphStream
from repro.queries.plan import HOT_CACHE_MAX_BATCH, HotEdgeCache
from repro.queries.subgraph_query import SubgraphQuery
from repro.sketches.hashing import key_to_uint64
from repro.utils.rng import resolve_rng
from repro.utils.validation import require_positive, require_positive_int


@dataclass
class _WindowState:
    """One time window's estimator plus its start time."""

    index: int
    estimator: GSketch | GlobalSketch

    def query_edge(self, edge: EdgeKey) -> float:
        return self.estimator.query_edge(edge)


class WindowedGSketch:
    """Maintains one estimator per fixed-length time window.

    Args:
        config: per-window space budget (each window gets its own sketches).
        window_length: length of each time window, in the stream's timestamp
            units.
        sample_size: reservoir size collected per window to partition the
            next window.
        seed: RNG seed for reservoir sampling.
    """

    def __init__(
        self,
        config: GSketchConfig,
        window_length: float,
        sample_size: int = 5_000,
        seed: int = 7,
    ) -> None:
        self.config = config
        self.window_length = require_positive(window_length, "window_length")
        self.sample_size = require_positive_int(sample_size, "sample_size")
        self._rng = resolve_rng(seed)
        self._windows: Dict[int, _WindowState] = {}
        self._current_window: Optional[int] = None
        self._reservoir: List[StreamEdge] = []
        self._reservoir_seen = 0
        self._previous_sample: Optional[GraphStream] = None
        self._previous_window_size = 0
        self._elements_processed = 0
        self._generation = 0
        self._hot_cache = HotEdgeCache()

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def window_of(self, timestamp: float) -> int:
        """Index of the window containing ``timestamp``."""
        return int(math.floor(timestamp / self.window_length))

    def observe(self, edge: StreamEdge) -> None:
        """Ingest one stream element (elements must arrive in timestamp order)."""
        window = self.window_of(edge.timestamp)
        if self._current_window is None:
            self._open_window(window)
        elif window > self._current_window:
            self._roll_to(window)
        elif window < self._current_window:
            raise ValueError(
                f"out-of-order element: timestamp {edge.timestamp} belongs to window "
                f"{window} but window {self._current_window} is already open"
            )
        state = self._windows[self._current_window]
        state.estimator.update(edge.source, edge.target, edge.frequency)
        self._reservoir_insert(edge)
        self._elements_processed += 1
        self._generation += 1

    def ingest_batch(self, batch: EdgeBatch | Sequence[StreamEdge]) -> int:
        """Ingest one block of (timestamp-ordered) stream elements.

        Window rolling and reservoir sampling are inherently sequential in
        timestamp order, so the block is walked per element; the method exists
        so windowed estimators satisfy the same
        :class:`~repro.api.protocol.Estimator` surface as the other backends.
        Returns the number of elements ingested.  The whole block is checked
        before its first element is observed (see :meth:`_check_batch`), so
        a rejected block changes nothing.
        """
        if isinstance(batch, EdgeBatch):
            edges = list(batch.iter_edges())
        else:
            edges = [e if isinstance(e, StreamEdge) else StreamEdge(*e) for e in batch]
            batch = EdgeBatch.from_edges(edges)
        self._check_batch(batch)
        for edge in edges:
            self.observe(edge)
        return len(edges)

    def _check_batch(self, batch: EdgeBatch) -> None:
        """Raise on any element :meth:`observe` would refuse mid-block.

        Every frequency is finite and >= 0, every label canonicalizes
        (``TypeError`` otherwise), every timestamp is finite, and the
        elements' windows never go back: not below the open window, and not
        below an earlier element's.
        """
        require_valid_frequencies(batch.frequencies)
        batch.hashed_keys()
        timestamps = batch.timestamps
        finite = np.isfinite(timestamps)
        if not finite.all():
            index = int(np.argmin(finite))
            raise ValueError(
                f"batch element {index} carries non-finite timestamp "
                f"{float(timestamps[index])!r}"
            )
        windows = np.floor(timestamps / self.window_length)
        opened = -np.inf if self._current_window is None else self._current_window
        before = np.concatenate(([opened], windows[:-1]))
        backwards = windows < before
        if backwards.any():
            index = int(np.argmax(backwards))
            raise ValueError(
                f"out-of-order element: timestamp {timestamps[index]} belongs to window "
                f"{int(windows[index])} but window {int(before[index])} is already open"
            )

    def process(self, stream: GraphStream) -> int:
        """Ingest an entire (timestamp-ordered) stream."""
        count = 0
        for edge in stream:
            self.observe(edge)
            count += 1
        return count

    def _reservoir_insert(self, edge: StreamEdge) -> None:
        if len(self._reservoir) < self.sample_size:
            self._reservoir.append(edge)
        else:
            slot = int(self._rng.integers(0, self._reservoir_seen + 1))
            if slot < self.sample_size:
                self._reservoir[slot] = edge
        self._reservoir_seen += 1

    def _open_window(self, window: int) -> None:
        if self._previous_sample is not None and len(self._previous_sample) > 0:
            # The previous window's size is the best available hint for how
            # much the new window will absorb.
            estimator: GSketch | GlobalSketch = GSketch.build(
                self._previous_sample,
                self.config,
                stream_size_hint=self._previous_window_size or None,
            )
        else:
            estimator = GlobalSketch(self.config)
        self._windows[window] = _WindowState(index=window, estimator=estimator)
        self._current_window = window
        self._reservoir = []
        self._reservoir_seen = 0

    def _roll_to(self, window: int) -> None:
        """Close the current window and open ``window`` (possibly skipping gaps)."""
        self._previous_sample = GraphStream(
            list(self._reservoir), name=f"window-{self._current_window}-sample"
        )
        self._previous_window_size = self._reservoir_seen
        self._open_window(window)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query_edge(self, edge: EdgeKey, start: float, end: float) -> float:
        """Estimate an edge's frequency over the time interval ``[start, end)``.

        Boundary windows contribute proportionally to their overlap with the
        interval (the paper's "extrapolating from the sketch time windows
        which overlap most closely").
        """
        if end <= start:
            raise ValueError("query interval must have positive length")
        first = self.window_of(start)
        last = self.window_of(end - 1e-12)
        total = 0.0
        for window in range(first, last + 1):
            state = self._windows.get(window)
            if state is None:
                continue
            window_start = window * self.window_length
            window_end = window_start + self.window_length
            overlap = min(end, window_end) - max(start, window_start)
            fraction = max(0.0, min(1.0, overlap / self.window_length))
            total += fraction * state.query_edge(edge)
        return total

    def query_edge_lifetime(self, edge: EdgeKey) -> float:
        """Estimate an edge's frequency over all windows seen so far."""
        return sum(state.query_edge(edge) for state in self._windows.values())

    def query_edges(self, edges: Sequence[EdgeKey]) -> List[float]:
        """Lifetime estimates for many edges at once.

        Each opened window answers the block through its own compiled query
        plan — closed windows are immutable, so their arenas never rebuild —
        and the per-window estimate columns are summed in one reduce per
        window.  Small batches additionally ride a lifetime-level hot-edge
        cache tagged by the windowed ingest generation.  Matches
        :meth:`query_edge_lifetime` element-wise.
        """
        if len(edges) == 0:
            return []
        if len(edges) <= HOT_CACHE_MAX_BATCH:
            keys = [key_to_uint64((edge[0], edge[1])) for edge in edges]
            cached = self._hot_cache.lookup_many(self._generation, keys)
            if cached is not None:
                return cached
            totals = self._lifetime_estimates(edges)
            self._hot_cache.store_many(self._generation, keys, totals.tolist())
            return totals.tolist()
        return self._lifetime_estimates(edges).tolist()

    def _lifetime_estimates(self, edges: Sequence[EdgeKey]) -> np.ndarray:
        """Plan-served per-window estimates, summed in window order."""
        totals = np.zeros(len(edges), dtype=np.float64)
        for window in sorted(self._windows):
            totals += self._windows[window].estimator._planned_estimates(edges)
        return totals

    def query_edges_direct(self, edges: Sequence[EdgeKey]) -> List[float]:
        """The pre-plan lifetime path: every window's routed direct path,
        summed (parity oracle and benchmark baseline)."""
        if len(edges) == 0:
            return []
        totals = np.zeros(len(edges), dtype=np.float64)
        for window in sorted(self._windows):
            totals += np.asarray(
                self._windows[window].estimator.query_edges_direct(edges),
                dtype=np.float64,
            )
        return totals.tolist()

    def query_subgraph(self, query: SubgraphQuery) -> float:
        """Lifetime aggregate subgraph estimate (per-edge decomposition)."""
        return query.combine(self.query_edges(query.edges))

    def confidence(self, edge: EdgeKey) -> ConfidenceInterval:
        """Lifetime confidence interval for an edge estimate.

        Per-window Equation-1 intervals compose additively: the estimate and
        additive bound sum across windows, and the failure probability is the
        union bound over the per-window failure events (clamped to 1).
        """
        return self.confidence_batch([edge])[0]

    def confidence_columns(
        self, edges: Sequence[EdgeKey]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, None]:
        """Lifetime ``(estimates, bounds, failures, None)`` columns.

        Each window contributes its plan-served estimate/bound/failure
        columns, which compose additively exactly as the scalar
        :meth:`confidence` path does.  Lifetime answers span windows with
        different partitionings, so there is no partition column.
        """
        estimates = np.zeros(len(edges), dtype=np.float64)
        bounds = np.zeros(len(edges), dtype=np.float64)
        failures = np.zeros(len(edges), dtype=np.float64)
        for window in sorted(self._windows):
            window_est, window_bounds, window_failures, _ = self._windows[
                window
            ].estimator.confidence_columns(edges)
            estimates += window_est
            bounds += window_bounds
            failures += window_failures
        # The union bound over per-window failure events clamps at 1.
        np.minimum(failures, 1.0, out=failures)
        return estimates, bounds, failures, None

    def confidence_batch(self, edges: Sequence[EdgeKey]) -> List[ConfidenceInterval]:
        """Lifetime confidence intervals for many edges at once."""
        estimates, bounds, failures, _ = self.confidence_columns(edges)
        return intervals_from_arrays(estimates, bounds, failures)

    def compile_plan(self) -> None:
        """Eagerly compile (or refresh) every opened window's query plan."""
        for window in sorted(self._windows):
            self._windows[window].estimator.compile_plan()

    # ------------------------------------------------------------------ #
    # Snapshot protocol
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Complete windowed state: every window's estimator plus the roll
        machinery (reservoir, previous-window sample, RNG state)."""
        return {
            "config": self.config,
            "window_length": self.window_length,
            "sample_size": self.sample_size,
            "rng_state": self._rng.bit_generator.state,
            "windows": {
                index: (
                    "gsketch" if isinstance(state.estimator, GSketch) else "global",
                    state.estimator.state_dict(),
                )
                for index, state in self._windows.items()
            },
            "current_window": self._current_window,
            "reservoir": list(self._reservoir),
            "reservoir_seen": self._reservoir_seen,
            "previous_sample": (
                None
                if self._previous_sample is None
                else (list(self._previous_sample), self._previous_sample.name)
            ),
            "previous_window_size": self._previous_window_size,
            "elements_processed": self._elements_processed,
        }

    @classmethod
    def from_state(cls, state: dict) -> "WindowedGSketch":
        """Revive a windowed estimator from a :meth:`state_dict` snapshot."""
        sketch = cls(
            config=state["config"],
            window_length=state["window_length"],
            sample_size=state["sample_size"],
        )
        sketch._rng.bit_generator.state = state["rng_state"]
        for index, (kind, estimator_state) in state["windows"].items():
            estimator: GSketch | GlobalSketch
            if kind == "gsketch":
                estimator = GSketch.from_state(estimator_state)
            elif kind == "global":
                estimator = GlobalSketch.from_state(estimator_state)
            else:
                raise ValueError(f"unknown window estimator kind {kind!r}")
            sketch._windows[int(index)] = _WindowState(index=int(index), estimator=estimator)
        sketch._current_window = state["current_window"]
        sketch._reservoir = [StreamEdge(*edge) for edge in state["reservoir"]]
        sketch._reservoir_seen = int(state["reservoir_seen"])
        if state["previous_sample"] is not None:
            edges, name = state["previous_sample"]
            sketch._previous_sample = GraphStream(
                [StreamEdge(*edge) for edge in edges], name=name, validate=False
            )
        sketch._previous_window_size = int(state["previous_window_size"])
        sketch._elements_processed = int(state["elements_processed"])
        return sketch

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def elements_processed(self) -> int:
        """Number of stream elements ingested so far."""
        return self._elements_processed

    @property
    def ingest_generation(self) -> int:
        """Monotonic counter of ingested elements (hot-cache and serving tag)."""
        return self._generation

    @property
    def num_windows(self) -> int:
        """Number of windows opened so far."""
        return len(self._windows)

    def window_indices(self) -> List[int]:
        """Sorted indices of the opened windows."""
        return sorted(self._windows)

    def estimator_for_window(self, window: int) -> GSketch | GlobalSketch:
        """The estimator serving the given window (KeyError if never opened)."""
        return self._windows[window].estimator

    def telemetry_snapshot(self) -> dict:
        """Health telemetry: per-window backend snapshots plus lifetime state.

        Every opened window contributes its own backend snapshot (closed
        windows are immutable, so their numbers are final); the lifetime
        hot-edge cache is the windowed estimator's own.
        """
        windows = [
            {"window": window, **self._windows[window].estimator.telemetry_snapshot()}
            for window in sorted(self._windows)
        ]
        return {
            "backend": "windowed",
            "elements_processed": self._elements_processed,
            "num_windows": self.num_windows,
            "current_window": self._current_window,
            "generation": self._generation,
            "hot_cache": self._hot_cache.telemetry(),
            "windows": windows,
        }
