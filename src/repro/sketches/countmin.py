"""Count-Min sketch (Cormode & Muthukrishnan, 2005).

This is the synopsis that both the Global Sketch baseline and every localized
gSketch partition are built from (paper Section 3.2 and Figure 1).  With width
``w = ceil(e / epsilon)`` and depth ``d = ceil(ln(1 / delta))``, a point query
is overestimated by at most ``e * N / w`` with probability at least
``1 - e^-d`` (Equation 1), where ``N`` is the total frequency mass inserted.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.sketches import arena as _arena
from repro.sketches.base import FrequencySketch
from repro.sketches.hashing import PairwiseHashFamily, key_to_uint64
from repro.utils.rng import SeedLike
from repro.utils.validation import (
    require_non_negative,
    require_positive_int,
    require_probability,
)


class CountMinSketch(FrequencySketch):
    """A ``depth x width`` Count-Min sketch over arbitrary hashable keys.

    Args:
        width: number of counters per row (``w`` in the paper).
        depth: number of rows / independent hash functions (``d``).
        seed: seed for drawing the hash family.
        conservative: if ``True``, use conservative update (only raise the
            cells that currently equal the minimum), a standard variance
            reduction that never breaks the one-sided error guarantee.
    """

    def __init__(
        self,
        width: int,
        depth: int,
        seed: SeedLike = None,
        conservative: bool = False,
    ) -> None:
        self._width = require_positive_int(width, "width")
        self._depth = require_positive_int(depth, "depth")
        self._conservative = bool(conservative)
        self._hashes = PairwiseHashFamily(self._depth, self._width, seed=seed)
        self._table = np.zeros((self._depth, self._width), dtype=np.float64)
        self._rows = np.arange(self._depth)
        self._total = 0.0
        self._update_count = 0
        self._layout: _arena.ArenaLayout | None = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_error_guarantees(
        cls,
        epsilon: float,
        delta: float,
        seed: SeedLike = None,
        conservative: bool = False,
    ) -> "CountMinSketch":
        """Build a sketch with ``w = ceil(e/epsilon)`` and ``d = ceil(ln(1/delta))``."""
        require_probability(delta, "delta")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
        width = int(math.ceil(math.e / float(epsilon)))
        depth = max(1, int(math.ceil(math.log(1.0 / float(delta)))))
        return cls(width=width, depth=depth, seed=seed, conservative=conservative)

    @classmethod
    def from_memory_cells(
        cls,
        total_cells: int,
        depth: int,
        seed: SeedLike = None,
        conservative: bool = False,
    ) -> "CountMinSketch":
        """Build the widest sketch of the given ``depth`` using ``total_cells`` counters."""
        require_positive_int(total_cells, "total_cells")
        require_positive_int(depth, "depth")
        width = max(1, total_cells // depth)
        return cls(width=width, depth=depth, seed=seed, conservative=conservative)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def width(self) -> int:
        """Number of counters per row."""
        return self._width

    @property
    def depth(self) -> int:
        """Number of rows (independent hash functions)."""
        return self._depth

    @property
    def total_count(self) -> float:
        """Total frequency mass inserted so far (``N`` in Equation 1)."""
        return self._total

    @property
    def update_count(self) -> int:
        """Number of individual update operations applied."""
        return self._update_count

    @property
    def memory_cells(self) -> int:
        return self._width * self._depth

    @property
    def conservative(self) -> bool:
        """Whether updates use the conservative (min-raising) rule."""
        return self._conservative

    @property
    def table(self) -> np.ndarray:
        """A read-only view of the counter table (used by tests)."""
        view = self._table.view()
        view.setflags(write=False)
        return view

    def hash_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """The per-row ``(a, b)`` coefficients as uint64 columns.

        :class:`~repro.sketches.arena.ArenaLayout` stacks these (one column
        per arena slot) into the coefficient matrix its fused hash pass
        gathers from.
        """
        return self._hashes.coefficient_arrays()

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def update(self, key: Hashable, count: float = 1.0) -> None:
        """Add ``count`` occurrences of ``key`` to the sketch."""
        count = require_non_negative(count, "count")
        cols = self._hashes.indices_for_uint64(key_to_uint64(key))
        if self._conservative:
            current = self._table[self._rows, cols]
            new_min = current.min() + count
            np.maximum(current, new_min, out=current)
            self._table[self._rows, cols] = current
        else:
            self._table[self._rows, cols] += count
        self._total += count
        self._update_count += 1

    def update_precomputed(self, key_uint64: int, count: float = 1.0) -> None:
        """Update using an already-canonicalized 64-bit key (hot path)."""
        cols = self._hashes.indices_for_uint64(key_uint64)
        if self._conservative:
            current = self._table[self._rows, cols]
            new_min = current.min() + count
            np.maximum(current, new_min, out=current)
            self._table[self._rows, cols] = current
        else:
            self._table[self._rows, cols] += count
        self._total += count
        self._update_count += 1

    def update_batch(
        self, keys_uint64: Sequence[int] | np.ndarray, counts: Sequence[float] | np.ndarray
    ) -> None:
        """Vectorized bulk update for pre-canonicalized keys.

        The one-slot case of :func:`~repro.sketches.arena.apply_batch`, so
        counters, totals and update counts match per-key :meth:`update`
        calls in order (conservative sketches apply the min-raising rule per
        element).
        """
        keys_arr = np.asarray(keys_uint64, dtype=np.uint64)
        counts_arr = np.asarray(counts, dtype=np.float64)
        if keys_arr.shape != counts_arr.shape:
            raise ValueError("keys and counts must have the same length")
        if keys_arr.size == 0:
            return
        # Written so that NaN fails too (every comparison with NaN is false).
        if not (counts_arr >= 0).all():
            raise ValueError("counts must be non-negative")
        if self._layout is None:
            self._layout = _arena.ArenaLayout([self])
        _arena.apply_batch(self._table, self._layout, (self,), keys_arr, None, counts_arr)

    def _credit(self, mass: float, updates: int) -> None:
        """Account ``updates`` applied elements of total ``mass`` (the apply
        kernel writes the counters, the sketch keeps the scalars)."""
        self._total += mass
        self._update_count += updates

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def estimate(self, key: Hashable) -> float:
        """Return ``min`` over rows of the hashed cells (one-sided overestimate)."""
        cols = self._hashes.indices_for_uint64(key_to_uint64(key))
        return float(self._table[self._rows, cols].min())

    def estimate_precomputed(self, key_uint64: int) -> float:
        """Point query for an already-canonicalized 64-bit key."""
        cols = self._hashes.indices_for_uint64(key_uint64)
        return float(self._table[self._rows, cols].min())

    def estimate_batch(self, keys_uint64: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized point queries for pre-canonicalized keys."""
        keys_arr = np.asarray(keys_uint64, dtype=np.uint64)
        if keys_arr.size == 0:
            return np.zeros(0, dtype=np.float64)
        cols = self._hashes.indices_batch(keys_arr)
        stacked = np.empty((self._depth, keys_arr.size), dtype=np.float64)
        for row in range(self._depth):
            stacked[row] = self._table[row, cols[row]]
        return stacked.min(axis=0)

    def error_bound(self) -> float:
        """The additive error ``e * N / w`` that holds with probability ``1 - e^-d``."""
        return math.e * self._total / self._width

    def failure_probability(self) -> float:
        """Probability ``e^-d`` that a point query exceeds :meth:`error_bound`."""
        return math.exp(-self._depth)

    def inner_product(self, other: "CountMinSketch") -> float:
        """Estimate the inner product of the two underlying frequency vectors.

        Both sketches must share dimensions and hash seeds (i.e. be built via
        :meth:`compatible_empty`).
        """
        if (self._width, self._depth) != (other._width, other._depth):
            raise ValueError("sketches must share width and depth for inner product")
        products = (self._table * other._table).sum(axis=1)
        return float(products.min())

    # ------------------------------------------------------------------ #
    # Structural operations
    # ------------------------------------------------------------------ #
    def merge(self, other: "CountMinSketch") -> None:
        """Add ``other``'s counters into this sketch (requires identical hashing)."""
        if (self._width, self._depth) != (other._width, other._depth):
            raise ValueError("cannot merge sketches with different dimensions")
        for (a1, b1), (a2, b2) in zip(self._hashes.coefficients(), other._hashes.coefficients()):
            if (a1, b1) != (a2, b2):
                raise ValueError("cannot merge sketches built from different hash families")
        self._table += other._table
        self._total += other._total
        self._update_count += other._update_count

    def state_dict(self) -> dict:
        """Snapshot of the full sketch state (counters + hash coefficients).

        The snapshot is self-contained: :meth:`from_state` revives a sketch in
        another process that hashes, estimates and merges identically.  Arrays
        are copied so the snapshot is immune to further updates.
        """
        a, b = zip(*self._hashes.coefficients())
        return {
            "width": self._width,
            "depth": self._depth,
            "conservative": self._conservative,
            "hash_a": list(a),
            "hash_b": list(b),
            "table": self._table.copy(),
            "total": self._total,
            "update_count": self._update_count,
        }

    def load_state(self, state: dict) -> None:
        """Adopt a :meth:`state_dict` snapshot in place.

        The snapshot must come from an identically hashed sketch of this
        sketch's dimensions.  Its counters are copied into the live table,
        so an arena this sketch is attached to (the compiled query plan's)
        sees them and keeps receiving later updates.
        """
        revived = CountMinSketch.from_state(state)
        if (revived._width, revived._depth) != (self._width, self._depth):
            raise ValueError(
                f"state has dimensions {revived._width}x{revived._depth}, "
                f"expected {self._width}x{self._depth}"
            )
        if list(revived._hashes.coefficients()) != list(self._hashes.coefficients()):
            raise ValueError("state was hashed by a different hash family")
        self._conservative = revived._conservative
        self._table[...] = revived._table
        self._total = revived._total
        self._update_count = revived._update_count

    @classmethod
    def from_state(cls, state: dict) -> "CountMinSketch":
        """Revive a sketch from a :meth:`state_dict` snapshot."""
        sketch = cls.__new__(cls)
        sketch._width = require_positive_int(state["width"], "width")
        sketch._depth = require_positive_int(state["depth"], "depth")
        sketch._conservative = bool(state["conservative"])
        if len(state["hash_a"]) != sketch._depth:
            raise ValueError(
                f"state has {len(state['hash_a'])} hash rows, expected {sketch._depth}"
            )
        sketch._hashes = PairwiseHashFamily.from_coefficients(
            sketch._width, state["hash_a"], state["hash_b"]
        )
        table = np.asarray(state["table"], dtype=np.float64)
        if table.shape != (sketch._depth, sketch._width):
            raise ValueError(
                f"state table has shape {table.shape}, expected "
                f"({sketch._depth}, {sketch._width})"
            )
        sketch._table = table.copy()
        sketch._rows = np.arange(sketch._depth)
        sketch._total = float(state["total"])
        sketch._update_count = int(state["update_count"])
        sketch._layout = None
        return sketch

    def attach_table(self, view: np.ndarray) -> None:
        """Move the counter table into an externally-allocated buffer view.

        The current counters are copied into ``view`` and the sketch adopts it
        as its live table.  The compiled query plan attaches every sketch of
        a backend to one read arena this way, so batch ingest scatters into
        the arena and per-element updates land in it too.
        """
        if view.shape != self._table.shape or view.dtype != np.float64:
            raise ValueError(
                f"table view must have shape {self._table.shape} and dtype float64, "
                f"got {view.shape} {view.dtype}"
            )
        view[...] = self._table
        self._table = view

    def compatible_empty(self) -> "CountMinSketch":
        """Return an empty sketch sharing this sketch's dimensions and hash family."""
        clone = CountMinSketch.__new__(CountMinSketch)
        clone._width = self._width
        clone._depth = self._depth
        clone._conservative = self._conservative
        clone._hashes = self._hashes
        clone._table = np.zeros((self._depth, self._width), dtype=np.float64)
        clone._rows = self._rows
        clone._total = 0.0
        clone._update_count = 0
        clone._layout = self._layout
        return clone

    def observed_collision_rate(self, keys: Iterable[Hashable]) -> float:
        """Fraction of the given keys whose estimate exceeds zero pre-insertion cells.

        Diagnostic helper used by tests of Theorem 1: for an *empty* sketch it
        always returns 0; after insertion it reports the fraction of keys whose
        minimum cell is shared with at least one other inserted key.
        """
        keys = list(keys)
        if not keys:
            return 0.0
        exact_once = {}
        for key in keys:
            exact_once[key] = exact_once.get(key, 0) + 1
        collided = 0
        for key, multiplicity in exact_once.items():
            if self.estimate(key) > multiplicity:
                collided += 1
        return collided / len(exact_once)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountMinSketch(width={self._width}, depth={self._depth}, "
            f"total={self._total:.1f}, conservative={self._conservative})"
        )
