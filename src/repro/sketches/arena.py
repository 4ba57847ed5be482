"""One arena of Count-Min tables and the one batch-apply kernel.

gSketch counts each stream element as one Count-Min update in the sketch its
source vertex routes to (paper Section 5).  Every batched write in the engine
— a partitioned backend's whole ingest batch, and
:meth:`~repro.sketches.countmin.CountMinSketch.update_batch` as the one-slot
case — runs through :func:`apply_batch`:

* The tables live side by side in one ``(depth, Σwidths)`` array: slot ``i``
  owns the columns ``[offsets[i], offsets[i] + widths[i])``.  Every slot
  shares one hash family (an engine seeds all its sketches alike), so an
  :class:`ArenaLayout` keeps one ``(depth, 1)`` column per coefficient and
  :meth:`ArenaLayout.columns` hashes a batch spanning any number of slots in
  one :func:`~repro.sketches.hashing.multiply_shift_columns` pass, gathering
  only each key's width and offset.  Sharing the rows keeps each table's
  pairwise independence because no key lives in two slots.  The compiled
  query plan gathers from the same columns, so reads and writes share one
  cell computation.
* The scatter is one ``np.add.at`` per row.  ``np.add.at`` applies updates in
  index order and cells of different slots never alias, so every cell sees
  its updates in arrival order: the tables are bit-identical to per-element
  :meth:`~repro.sketches.countmin.CountMinSketch.update` calls, for any
  float frequencies.
* Conservative updates (each element's cells depend on every earlier
  element) keep their per-element min-raising rule in arrival order.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.sketches.hashing import multiply_shift_columns

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.sketches.countmin import CountMinSketch


class ArenaLayout:
    """Hashing and column placement of Count-Min tables sharing one arena.

    Args:
        sketches: the tables in slot order; all must share one depth and one
            hash family.
    """

    __slots__ = ("hash_a0", "hash_a1", "hash_b", "widths", "offsets", "depth", "total_width")

    def __init__(self, sketches: Sequence["CountMinSketch"]) -> None:
        if not sketches:
            raise ValueError("an arena needs at least one sketch")
        first = sketches[0]
        depth = first.depth
        for sketch in sketches:
            if sketch.depth != depth:
                raise ValueError(f"all sketches must share depth {depth}, got {sketch.depth}")
            if not sketch.shares_hash_family(first):
                raise ValueError(
                    "all sketches of an arena must share one hash family (seed them alike)"
                )
        self.depth = depth
        self.widths = np.asarray([sketch.width for sketch in sketches], dtype=np.uint64)
        self.offsets = np.zeros(len(sketches), dtype=np.int64)
        np.cumsum(self.widths[:-1].astype(np.int64), out=self.offsets[1:])
        self.total_width = int(self.offsets[-1]) + int(self.widths[-1])
        self.hash_a0, self.hash_a1, self.hash_b = first.hash_arrays()

    @property
    def num_slots(self) -> int:
        return len(self.widths)

    def columns(self, keys: np.ndarray, slots: Optional[np.ndarray]) -> np.ndarray:
        """Arena column of every ``(row, key)`` pair, shape ``(depth, M)``.

        ``slots`` gives each key's table; one-slot layouts ignore it and
        broadcast their single width instead of gathering it.
        """
        if self.num_slots == 1:
            return multiply_shift_columns(
                self.hash_a0, self.hash_a1, self.hash_b, self.widths, keys
            )
        cols = multiply_shift_columns(
            self.hash_a0, self.hash_a1, self.hash_b, self.widths[slots], keys
        )
        cols += self.offsets[slots]
        return cols


def apply_batch(
    arena: np.ndarray,
    layout: ArenaLayout,
    sketches: Sequence["CountMinSketch"],
    keys: np.ndarray,
    slots: Optional[np.ndarray],
    counts: np.ndarray,
) -> None:
    """Hash, scatter and credit one validated batch: the one apply kernel.

    Args:
        arena: the ``(depth, layout.total_width)`` counter array; each row
            must be contiguous (a column slice of a larger arena qualifies).
        layout: the arena's hashing and placement.
        sketches: the slot owners, credited with ``total_count`` and
            ``update_count`` for the elements that landed in them.
        keys: canonical uint64 keys.
        slots: each key's slot (ignored for one-slot layouts).
        counts: non-negative finite frequencies, aligned with ``keys``.
    """
    cols = layout.columns(keys, slots)
    if sketches[0].conservative:
        _apply_conservative(arena, cols, sketches, slots, counts)
        return
    for row in range(layout.depth):
        np.add.at(arena[row], cols[row], counts)
    if layout.num_slots == 1:
        sketches[0]._credit(float(counts.sum()), int(counts.size))
        return
    mass = np.bincount(slots, weights=counts, minlength=layout.num_slots)
    updates = np.bincount(slots, minlength=layout.num_slots)
    touched = np.flatnonzero(updates)
    for slot, slot_mass, slot_updates in zip(
        touched.tolist(), mass[touched].tolist(), updates[touched].tolist()
    ):
        sketches[slot]._credit(slot_mass, slot_updates)


def _apply_conservative(
    arena: np.ndarray,
    cols: np.ndarray,
    sketches: Sequence["CountMinSketch"],
    slots: Optional[np.ndarray],
    counts: np.ndarray,
) -> None:
    """Per-element conservative update, in arrival order.

    Columns come from the vectorized hash pass; the min-raising rule and the
    scalar credit then run element by element, exactly as
    :meth:`~repro.sketches.countmin.CountMinSketch.update` would.
    """
    rows = np.arange(cols.shape[0])
    if slots is None:
        owners = repeat(sketches[0])
    else:
        owners = [sketches[slot] for slot in slots.tolist()]
    for element, (count, owner) in enumerate(zip(counts.tolist(), owners)):
        cells = cols[:, element]
        current = arena[rows, cells]
        np.maximum(current, current.min() + count, out=current)
        arena[rows, cells] = current
        owner._credit(count, 1)
