"""Pairwise-independent hash families.

All sketches in this package hash arbitrary stream keys (edges, vertex labels,
strings) into counter cells.  Keys are first canonicalized to an unsigned
64-bit integer by :func:`key_to_uint64` (:data:`KEY_RULE`).  A scalar key is
one splitmix64 pass over its own 64-bit word (BLAKE2b for strings and
bytes).  A tuple, such as a ``(source, target)`` edge, is folded word by
word and then mixed once::

    acc = G
    for part in key:  acc = ((acc ^ word(part)) * G) mod 2^64
    key = splitmix64(acc)

``G`` is the odd golden-gamma constant, so each fold step is a bijection of
``acc`` for a fixed part and distinct keys stay distinct in practice.
``word`` is a part's two's-complement word for ints and bools,
``hash(part) mod 2^64`` for floats (so ``1``, ``True`` and ``1.0`` agree, as
they compare equal) and :func:`key_to_uint64` for strings, bytes and nested
tuples.

One mix, and not zero: the row hash below is pairwise independent for any
two distinct keys, but its rows only behave like random functions on keys
that carry no structure.  On a label grid (``s, t = divmod(i, 317)``, 100k
edges, width 1,000), the colliding-pair fraction of a row read 14σ, 2,373σ
and 58σ above its random-key value on the worst row of seeds 2024, 2 and 3
for the packed key ``(s << 32) | t``; for the fold without its mix it read
8–19σ below that value on 11 of those 12 rows (too regular, which is
structure too) and 5.5σ above on the twelfth.  With the
mix, 244 rows over seeds 0–60 read a mean of 0.02σ, a spread of 1.03σ and
a maximum of 3.1σ, as random keys do.  :func:`pair_keys_to_uint64` runs the
same fold and one vectorized mix over two integer label columns.

Each sketch row then draws three
uniform 64-bit coefficients ``(a0, a1, b)`` and maps a key ``x`` with 32-bit
halves ``lo, hi`` onto ``[0, width)`` in two multiply-shift steps::

    h(x)   = ((a0 * lo + a1 * hi + b) mod 2^64) >> 32
    col(x) = (h(x) * width) >> 32                   (width < 2^32)

The first step is vector multiply-shift, strongly universal into 32 bits
with wrapping 64-bit arithmetic only (Dietzfelbinger 1996; Thorup, "High
Speed Hashing for Integers and Strings", arXiv:1504.06804).  The second is
Lemire's range reduction (arXiv:1805.10941); it splits the 2^32 hash values
into ``width`` runs of at most ``2^32/width + 1``, so two distinct keys share
a row's cell with probability at most ``1/w + 2^-32``.  That is the pairwise
collision bound behind the Count-Min analysis (paper Section 3.2): the
additive bound ``e·N/w`` of Equation 1 holds per row with failure
probability at most ``(1 + w/2^32)/e``, and the ``d`` independently drawn
rows fail together with probability at most ``e^-d · (1 + w/2^32)^d``, so
``δ`` is inflated by that factor and nothing else.

:func:`multiply_shift_columns` is the one vectorized hash every read and
write path runs.  ``tests/test_hashing.py`` pins it to the scalar path
(:meth:`PairwiseHashFamily.indices_for_uint64`) on both 32-bit limb edges
and measures its collision rate on random and on grid-structured edge keys, and
``tests/test_query_plan.py`` pins the compiled plan's gather to the direct
per-sketch estimates.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.utils.rng import SeedLike, resolve_rng
from repro.utils.validation import require_positive_int

#: Widths must stay below 2^32 so that ``h * width`` fits in 64 bits.
_MAX_WIDTH = (1 << 32) - 1

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: The edge-key rule sketch states are tagged with: a counter table is only
#: meaningful to a build that places keys by the same rule.
KEY_RULE = "fold-splitmix64"

_U64 = np.uint64
_U64_GAMMA = _U64(_GOLDEN_GAMMA)
_MASK32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)


def _splitmix64(value: int) -> int:
    """Finalize a 64-bit integer with the splitmix64 mixing function."""
    value = (value + _GOLDEN_GAMMA) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def splitmix64_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_splitmix64` over an array of uint64 values.

    Bit-identical to the scalar path: numpy uint64 arithmetic wraps modulo
    2^64 exactly like the explicit masking above.  ``values`` is not
    modified.
    """
    return _splitmix64_in_place(np.array(values, dtype=np.uint64))


def _splitmix64_in_place(v: np.ndarray) -> np.ndarray:
    """:func:`splitmix64_batch` overwriting its own uint64 array ``v``."""
    v += _U64_GAMMA
    v ^= v >> _U64(30)
    v *= _U64(0xBF58476D1CE4E5B9)
    v ^= v >> _U64(27)
    v *= _U64(0x94D049BB133111EB)
    v ^= v >> _U64(31)
    return v


def _label_words(labels: np.ndarray) -> np.ndarray:
    """Two's-complement uint64 words of an integer label column (a view of
    an int64 or uint64 block, never to be written through)."""
    labels = np.asarray(labels)
    if labels.dtype == np.int64:
        return labels.view(np.uint64)
    return labels.astype(np.uint64, copy=False)


def pair_keys_to_uint64(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Canonicalize integer ``(source, target)`` edge keys, vectorized.

    Bit-identical to ``key_to_uint64((int(s), int(t)))`` per element: the
    two label columns are folded into one word per edge, then mixed by one
    splitmix64 pass.  Signed labels fold as their two's-complement words,
    matching the scalar path's ``& 0xFFFF...``.  The caller's columns are
    read, never written.
    """
    acc = np.bitwise_xor(_label_words(sources), _U64_GAMMA)
    acc *= _U64_GAMMA
    acc ^= _label_words(targets)
    acc *= _U64_GAMMA
    return _splitmix64_in_place(acc)


def multiply_shift_columns(
    a0: np.ndarray, a1: np.ndarray, b: np.ndarray, widths: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Cell of every ``(row, key)`` pair, shape ``(depth, M)``, as int64.

    ``a0``, ``a1`` and ``b`` are one family's ``(depth, 1)`` coefficient
    columns and broadcast over the keys.  ``widths`` is one uint64 width
    (every key in one table) or a uint64 array of one width per key (a batch
    spanning the tables of an arena that share this family; see
    :mod:`repro.sketches.arena`).  Bit-identical per element to
    :meth:`PairwiseHashFamily.indices_for_uint64`: uint64 products wrap
    modulo 2^64 exactly like its explicit mask, and ``h * width`` stays
    below 2^64.
    """
    mixed = a0 * (keys & _MASK32)
    mixed += a1 * (keys >> _SHIFT32)
    mixed += b
    mixed >>= _SHIFT32
    mixed *= widths
    mixed >>= _SHIFT32
    return mixed.view(np.int64)


def key_to_uint64(key: Hashable) -> int:
    """Canonicalize an arbitrary stream key to an unsigned 64-bit integer.

    The mapping is deterministic across processes (unlike built-in ``hash``,
    which is salted for strings), so sketches populated in different runs of
    the library agree on cell placement.

    Supported key types:

    * integers (mixed through splitmix64),
    * strings and bytes (BLAKE2b digest),
    * floats (splitmix64 of ``hash(key)``),
    * tuples of supported keys (folded word by word, then mixed once; see
      the module docstring).
    """
    if isinstance(key, tuple):
        acc = _GOLDEN_GAMMA
        for part in key:
            acc = ((acc ^ _part_word(part)) * _GOLDEN_GAMMA) & _MASK64
        return _splitmix64(acc)
    if isinstance(key, bool):
        return _splitmix64(int(key))
    if isinstance(key, (int, np.integer)):
        return _splitmix64(int(key) & 0xFFFFFFFFFFFFFFFF)
    if isinstance(key, bytes):
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little")
    if isinstance(key, str):
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    if isinstance(key, float):
        return _splitmix64(hash(key) & 0xFFFFFFFFFFFFFFFF)
    raise TypeError(
        "sketch keys must be int, str, bytes, float or tuples thereof; "
        f"got {type(key).__name__}"
    )


def _part_word(part: Hashable) -> int:
    """The 64-bit word a tuple folds for one of its parts."""
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, float):
        return hash(part) & _MASK64
    return key_to_uint64(part)


def _require_width(width: int) -> int:
    width = require_positive_int(width, "width")
    if width > _MAX_WIDTH:
        raise ValueError(f"width must be below 2^32, got {width}")
    return width


class PairwiseHashFamily:
    """A family of ``depth`` pairwise-independent hash functions onto ``[0, width)``.

    Each row is one vector multiply-shift function with its own uniform
    ``(a0, a1, b)`` draw.  The draw depends only on ``seed`` and ``depth``,
    never on ``width``: sketches of different widths seeded alike share their
    coefficients, which is what lets an arena hash a batch spanning all of
    them with one coefficient column per row.

    Args:
        depth: number of independent hash functions (sketch rows).
        width: range of each hash function (sketch columns), below 2^32.
        seed: seed, generator, or ``None`` used to draw the coefficients.
    """

    def __init__(self, depth: int, width: int, seed: SeedLike = None) -> None:
        depth = require_positive_int(depth, "depth")
        self._adopt(width, resolve_rng(seed).integers(0, 1 << 64, (3, depth), dtype=np.uint64))

    def _adopt(self, width: int, coefficients: np.ndarray) -> None:
        """Take the ``(3, depth)`` uint64 rows ``a0``, ``a1`` and ``b``."""
        self.width = _require_width(width)
        self.depth = coefficients.shape[1]
        columns = coefficients.reshape(3, -1, 1)
        columns.setflags(write=False)
        self._columns = tuple(columns)
        self._rows = tuple(zip(*coefficients.tolist()))

    @classmethod
    def from_coefficients(
        cls, width: int, a0: Sequence[int], a1: Sequence[int], b: Sequence[int]
    ) -> "PairwiseHashFamily":
        """Reconstruct a family from explicit ``(a0, a1, b)`` coefficient vectors.

        Used when deserializing sketch state: a sketch populated in one
        process must hash identically after being revived in another.
        """
        if not (len(a0) == len(a1) == len(b)) or not len(a0):
            raise ValueError("coefficient vectors must be non-empty and equal length")
        rows = [[int(coeff) for coeff in vector] for vector in (a0, a1, b)]
        for coeff in (*rows[0], *rows[1], *rows[2]):
            if not 0 <= coeff <= _MASK64:
                raise ValueError(f"coefficient {coeff} outside [0, 2^64)")
        family = cls.__new__(cls)
        family._adopt(width, np.array(rows, dtype=np.uint64))
        return family

    def indices(self, key: Hashable) -> np.ndarray:
        """Return the ``depth`` cell indices for ``key`` (one per row)."""
        return self.indices_for_uint64(key_to_uint64(key))

    def indices_for_uint64(self, value: int) -> np.ndarray:
        """Return cell indices for a pre-canonicalized 64-bit key (exact
        Python-integer arithmetic, the reference for the vectorized path)."""
        value = int(value)
        lo = value & 0xFFFFFFFF
        hi = value >> 32
        cells = []
        for a0, a1, b in self._rows:
            mixed = ((a0 * lo + a1 * hi + b) & _MASK64) >> 32
            cells.append((mixed * self.width) >> 32)
        return np.array(cells, dtype=np.int64)

    def indices_batch(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized cell indices for many pre-canonicalized keys.

        Args:
            values: 1-D sequence of unsigned 64-bit key integers.

        Returns:
            Array of shape ``(depth, len(values))`` with column indices,
            bit-identical to :meth:`indices_for_uint64` per key.
        """
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        return multiply_shift_columns(*self._columns, _U64(self.width), vals)

    def coefficients(self) -> Iterable[tuple[int, int, int]]:
        """Yield the per-row ``(a0, a1, b)`` coefficients (mainly for testing)."""
        return iter(self._rows)

    def coefficient_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(a0, a1, b)`` coefficients as read-only ``(depth, 1)`` uint64
        columns, the shape :func:`multiply_shift_columns` broadcasts."""
        return self._columns

    def shares_coefficients(self, other: "PairwiseHashFamily") -> bool:
        """Whether ``other`` hashes every key to the same 32-bit row values
        (widths aside)."""
        return self._rows == other._rows
