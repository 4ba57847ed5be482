"""Pairwise-independent hash families.

All sketches in this package hash arbitrary stream keys (edges, vertex labels,
strings) into counter cells.  Keys are first canonicalized to an unsigned
64-bit integer by :func:`key_to_uint64`, then mapped into ``[0, width)`` by a
Carter–Wegman family ``h(x) = ((a * x + b) mod p) mod width`` over the
Mersenne prime ``p = 2^61 - 1``.  Each row of a sketch draws an independent
``(a, b)`` pair, which yields the pairwise independence required by the
Count-Min analysis (paper Section 3.2) and by Theorem 1's collision bound.

The vectorized expressions here (:func:`mulmod_mersenne61_batch`,
:func:`gathered_hash_columns`) are the one hash implementation every read and
write path runs.  ``tests/test_hashing.py`` pins the batched path to the scalar
one on the Mersenne-boundary keys ``p-1, p, p+1`` and both 32-bit limb edges,
and ``tests/test_query_plan.py`` pins the compiled plan's gather to the direct
per-sketch estimates.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.utils.rng import SeedLike, resolve_rng
from repro.utils.validation import require_positive_int

#: Mersenne prime 2^61 - 1, large enough to treat 64-bit key mixes as field
#: elements with negligible wrap-around bias.
MERSENNE_PRIME_61 = (1 << 61) - 1

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_M61 = _U64(MERSENNE_PRIME_61)


def _splitmix64(value: int) -> int:
    """Finalize a 64-bit integer with the splitmix64 mixing function."""
    value = (value + _GOLDEN_GAMMA) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def splitmix64_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_splitmix64` over an array of uint64 values.

    Bit-identical to the scalar path: numpy uint64 arithmetic wraps modulo
    2^64 exactly like the explicit masking above.
    """
    v = np.asarray(values, dtype=np.uint64) + _U64(_GOLDEN_GAMMA)
    v = (v ^ (v >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    v = (v ^ (v >> _U64(27))) * _U64(0x94D049BB133111EB)
    return v ^ (v >> _U64(31))


def pair_keys_to_uint64(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Canonicalize integer ``(source, target)`` edge keys, vectorized.

    Bit-identical to ``key_to_uint64((int(s), int(t)))`` per element: each
    endpoint is mixed through splitmix64, then combined with the polynomial
    rolling mix used for tuples.  Signed inputs wrap to their two's-complement
    uint64 representation, matching the scalar path's ``& 0xFFFF...``.
    """
    hs = splitmix64_batch(np.asarray(sources).astype(np.uint64, copy=False))
    ht = splitmix64_batch(np.asarray(targets).astype(np.uint64, copy=False))
    acc = splitmix64_batch(_U64(_GOLDEN_GAMMA) ^ hs)
    return splitmix64_batch(acc ^ ht)


def mulmod_mersenne61_batch(a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``(a * values) mod (2^61 - 1)``, elementwise, for ``a < 2^61`` coefficients.

    ``a`` may be a scalar (one hash coefficient applied to every value — the
    :meth:`PairwiseHashFamily.indices_batch` case) or an array aligned with
    ``values`` (a *different* coefficient per element — the arena's fused
    hash pass, which hashes one batch spanning many partition sketches in a
    single pass; see :mod:`repro.sketches.arena`).  Both shapes run the identical
    sequence of uint64 numpy kernels, so results are bit-identical to the
    scalar path per element.

    The 128-bit product is assembled from 32-bit limbs (every partial product
    fits in a uint64 because ``a < 2^61`` implies ``a_hi < 2^29``), then folded
    modulo the Mersenne prime using ``2^64 ≡ 8`` and ``2^61 ≡ 1``.
    """
    a_lo = a & _MASK32
    a_hi = a >> _U64(32)
    x_lo = values & _MASK32
    x_hi = values >> _U64(32)

    ll = a_lo * x_lo
    t = a_hi * x_lo + (ll >> _U64(32))
    mid2 = a_lo * x_hi
    s = t + mid2
    carry = (s < t).astype(np.uint64)
    hi = a_hi * x_hi + (s >> _U64(32)) + (carry << _U64(32))
    lo = (s << _U64(32)) | (ll & _MASK32)

    # product = hi * 2^64 + lo; fold into [0, 2^62) then reduce.
    top = (hi << _U64(3)) | (lo >> _U64(61))
    r = top + (lo & _M61)
    r = r + (r < top).astype(np.uint64) * _U64(8)  # 2^64 ≡ 8 (mod p)
    r = (r & _M61) + (r >> _U64(61))
    r = (r & _M61) + (r >> _U64(61))
    return np.where(r >= _M61, r - _M61, r)


def _mulmod_mersenne61(a: int, values: np.ndarray) -> np.ndarray:
    """Scalar-coefficient convenience wrapper over :func:`mulmod_mersenne61_batch`."""
    return mulmod_mersenne61_batch(_U64(a), values)


def gathered_hash_columns(
    a: np.ndarray, b: np.ndarray, widths: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Hash ``keys`` with per-element ``(a, b, width)`` coefficient columns.

    One vectorized pass computes ``((a*key + b) mod p) mod width`` for a batch
    in which *each element may belong to a different hash function* — the
    coefficients having been gathered (fancy-indexed) from per-sketch tables.
    Bit-identical per element to
    :meth:`PairwiseHashFamily.indices_batch` with that element's own family:
    the arithmetic is the same uint64 kernel sequence, merely batched across
    families.  This is what lets the one apply kernel
    (:func:`~repro.sketches.arena.apply_batch`) and the compiled query plan
    handle a whole batch spanning many partition sketches in one kernel pass
    instead of one :meth:`indices_batch` call per partition group.
    """
    mixed = mulmod_mersenne61_batch(a, keys)
    mixed = mixed + b
    mixed = np.where(mixed >= _M61, mixed - _M61, mixed)
    return (mixed % widths).astype(np.int64)


def key_to_uint64(key: Hashable) -> int:
    """Canonicalize an arbitrary stream key to an unsigned 64-bit integer.

    The mapping is deterministic across processes (unlike built-in ``hash``,
    which is salted for strings), so sketches populated in different runs of
    the library agree on cell placement.

    Supported key types:

    * integers (mixed through splitmix64),
    * strings and bytes (BLAKE2b digest),
    * tuples of supported keys (combined with a polynomial rolling mix).
    """
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
    if isinstance(key, tuple):
        acc = 0x9E3779B97F4A7C15
        for part in key:
            acc = _splitmix64(acc ^ key_to_uint64(part))
        return acc
    if isinstance(key, float):
        return _splitmix64(hash(key) & 0xFFFFFFFFFFFFFFFF)
    raise TypeError(
        "sketch keys must be int, str, bytes, float or tuples thereof; "
        f"got {type(key).__name__}"
    )


class PairwiseHashFamily:
    """A family of ``depth`` pairwise-independent hash functions onto ``[0, width)``.

    Args:
        depth: number of independent hash functions (sketch rows).
        width: range of each hash function (sketch columns).
        seed: seed, generator, or ``None`` used to draw the ``(a, b)``
            coefficients.
    """

    def __init__(self, depth: int, width: int, seed: SeedLike = None) -> None:
        self.depth = require_positive_int(depth, "depth")
        self.width = require_positive_int(width, "width")
        rng = resolve_rng(seed)
        # a must be non-zero in the field; b may be anything in [0, p).
        self._a = rng.integers(1, MERSENNE_PRIME_61, size=self.depth, dtype=np.uint64)
        self._b = rng.integers(0, MERSENNE_PRIME_61, size=self.depth, dtype=np.uint64)

    @classmethod
    def from_coefficients(
        cls, width: int, a: Sequence[int], b: Sequence[int]
    ) -> "PairwiseHashFamily":
        """Reconstruct a family from explicit ``(a, b)`` coefficient vectors.

        Used when deserializing sketch state: a sketch populated in one
        process must hash identically after being revived in another.
        """
        if len(a) != len(b) or not a:
            raise ValueError("coefficient vectors must be non-empty and equal length")
        family = cls.__new__(cls)
        family.depth = len(a)
        family.width = require_positive_int(width, "width")
        family._a = np.asarray(a, dtype=np.uint64)
        family._b = np.asarray(b, dtype=np.uint64)
        for coeff in family._a.tolist():
            if not 1 <= coeff < MERSENNE_PRIME_61:
                raise ValueError(f"coefficient a={coeff} outside [1, 2^61-1)")
        for coeff in family._b.tolist():
            if not 0 <= coeff < MERSENNE_PRIME_61:
                raise ValueError(f"coefficient b={coeff} outside [0, 2^61-1)")
        return family

    def indices(self, key: Hashable) -> np.ndarray:
        """Return the ``depth`` cell indices for ``key`` (one per row)."""
        return self.indices_for_uint64(key_to_uint64(key))

    def indices_for_uint64(self, value: int) -> np.ndarray:
        """Return cell indices for a pre-canonicalized 64-bit key."""
        a = self._a.astype(object)
        b = self._b.astype(object)
        out = np.empty(self.depth, dtype=np.int64)
        for row in range(self.depth):
            out[row] = ((int(a[row]) * value + int(b[row])) % MERSENNE_PRIME_61) % self.width
        return out

    def indices_batch(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized cell indices for many pre-canonicalized keys.

        The modular arithmetic runs entirely in uint64 numpy kernels (see
        :func:`_mulmod_mersenne61`), producing bit-identical indices to
        :meth:`indices_for_uint64` at a fraction of the per-key cost.

        Args:
            values: 1-D sequence of unsigned 64-bit key integers.

        Returns:
            Array of shape ``(depth, len(values))`` with column indices.
        """
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        width = _U64(self.width)
        out = np.empty((self.depth, vals.size), dtype=np.int64)
        for row in range(self.depth):
            mixed = _mulmod_mersenne61(int(self._a[row]), vals)
            mixed = mixed + _U64(int(self._b[row]))
            mixed = np.where(mixed >= _M61, mixed - _M61, mixed)
            out[row, :] = (mixed % width).astype(np.int64)
        return out

    def coefficients(self) -> Iterable[tuple[int, int]]:
        """Yield the ``(a, b)`` coefficient pairs (mainly for testing)."""
        for a, b in zip(self._a.tolist(), self._b.tolist()):
            yield int(a), int(b)

    def coefficient_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-row ``(a, b)`` coefficients as read-only uint64 columns.

        The compiled query plan stacks these across many sketches into one
        per-slot coefficient matrix; returning array views avoids a
        tuple-of-ints round trip per sketch.
        """
        a = self._a.view()
        b = self._b.view()
        a.setflags(write=False)
        b.setflags(write=False)
        return a, b

