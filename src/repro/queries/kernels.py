"""The scratch-staged gather kernel for the read plane.

The two hot kernels of a compiled-plan gather are the Mersenne-61 modular
hash (:func:`~repro.sketches.hashing.mulmod_mersenne61_batch` inside
:func:`~repro.sketches.hashing.gathered_hash_columns`) and the fancy-index
gather + ``min`` reduce over the read arena.  The default expressions
allocate roughly a dozen temporaries per batch; at serving batch sizes
(hundreds of keys) allocation and temporary traffic cost as much as the
arithmetic itself.

:class:`NumpyScratchKernel` (behind the small :class:`QueryKernel`
interface) runs the identical uint64 kernel *sequence* as the oracle
expressions, but staged through preallocated per-instance scratch buffers
(``out=`` everywhere), so a steady-state batch performs zero heap
allocation.  Because uint64 wraparound arithmetic is value-exact regardless
of where results are stored, the kernel is bit-identical to the oracle —
``tests/test_kernels.py`` pins that on Mersenne boundary values.

The plain expressions in :mod:`repro.sketches.hashing` remain the parity
oracle, and :meth:`~repro.queries.plan.CompiledQueryPlan.estimate_keys`
keeps using them unless a kernel is explicitly attached (a
:class:`~repro.queries.parallel.PlanConfig` applied to the engine attaches
one; reader-pool workers always use one).

Kernels are *stateful* (they own scratch) and therefore neither thread-safe
nor shareable across reader-pool workers — each worker constructs its own.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sketches.hashing import MERSENNE_PRIME_61

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_M61 = _U64(MERSENNE_PRIME_61)
_EIGHT = _U64(8)
_CARRY_BIT = _U64(1 << 32)
_SH3 = _U64(3)
_SH32 = _U64(32)
_SH61 = _U64(61)


def scratch_capacity(scratch_mb: float, depth: int) -> int:
    """Largest batch the scratch buffers sized by ``scratch_mb`` can hold.

    The numpy kernel keeps five uint64 + one bool + one int64 ``(depth, cap)``
    planes plus a few per-key rows (~``57 * depth + 80`` bytes per key);
    the result is floored at 1024 keys so tiny budgets stay usable.
    """
    if scratch_mb <= 0:
        raise ValueError(f"scratch_mb must be > 0, got {scratch_mb}")
    bytes_per_key = 57 * depth + 80
    return max(1024, int(scratch_mb * (1 << 20)) // bytes_per_key)


class QueryKernel:
    """Interface of a gather kernel: per-element hash columns + gather/min."""

    name: str = "abstract"

    def hash_columns(
        self, a: np.ndarray, b: np.ndarray, widths: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """``((a*key + b) mod p) mod width`` per element → int64 ``(depth, n)``.

        ``a``/``b`` are ``(depth, n)`` gathered coefficient columns or
        ``(depth, 1)`` broadcast columns (the single-slot fast path);
        ``widths`` is aligned with the last axis.  The returned array may be
        a view into kernel scratch — consume it before the next call.
        """
        raise NotImplementedError

    def gather_min(
        self, flat: np.ndarray, cols: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``flat[cols].min(axis=0)`` — the arena gather + CM min reduce.

        Without ``out`` the result may be a view into kernel scratch.
        """
        raise NotImplementedError

    def take_columns(
        self, table_a: np.ndarray, table_b: np.ndarray, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(table_a[:, slots], table_b[:, slots])`` without fresh allocation."""
        raise NotImplementedError


class NumpyScratchKernel(QueryKernel):
    """Oracle arithmetic staged through preallocated scratch.

    Buffers are sized to the larger of ``capacity`` and the largest batch
    seen — oversized batches grow the scratch once rather than failing, so
    correctness never depends on the configured cap.
    """

    name = "numpy"

    def __init__(self, depth: int, capacity: int = 8192) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be > 0, got {depth}")
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.depth = depth
        self.capacity = capacity
        self._size = 0

    def _grow(self, n: int) -> None:
        # Planes are stored flat and re-carved per batch as *contiguous*
        # (depth, n) views — slicing a preallocated 2-D plane to n columns
        # would leave capacity-strided rows that forfeit SIMD kernels.
        size = max(n, min(self.capacity, 8192)) if self._size == 0 else n
        cells = self.depth * size
        self._u64 = [np.empty(cells, dtype=np.uint64) for _ in range(5)]
        self._bool = np.empty(cells, dtype=bool)
        self._cols = np.empty(cells, dtype=np.int64)
        self._gather = np.empty(cells, dtype=np.float64)
        self._k_lo = np.empty(size, dtype=np.uint64)
        self._k_hi = np.empty(size, dtype=np.uint64)
        self._mins = np.empty(size, dtype=np.float64)
        self._coeff_a = np.empty(cells, dtype=np.uint64)
        self._coeff_b = np.empty(cells, dtype=np.uint64)
        self._size = size

    def _plane(self, flat_buf: np.ndarray, n: int) -> np.ndarray:
        return flat_buf[: self.depth * n].reshape(self.depth, n)

    def take_columns(
        self, table_a: np.ndarray, table_b: np.ndarray, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = len(slots)
        if n > self._size:
            self._grow(n)
        ga = self._plane(self._coeff_a, n)
        gb = self._plane(self._coeff_b, n)
        np.take(table_a, slots, axis=1, out=ga)
        np.take(table_b, slots, axis=1, out=gb)
        return ga, gb

    def hash_columns(
        self, a: np.ndarray, b: np.ndarray, widths: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        n = keys.shape[0]
        if n > self._size:
            self._grow(n)
        buf_a, buf_b, buf_c, buf_d, buf_e = (
            self._plane(plane, n) for plane in self._u64
        )
        carry = self._plane(self._bool, n)
        cols = self._plane(self._cols, n)
        k_lo = self._k_lo[:n]
        k_hi = self._k_hi[:n]

        np.bitwise_and(keys, _MASK32, out=k_lo)
        np.right_shift(keys, _SH32, out=k_hi)
        if a.shape[1] == n:
            a_lo = np.bitwise_and(a, _MASK32, out=buf_a)
            a_hi = np.right_shift(a, _SH32, out=buf_b)
        else:
            # Single-slot broadcast fast path: (depth, 1) columns are tiny,
            # so two small temporaries beat widening them into full planes.
            a_lo = a & _MASK32
            a_hi = a >> _SH32
        # -- mulmod_mersenne61_batch, identical op sequence through scratch -- #
        ll = np.multiply(a_lo, k_lo, out=buf_c)
        t = np.multiply(a_hi, k_lo, out=buf_d)
        np.right_shift(ll, _SH32, out=buf_e)
        np.add(t, buf_e, out=t)  # t = a_hi*x_lo + (ll >> 32)
        mid2 = np.multiply(a_lo, k_hi, out=buf_e)
        s = np.add(t, mid2, out=buf_a)  # a_lo (buf_a) is dead once mid2 exists
        np.less(s, t, out=carry)  # 2^64 carry of s = t + mid2
        hi = np.multiply(a_hi, k_hi, out=buf_e)  # mid2 is dead after s
        np.right_shift(s, _SH32, out=buf_b)
        np.add(hi, buf_b, out=hi)
        np.multiply(carry, _CARRY_BIT, out=buf_b, casting="unsafe")
        np.add(hi, buf_b, out=hi)  # hi = a_hi*x_hi + (s>>32) + (carry<<32)
        lo = np.left_shift(s, _SH32, out=s)
        np.bitwise_and(ll, _MASK32, out=ll)
        np.bitwise_or(lo, ll, out=lo)  # lo = (s<<32) | (ll & MASK32)
        top = np.left_shift(hi, _SH3, out=buf_d)  # t is dead
        np.right_shift(lo, _SH61, out=buf_b)
        np.bitwise_or(top, buf_b, out=top)  # top = (hi<<3) | (lo>>61)
        r = np.bitwise_and(lo, _M61, out=lo)
        np.add(top, r, out=r)  # r = top + (lo & M61)
        np.less(r, top, out=carry)
        np.multiply(carry, _EIGHT, out=buf_b, casting="unsafe")
        np.add(r, buf_b, out=r)  # 2^64 ≡ 8 (mod p)
        for _ in range(2):
            np.right_shift(r, _SH61, out=buf_b)
            np.bitwise_and(r, _M61, out=r)
            np.add(r, buf_b, out=r)
        np.greater_equal(r, _M61, out=carry)
        np.multiply(carry, _M61, out=buf_b, casting="unsafe")
        np.subtract(r, buf_b, out=r)  # where(r >= M61, r - M61, r)
        # -- + b, conditional fold, % width (gathered_hash_columns tail) ----- #
        np.add(r, b, out=r)
        np.greater_equal(r, _M61, out=carry)
        np.multiply(carry, _M61, out=buf_b, casting="unsafe")
        np.subtract(r, buf_b, out=r)
        np.remainder(r, widths, out=r)
        cols[...] = r  # uint64 → int64; values < width < 2^61 are exact
        return cols

    def gather_min(
        self, flat: np.ndarray, cols: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        n = cols.shape[1]
        if n > self._size:
            self._grow(n)
        gathered = self._plane(self._gather, n)
        np.take(flat, cols, out=gathered)
        target = out if out is not None else self._mins[:n]
        return gathered.min(axis=0, out=target)

