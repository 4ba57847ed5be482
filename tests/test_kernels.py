"""Kernel parity: the scratch-staged gather bit-exact vs the oracle expressions.

:class:`~repro.queries.kernels.NumpyScratchKernel` re-stages the two hot
read-plane kernels — the Mersenne-61 Carter–Wegman hash and the arena
gather + min reduce — through preallocated scratch.  Its only contract is
*bit-exactness* against the plain expressions in
:mod:`repro.sketches.hashing`; these tests pin that on the values where
64-bit limb arithmetic is easiest to get wrong: keys at the Mersenne prime
boundary (``p-1, p, p+1``), zero, and ``2^64 - 1``, plus the single-slot
broadcast fast path and scratch reuse/growth across batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.engine import SketchEngine
from repro.core.config import GSketchConfig
from repro.datasets.zipf import zipf_stream
from repro.queries.kernels import NumpyScratchKernel, scratch_capacity
from repro.sketches.hashing import (
    MERSENNE_PRIME_61,
    gathered_hash_columns,
)

#: The limb-arithmetic edge cases: zero, the multiplicative identity, the
#: three values straddling the Mersenne prime, both 32-bit limb boundaries,
#: and the top of the uint64 range.
BOUNDARY_KEYS = np.array(
    [
        0,
        1,
        (1 << 32) - 1,
        1 << 32,
        MERSENNE_PRIME_61 - 1,
        MERSENNE_PRIME_61,
        MERSENNE_PRIME_61 + 1,
        (1 << 64) - 1,
    ],
    dtype=np.uint64,
)

DEPTH = 4


def _coefficient_tables(num_slots: int, seed: int = 11):
    """Random valid ``(a, b, widths, offsets)`` tables for ``num_slots`` sketches."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE_PRIME_61, size=(DEPTH, num_slots), dtype=np.uint64)
    b = rng.integers(0, MERSENNE_PRIME_61, size=(DEPTH, num_slots), dtype=np.uint64)
    widths = rng.integers(64, 4096, size=num_slots).astype(np.uint64)
    offsets = np.concatenate(
        ([0], np.cumsum(widths.astype(np.int64))[:-1])
    ).astype(np.int64)
    return a, b, widths, offsets


def _workload(num_slots: int, extra: int = 400, seed: int = 13):
    """Boundary keys plus random uint64 keys, each routed to a random slot."""
    rng = np.random.default_rng(seed)
    random_keys = rng.integers(0, 1 << 64, size=extra, dtype=np.uint64)
    keys = np.concatenate([BOUNDARY_KEYS, random_keys])
    slots = rng.integers(0, num_slots, size=len(keys)).astype(np.int64)
    return keys, slots


def _oracle_estimate(a, b, widths, offsets, flat, keys, slots):
    """The plain-expression gather the kernels must match bit-for-bit."""
    cols = gathered_hash_columns(a[:, slots], b[:, slots], widths[slots], keys)
    cols += offsets[slots]
    total = int(offsets[-1] + widths[-1])
    row_base = (np.arange(DEPTH, dtype=np.int64) * total)[:, None]
    return flat[cols + row_base].min(axis=0)


def _arena(widths, seed: int = 17):
    rng = np.random.default_rng(seed)
    total = int(widths.astype(np.int64).sum())
    return rng.integers(0, 1000, size=DEPTH * total).astype(np.float64)


class TestNumpyScratchKernel:
    def test_hash_columns_boundary_parity(self):
        a, b, widths, _ = _coefficient_tables(num_slots=6)
        keys, slots = _workload(num_slots=6)
        kernel = NumpyScratchKernel(DEPTH, capacity=64)
        ga, gb = kernel.take_columns(a, b, slots)
        got = kernel.hash_columns(ga, gb, widths[slots], keys)
        expected = gathered_hash_columns(a[:, slots], b[:, slots], widths[slots], keys)
        np.testing.assert_array_equal(np.asarray(got), expected)

    def test_single_slot_broadcast_parity(self):
        # (depth, 1) coefficient columns broadcast across the whole batch —
        # the global-baseline fast path skips the take_columns gather.
        a, b, widths, _ = _coefficient_tables(num_slots=1)
        keys, _ = _workload(num_slots=1)
        kernel = NumpyScratchKernel(DEPTH)
        got = kernel.hash_columns(a, b, widths, keys)
        expected = gathered_hash_columns(a, b, widths, keys)
        np.testing.assert_array_equal(np.asarray(got), expected)

    def test_gather_min_parity(self):
        a, b, widths, offsets = _coefficient_tables(num_slots=4)
        keys, slots = _workload(num_slots=4)
        flat = _arena(widths)
        total = int(offsets[-1] + widths[-1])
        row_base = (np.arange(DEPTH, dtype=np.int64) * total)[:, None]
        cols = (
            gathered_hash_columns(a[:, slots], b[:, slots], widths[slots], keys)
            + offsets[slots]
            + row_base
        )
        kernel = NumpyScratchKernel(DEPTH)
        got = np.asarray(kernel.gather_min(flat, cols)).copy()
        np.testing.assert_array_equal(got, flat[cols].min(axis=0))

    def test_end_to_end_estimate_parity(self):
        a, b, widths, offsets = _coefficient_tables(num_slots=5)
        keys, slots = _workload(num_slots=5)
        flat = _arena(widths)
        total = int(offsets[-1] + widths[-1])
        row_base = (np.arange(DEPTH, dtype=np.int64) * total)[:, None]
        kernel = NumpyScratchKernel(DEPTH, capacity=32)  # forces growth too
        ga, gb = kernel.take_columns(a, b, slots)
        cols = kernel.hash_columns(ga, gb, widths[slots], keys) + offsets[slots]
        got = np.asarray(kernel.gather_min(flat, cols + row_base)).copy()
        expected = _oracle_estimate(a, b, widths, offsets, flat, keys, slots)
        np.testing.assert_array_equal(got, expected)

    def test_scratch_reuse_is_stateless(self):
        # Two identical batches through the same kernel instance must agree:
        # scratch contents from the first pass may not leak into the second.
        a, b, widths, _ = _coefficient_tables(num_slots=3)
        keys, slots = _workload(num_slots=3)
        kernel = NumpyScratchKernel(DEPTH)
        first = np.asarray(
            kernel.hash_columns(*kernel.take_columns(a, b, slots), widths[slots], keys)
        ).copy()
        second = np.asarray(
            kernel.hash_columns(*kernel.take_columns(a, b, slots), widths[slots], keys)
        ).copy()
        np.testing.assert_array_equal(first, second)

    def test_scratch_grows_past_capacity(self):
        a, b, widths, _ = _coefficient_tables(num_slots=2)
        rng = np.random.default_rng(23)
        keys = rng.integers(0, 1 << 64, size=5_000, dtype=np.uint64)
        slots = rng.integers(0, 2, size=5_000).astype(np.int64)
        kernel = NumpyScratchKernel(DEPTH, capacity=128)
        got = kernel.hash_columns(
            *kernel.take_columns(a, b, slots), widths[slots], keys
        )
        expected = gathered_hash_columns(a[:, slots], b[:, slots], widths[slots], keys)
        np.testing.assert_array_equal(np.asarray(got), expected)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            NumpyScratchKernel(0)
        with pytest.raises(ValueError):
            NumpyScratchKernel(4, capacity=0)


class TestKernelRegistry:
    def test_scratch_capacity_floor_and_scaling(self):
        assert scratch_capacity(0.001, 4) == 1024  # floored
        assert scratch_capacity(8.0, 4) > scratch_capacity(4.0, 4)
        with pytest.raises(ValueError):
            scratch_capacity(0.0, 4)


class TestPlanKernelIntegration:
    """A kernel attached to a live compiled plan answers bit-identically."""

    @pytest.fixture()
    def engine(self):
        config = GSketchConfig(total_cells=6_000, depth=4, seed=7)
        stream = zipf_stream(8_000, population=512, seed=7)
        engine = SketchEngine.builder().config(config).dataset(stream).build()
        engine.ingest(stream)
        yield engine
        engine.close()

    @pytest.fixture()
    def stream_keys(self):
        return sorted(zipf_stream(8_000, population=512, seed=7).distinct_edges())

    def test_plan_answers_identical_with_kernel(self, engine, stream_keys):
        keys = stream_keys[:200]
        keys += [(10**9 + i, 3) for i in range(4)]  # never-seen sources
        oracle = np.asarray(engine.estimator.query_edges(list(keys)))
        kernel = NumpyScratchKernel(4, capacity=64)
        engine.estimator.set_plan_kernel(kernel)
        got = np.asarray(engine.estimator.query_edges(list(keys)))
        np.testing.assert_array_equal(got, oracle)
        assert engine.estimator.compile_plan().kernel is kernel

    def test_kernel_detaches_cleanly(self, engine, stream_keys):
        keys = stream_keys[:50]
        engine.estimator.set_plan_kernel(NumpyScratchKernel(4))
        with_kernel = np.asarray(engine.estimator.query_edges(list(keys)))
        engine.estimator.set_plan_kernel(None)
        without = np.asarray(engine.estimator.query_edges(list(keys)))
        np.testing.assert_array_equal(with_kernel, without)
        assert engine.estimator.compile_plan().kernel is None
