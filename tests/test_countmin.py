"""Unit tests for the Count-Min sketch: guarantees, batching, state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashing import key_to_uint64


def _insert_counts(sketch: CountMinSketch, counts: dict) -> None:
    for key, count in counts.items():
        for _ in range(count):
            sketch.update(key)


def test_point_estimates_never_undercount():
    """Equation 1 is one-sided: estimates can only overcount."""
    rng = np.random.default_rng(3)
    sketch = CountMinSketch(width=128, depth=4, seed=1)
    truth = {int(k): int(c) for k, c in zip(rng.integers(0, 10_000, 400),
                                            rng.integers(1, 20, 400))}
    for key, count in truth.items():
        sketch.update(key, float(count))
    for key, count in truth.items():
        assert sketch.estimate(key) >= count


def test_overcount_bounded_by_error_bound_mostly():
    sketch = CountMinSketch(width=256, depth=5, seed=2)
    truth = {k: 1 for k in range(2_000)}
    _insert_counts(sketch, truth)
    bound = sketch.error_bound()
    violations = sum(
        1 for key in truth if sketch.estimate(key) > truth[key] + bound
    )
    # Equation 1: violation probability e^-depth per query.
    assert violations / len(truth) <= 2 * sketch.failure_probability() + 0.01


def test_conservative_updates_never_undercount_and_dominate_plain():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 500, size=3_000).tolist()
    plain = CountMinSketch(width=64, depth=4, seed=9)
    conservative = CountMinSketch(width=64, depth=4, seed=9, conservative=True)
    truth: dict = {}
    for key in keys:
        key = int(key)
        plain.update(key)
        conservative.update(key)
        truth[key] = truth.get(key, 0) + 1
    for key, count in truth.items():
        est_conservative = conservative.estimate(key)
        assert est_conservative >= count
        assert est_conservative <= plain.estimate(key)


def test_update_rejects_negative_counts():
    sketch = CountMinSketch(width=16, depth=2, seed=0)
    with pytest.raises(ValueError):
        sketch.update("a", -1.0)
    with pytest.raises(ValueError):
        sketch.update_batch(np.array([1], dtype=np.uint64), np.array([-0.5]))


def test_nan_counts_rejected_at_every_entry_point():
    """``nan < 0`` is false, so a sign test alone would let NaN through."""
    sketch = CountMinSketch(width=16, depth=2, seed=0)
    with pytest.raises(ValueError):
        sketch.update("a", float("nan"))
    with pytest.raises(ValueError):
        sketch.update_batch(np.array([1, 2], dtype=np.uint64), np.array([1.0, np.nan]))
    assert sketch.total_count == 0.0
    assert not sketch.table.any()


@pytest.mark.parametrize("conservative", [False, True])
def test_update_batch_matches_sequential_updates(conservative):
    rng = np.random.default_rng(7)
    keys = [key_to_uint64(int(k)) for k in rng.integers(0, 300, size=2_000)]
    counts = rng.integers(1, 5, size=2_000).astype(np.float64)

    sequential = CountMinSketch(width=97, depth=4, seed=13, conservative=conservative)
    for key, count in zip(keys, counts):
        sequential.update_precomputed(key, float(count))

    batched = CountMinSketch(width=97, depth=4, seed=13, conservative=conservative)
    batched.update_batch(np.array(keys, dtype=np.uint64), counts)

    assert np.array_equal(sequential.table, batched.table)
    assert sequential.total_count == batched.total_count
    assert sequential.update_count == batched.update_count


def test_estimate_batch_matches_scalar_estimates():
    rng = np.random.default_rng(11)
    sketch = CountMinSketch(width=64, depth=3, seed=4)
    inserted = rng.integers(0, 200, size=1_000)
    sketch.update_batch(
        np.array([key_to_uint64(int(k)) for k in inserted], dtype=np.uint64),
        np.ones(len(inserted)),
    )
    queries = [key_to_uint64(int(k)) for k in range(250)]
    batch = sketch.estimate_batch(np.array(queries, dtype=np.uint64))
    scalar = [sketch.estimate_precomputed(q) for q in queries]
    assert batch.tolist() == scalar


def test_state_dict_round_trip_preserves_estimates():
    sketch = CountMinSketch(width=50, depth=4, seed=21)
    for key in range(500):
        sketch.update(key % 37)
    revived = CountMinSketch.from_state(sketch.state_dict())
    assert np.array_equal(revived.table, sketch.table)
    assert revived.total_count == sketch.total_count
    assert revived.update_count == sketch.update_count
    for key in range(40):
        assert revived.estimate(key) == sketch.estimate(key)
    # The revived sketch keeps absorbing updates identically.
    sketch.update(1); revived.update(1)
    assert np.array_equal(revived.table, sketch.table)


def test_load_state_rejects_wrong_dimensions():
    a = CountMinSketch(width=32, depth=3, seed=1)
    b = CountMinSketch(width=64, depth=3, seed=1)
    with pytest.raises(ValueError):
        a.load_state(b.state_dict())


def test_merge_equals_ingesting_concatenation():
    left = CountMinSketch(width=80, depth=4, seed=6)
    right = left.compatible_empty()
    whole = left.compatible_empty()
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 120, size=2_000).tolist()
    half = len(keys) // 2
    for key in keys[:half]:
        left.update(int(key)); whole.update(int(key))
    for key in keys[half:]:
        right.update(int(key)); whole.update(int(key))
    left.merge(right)
    assert np.array_equal(left.table, whole.table)
    assert left.total_count == whole.total_count


def test_merge_rejects_different_hash_families():
    a = CountMinSketch(width=32, depth=3, seed=1)
    b = CountMinSketch(width=32, depth=3, seed=2)
    with pytest.raises(ValueError):
        a.merge(b)
