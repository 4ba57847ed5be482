"""The one apply kernel and the arena it writes.

Every partitioned batch ingest is a single
:func:`~repro.sketches.arena.apply_batch` call into the compiled plan's
arena, and the sketches' tables are views of that arena.  So every way of
replacing an engine's counters (revive, re-shard, restore, merge) must copy
into the live tables: afterwards further ingest lands where both the plan and
the per-partition direct path read.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_zipf_stream
from repro.api.snapshot import load_checkpoint, load_snapshot, save_checkpoint, save_snapshot
from repro.core.config import GSketchConfig
from repro.core.gsketch import GSketch
from repro.distributed import ShardedGSketch
from repro.graph.sampling import reservoir_sample
from repro.sketches import arena
from repro.sketches.countmin import CountMinSketch


@pytest.fixture(scope="module")
def wide_stream():
    """A stream whose partitioning has dozens of partitions."""
    return make_zipf_stream(num_edges=20_000, population=512, seed=7)


@pytest.fixture(scope="module")
def wide_sample(wide_stream):
    return reservoir_sample(wide_stream, 4_000, seed=5)


@pytest.fixture(scope="module")
def wide_config():
    return GSketchConfig(total_cells=20_000, depth=4, seed=7)


@pytest.mark.parametrize("backend", ["gsketch", "sharded"])
def test_one_kernel_call_per_batch(
    monkeypatch, wide_stream, wide_sample, wide_config, backend
):
    if backend == "gsketch":
        engine = GSketch.build(wide_sample, wide_config, stream_size_hint=len(wide_stream))
    else:
        engine = ShardedGSketch.build(
            wide_sample, wide_config, num_shards=4, stream_size_hint=len(wide_stream)
        )
    assert engine.num_partitions >= 30
    batch = next(wide_stream.iter_batches(4_096))
    touched = np.unique(engine.router.route_batch(batch.sources))
    assert len(touched) >= 30

    calls = {"kernel": 0, "update_batch": 0}
    kernel = arena.apply_batch
    update_batch = CountMinSketch.update_batch

    def counting_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    def counting_update_batch(self, *args, **kwargs):
        calls["update_batch"] += 1
        return update_batch(self, *args, **kwargs)

    monkeypatch.setattr(arena, "apply_batch", counting_kernel)
    monkeypatch.setattr(CountMinSketch, "update_batch", counting_update_batch)
    engine.ingest_batch(batch)
    assert calls == {"kernel": 1, "update_batch": 0}
    assert engine.elements_processed == len(batch)


def test_update_batch_is_the_one_slot_kernel_case(monkeypatch):
    calls = []
    kernel = arena.apply_batch
    monkeypatch.setattr(
        arena, "apply_batch", lambda *args: calls.append(args[4]) or kernel(*args)
    )
    sketch = CountMinSketch(width=64, depth=3, seed=2)
    sketch.update_batch(np.arange(10, dtype=np.uint64), np.ones(10))
    assert calls == [None]  # one call, no slot column
    assert sketch.total_count == 10.0


# ---------------------------------------------------------------------- #
# Every way of replacing counters keeps the arena live
# ---------------------------------------------------------------------- #
def _sharded(sample, config, stream):
    return ShardedGSketch.build(sample, config, num_shards=3, stream_size_hint=len(stream))


def _gsketch(sample, config, stream):
    return GSketch.build(sample, config, stream_size_hint=len(stream))


def _feed(engine, stream) -> None:
    for batch in stream.iter_batches(1_024):
        engine.ingest_batch(batch)


def _from_state(sample, config, stream, first, keys, tmp_path):
    source = _gsketch(sample, config, stream)
    _feed(source, first)
    source.query_edges(keys)
    return GSketch.from_state(source.state_dict())


def _from_gsketch(sample, config, stream, first, keys, tmp_path):
    source = _gsketch(sample, config, stream)
    _feed(source, first)
    source.query_edges(keys)
    return ShardedGSketch.from_gsketch(source, num_shards=3)


def _load_shard_states(sample, config, stream, first, keys, tmp_path):
    donor = _sharded(sample, config, stream)
    _feed(donor, first)
    engine = _sharded(sample, config, stream)
    _feed(engine, first.prefix(500))  # counters the restore must replace
    engine.query_edges(keys)  # the plan is compiled before the restore
    engine.load_shard_states(donor.shard_states())
    return engine


def _merge(sample, config, stream, first, keys, tmp_path):
    half = len(first) // 2
    engine = _sharded(sample, config, stream)
    _feed(engine, first.prefix(half))
    engine.query_edges(keys)
    other = _sharded(sample, config, stream)
    _feed(other, first.suffix(half))
    engine.merge(other)
    return engine


def _snapshot_restore(sample, config, stream, first, keys, tmp_path):
    source = _gsketch(sample, config, stream)
    _feed(source, first)
    source.query_edges(keys)
    return load_snapshot(save_snapshot(source, tmp_path / "engine.snap"))


def _checkpoint_restore(sample, config, stream, first, keys, tmp_path):
    source = _sharded(sample, config, stream)
    _feed(source, first)
    source.query_edges(keys)
    save_checkpoint(source, tmp_path / "ckpt")
    return load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize(
    "mutate",
    [
        _from_state,
        _from_gsketch,
        _load_shard_states,
        _merge,
        _snapshot_restore,
        _checkpoint_restore,
    ],
    ids=[
        "from_state",
        "from_gsketch",
        "load_shard_states",
        "merge",
        "snapshot",
        "checkpoint",
    ],
)
def test_ingest_after_replacing_counters_stays_consistent(
    zipf_stream, zipf_sample, small_config, tmp_path, mutate
):
    half = len(zipf_stream) // 2
    first, second = zipf_stream.prefix(half), zipf_stream.suffix(half)
    keys = sorted(zipf_stream.distinct_edges())[:200] + [(987_654_321, 42)]

    engine = mutate(zipf_sample, small_config, zipf_stream, first, keys, tmp_path)
    engine.query_edges(keys)  # compile (or refresh) before further ingest
    _feed(engine, second)

    fresh = _gsketch(zipf_sample, small_config, zipf_stream)
    _feed(fresh, zipf_stream)
    expected = fresh.query_edges_direct(keys)
    assert engine.query_edges_direct(keys) == expected
    assert engine.query_edges(keys) == expected
    assert engine.elements_processed == fresh.elements_processed
    assert engine.total_frequency == fresh.total_frequency


def test_load_state_copies_into_the_live_table():
    sketch = CountMinSketch(width=32, depth=3, seed=4)
    live = sketch.table
    donor = CountMinSketch(width=32, depth=3, seed=4)
    donor.update_batch(np.arange(50, dtype=np.uint64), np.ones(50))
    sketch.load_state(donor.state_dict())
    assert np.shares_memory(sketch.table, live)
    assert np.array_equal(sketch.table, donor.table)
    stranger = CountMinSketch(width=32, depth=3, seed=5)
    with pytest.raises(ValueError, match="hash family"):
        sketch.load_state(stranger.state_dict())
