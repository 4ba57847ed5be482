"""Durability under injected faults: torn and corrupt snapshot bytes.

The acceptance bar for the durability plane: torn or corrupt
snapshot/checkpoint bytes are rejected by the loaders with the damaged
section named (never silently deserialized), incremental checkpoints rewrite
only the shards that changed, and every round trip is bit-exact.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from conftest import make_zipf_stream
from repro import faults
from repro.api.engine import SketchEngine
from repro.api.snapshot import (
    MANIFEST_NAME,
    SnapshotError,
    load_checkpoint,
    load_snapshot,
    save_checkpoint,
    save_snapshot,
)
from repro.core.config import GSketchConfig
from repro.distributed import ShardedGSketch
from repro.graph.sampling import reservoir_sample

NUM_SHARDS = 3


@pytest.fixture(scope="module")
def fault_stream():
    return make_zipf_stream(num_edges=3_000, population=200, seed=11)


@pytest.fixture(scope="module")
def fault_sample(fault_stream):
    return reservoir_sample(fault_stream, 800, seed=5)


@pytest.fixture(scope="module")
def fault_config():
    return GSketchConfig(total_cells=8_000, depth=4, seed=7)


def _build(sample, config, stream):
    return ShardedGSketch.build(
        sample, config, num_shards=NUM_SHARDS, stream_size_hint=len(stream)
    )


def _assert_states_bit_exact(left: dict, right: dict) -> None:
    assert left["elements_processed"] == right["elements_processed"]
    assert left["outlier_elements"] == right["outlier_elements"]
    for shard_left, shard_right in zip(left["shards"], right["shards"]):
        assert shard_left["sketches"].keys() == shard_right["sketches"].keys()
        for partition, sketch_left in shard_left["sketches"].items():
            sketch_right = shard_right["sketches"][partition]
            assert np.array_equal(sketch_left["table"], sketch_right["table"]), (
                f"partition {partition}: counter tables diverge"
            )
            assert sketch_left["total"] == sketch_right["total"]


def _exact_truth(stream) -> dict:
    truth: dict = {}
    for edge in stream:
        key = (edge.source, edge.target)
        truth[key] = truth.get(key, 0.0) + edge.frequency
    return truth


class TestDurability:
    """Torn/corrupt snapshot and checkpoint bytes are rejected, named."""

    @pytest.fixture()
    def ingested(self, fault_stream, fault_sample, fault_config):
        engine = _build(fault_sample, fault_config, fault_stream)
        engine.ingest(fault_stream, batch_size=512)
        return engine

    def test_truncated_snapshot_names_section(self, ingested, tmp_path):
        path = save_snapshot(ingested, tmp_path / "s.snap")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 32])
        with pytest.raises(SnapshotError, match="truncated in section"):
            load_snapshot(path)

    def test_bit_flipped_snapshot_names_section(self, ingested, tmp_path):
        path = save_snapshot(ingested, tmp_path / "s.snap")
        data = bytearray(path.read_bytes())
        data[-100] ^= 0xFF  # lands in the last section's payload
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum of section"):
            load_snapshot(path)

    def test_injected_torn_and_corrupt_writes_rejected(self, ingested, tmp_path):
        for site, pattern in (
            (faults.SITE_TORN_CHECKPOINT, "truncated"),
            (faults.SITE_CORRUPT_SNAPSHOT, "checksum"),
        ):
            faults.install(faults.FaultPlan([faults.FaultSpec(site=site)]))
            try:
                path = save_snapshot(ingested, tmp_path / f"{site}.snap")
            finally:
                faults.clear()
            with pytest.raises(SnapshotError, match=pattern):
                load_snapshot(path)

    def test_injected_torn_checkpoint_rejected(self, ingested, tmp_path):
        faults.install(
            faults.FaultPlan([faults.FaultSpec(site=faults.SITE_TORN_CHECKPOINT)])
        )
        try:
            save_checkpoint(ingested, tmp_path / "ckpt")
        finally:
            faults.clear()
        with pytest.raises(SnapshotError, match="truncated"):
            load_checkpoint(tmp_path / "ckpt")

    def test_v1_snapshot_still_loads(self, ingested, tmp_path):
        legacy = {
            "format": "repro.sketch-snapshot",
            "version": 1,
            "backend": "sharded",
            "state": ingested.state_dict(),
        }
        path = tmp_path / "v1.snap"
        path.write_bytes(pickle.dumps(legacy))
        revived = load_snapshot(path)
        _assert_states_bit_exact(ingested.state_dict(), revived.state_dict())

    def test_snapshot_round_trip_is_bit_exact(self, ingested, tmp_path):
        path = save_snapshot(ingested, tmp_path / "s.snap")
        revived = load_snapshot(path)
        _assert_states_bit_exact(ingested.state_dict(), revived.state_dict())

    def test_incremental_checkpoint_rewrites_only_dirty_shards(
        self, fault_stream, fault_sample, fault_config, tmp_path
    ):
        import json

        engine = _build(fault_sample, fault_config, fault_stream)
        engine.ingest(fault_stream, batch_size=512)
        directory = tmp_path / "ckpt"
        save_checkpoint(engine, directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        first = {entry["name"]: entry["file"] for entry in manifest["sections"]}

        # Route 100 more edges through a single source vertex: exactly one
        # shard goes dirty.
        from repro.graph.stream import GraphStream

        source = next(iter(_exact_truth(fault_stream)))[0]
        extra = GraphStream.from_tuples(
            (source, target, float(target), 1.0) for target in range(100)
        )
        engine.ingest(extra, batch_size=512)
        save_checkpoint(engine, directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        second = {entry["name"]: entry["file"] for entry in manifest["sections"]}

        rewritten = sorted(name for name in first if first[name] != second[name])
        assert "state" in rewritten
        assert len([n for n in rewritten if n.startswith("shard-")]) == 1
        # Superseded section files are cleaned up; live ones all resolve.
        for name in rewritten:
            assert not (directory / first[name]).exists()
        for file_name in second.values():
            assert (directory / file_name).exists()
        revived = load_checkpoint(directory)
        _assert_states_bit_exact(engine.state_dict(), revived.state_dict())

    def test_engine_checkpoint_restore_round_trip(
        self, fault_stream, fault_sample, fault_config, tmp_path
    ):
        engine = (
            SketchEngine.builder()
            .config(fault_config)
            .sample(fault_sample)
            .sharded(NUM_SHARDS)
            .build()
        )
        engine.ingest(fault_stream, batch_size=512)
        engine.checkpoint(tmp_path / "ckpt")
        revived = SketchEngine.restore(tmp_path / "ckpt")
        assert revived.backend == "sharded"
        keys = sorted(_exact_truth(fault_stream))[:100]
        assert [e.value for e in revived.query(keys)] == [
            e.value for e in engine.query(keys)
        ]

    def test_missing_manifest_and_section_are_named(self, ingested, tmp_path):
        with pytest.raises(SnapshotError, match=MANIFEST_NAME):
            load_checkpoint(tmp_path / "nowhere")
        directory = save_checkpoint(ingested, tmp_path / "ckpt")
        victim = next(directory.glob("shard-*.bin"))
        victim.unlink()
        with pytest.raises(SnapshotError, match="missing checkpoint section"):
            load_checkpoint(directory)
