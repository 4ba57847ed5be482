"""Durability under injected faults: torn and corrupt snapshot bytes.

The acceptance bar for the durability plane: torn or corrupt
snapshot/checkpoint bytes are rejected by the loaders with the damaged
section named (never silently deserialized), a crash during a repeat
checkpoint leaves the previous one loadable, and every round trip is
bit-exact.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from conftest import make_zipf_stream
from repro import faults
from repro.api import snapshot
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
from repro.core.gsketch import GSketch
from repro.graph.sampling import reservoir_sample
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hashing import KEY_RULE


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
    return GSketch.build(sample, config, stream_size_hint=len(stream))


def _assert_states_bit_exact(left: dict, right: dict) -> None:
    assert left["elements_processed"] == right["elements_processed"]
    assert left["outlier_elements"] == right["outlier_elements"]
    assert len(left["partitions"]) == len(right["partitions"])
    pairs = list(zip(left["partitions"], right["partitions"]))
    pairs.append((left["outlier"], right["outlier"]))
    for slot, (sketch_left, sketch_right) in enumerate(pairs):
        assert np.array_equal(sketch_left["table"], sketch_right["table"]), (
            f"slot {slot}: counter tables diverge"
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
        engine.process(fault_stream, batch_size=512)
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
            "backend": "gsketch",
            "state": ingested.state_dict(),
        }
        path = tmp_path / "v1.snap"
        path.write_bytes(pickle.dumps(legacy))
        revived = load_snapshot(path)
        _assert_states_bit_exact(ingested.state_dict(), revived.state_dict())

    def test_mersenne61_states_are_refused_by_name(self, ingested, tmp_path, monkeypatch):
        """Counters placed by the retired ``(a*x + b) mod 2^61-1`` family
        cannot be re-placed, so every load path refuses them, typed."""
        legacy = ingested.state_dict()
        for sketch_state in (*legacy["partitions"], legacy["outlier"]):
            depth = sketch_state["depth"]
            for key in ("hash_a0", "hash_a1", "hash_b"):
                del sketch_state[key]
            sketch_state["hash_a"] = list(range(1, depth + 1))
            sketch_state["hash_b"] = [(1 << 61) - 2] * depth
        with pytest.raises(ValueError, match="retired Mersenne-61"):
            CountMinSketch.from_state(legacy["outlier"])
        v1 = tmp_path / "v1.snap"
        v1.write_bytes(
            pickle.dumps(
                {"format": snapshot.SNAPSHOT_FORMAT, "version": 1, "backend": "gsketch",
                 "state": legacy}
            )
        )
        monkeypatch.setattr(ingested, "state_dict", lambda: legacy)
        v2 = save_snapshot(ingested, tmp_path / "v2.snap")
        checkpoint = save_checkpoint(ingested, tmp_path / "ckpt")
        for load, target in (
            (load_snapshot, v1),
            (load_snapshot, v2),
            (load_checkpoint, checkpoint),
            (SketchEngine.load, v2),
            (SketchEngine.restore, checkpoint),
        ):
            with pytest.raises(SnapshotError, match="retired Mersenne-61.*rebuild"):
                load(target)

    def test_four_pass_key_rule_states_are_refused_by_name(
        self, ingested, tmp_path, monkeypatch
    ):
        """Counters placed by the retired four-pass splitmix64 edge-key rule
        (states without a ``key_rule`` tag) cannot be re-placed either, so
        every load path refuses them, typed, whatever the envelope version."""
        legacy = ingested.state_dict()
        assert legacy["outlier"]["key_rule"] == KEY_RULE
        for sketch_state in (*legacy["partitions"], legacy["outlier"]):
            del sketch_state["key_rule"]
        outlier = legacy["outlier"]
        with pytest.raises(ValueError, match="retired four-pass splitmix64"):
            CountMinSketch.from_state(outlier)
        # A Mersenne-61 state carries no tag either and keeps its own message.
        with pytest.raises(ValueError, match="retired Mersenne-61"):
            CountMinSketch.from_state(dict(outlier, hash_a=[1] * outlier["depth"]))
        with pytest.raises(ValueError, match="key rule 'other'.*rebuild"):
            CountMinSketch.from_state(dict(outlier, key_rule="other"))

        v1 = tmp_path / "v1.snap"
        v1.write_bytes(
            pickle.dumps(
                {"format": snapshot.SNAPSHOT_FORMAT, "version": 1, "backend": "gsketch",
                 "state": legacy}
            )
        )
        monkeypatch.setattr(ingested, "state_dict", lambda: legacy)
        v3 = save_snapshot(ingested, tmp_path / "v3.snap")
        with open(v3, "rb") as handle:
            header = pickle.load(handle)
            body = handle.read()
        assert header["version"] == 3
        v2 = tmp_path / "v2.snap"
        v2.write_bytes(pickle.dumps(dict(header, version=2)) + body)
        checkpoint = save_checkpoint(ingested, tmp_path / "ckpt")
        v1_checkpoint = save_checkpoint(ingested, tmp_path / "ckpt-v1")
        manifest = json.loads((v1_checkpoint / MANIFEST_NAME).read_text())
        assert manifest["version"] == 2
        (v1_checkpoint / MANIFEST_NAME).write_text(json.dumps(dict(manifest, version=1)))
        for load, target in (
            (load_snapshot, v1),
            (load_snapshot, v2),
            (load_snapshot, v3),
            (load_checkpoint, checkpoint),
            (load_checkpoint, v1_checkpoint),
            (SketchEngine.load, v2),
            (SketchEngine.restore, checkpoint),
        ):
            with pytest.raises(SnapshotError, match="retired four-pass splitmix64.*rebuild"):
                load(target)

    @pytest.mark.parametrize("version", [1, 99])
    def test_checkpoint_skips_generations_of_another_versions_manifest(
        self, version, ingested, tmp_path, monkeypatch
    ):
        """A manifest of another version still names a live file: the next
        checkpoint must not overwrite it."""
        directory = save_checkpoint(ingested, tmp_path / "ckpt")
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["sections"][0]["file"] == "state-0.bin"
        manifest_path.write_text(json.dumps(dict(manifest, version=version)))

        written = []
        write_atomic = snapshot._write_atomic

        def record(path, data):
            written.append(path.name)
            write_atomic(path, data)

        monkeypatch.setattr(snapshot, "_write_atomic", record)
        save_checkpoint(ingested, directory)
        assert written == ["state-1.bin", MANIFEST_NAME]
        assert [path.name for path in directory.glob("*.bin")] == ["state-1.bin"]
        _assert_states_bit_exact(ingested.state_dict(), load_checkpoint(directory).state_dict())

    def test_snapshot_round_trip_is_bit_exact(self, ingested, tmp_path):
        path = save_snapshot(ingested, tmp_path / "s.snap")
        revived = load_snapshot(path)
        _assert_states_bit_exact(ingested.state_dict(), revived.state_dict())

    @pytest.mark.parametrize("backend", ["gsketch", "global", "windowed"])
    def test_crash_before_manifest_swap_keeps_previous_checkpoint(
        self, backend, fault_stream, fault_sample, fault_config, tmp_path, monkeypatch
    ):
        """A repeat checkpoint that dies before its manifest lands must leave
        the previous checkpoint loadable: it may not overwrite a file the
        live manifest names."""
        builder = SketchEngine.builder().config(fault_config)
        if backend == "gsketch":
            builder = builder.sample(fault_sample)
        elif backend == "windowed":
            builder = builder.windowed(1_000.0, sample_size=400)
        engine = builder.build()
        half = len(fault_stream) // 2
        keys = sorted(_exact_truth(fault_stream))[:100] + [(10**9, 3)]
        directory = tmp_path / "ckpt"
        engine.ingest(fault_stream.prefix(half), batch_size=512)
        engine.checkpoint(directory)
        first = engine.estimator.query_edges(keys)
        engine.ingest(fault_stream.suffix(half), batch_size=512)

        write_atomic = snapshot._write_atomic

        def crash_on_manifest(path, data):
            if path.name == MANIFEST_NAME:
                raise OSError("simulated crash before the manifest swap")
            write_atomic(path, data)

        monkeypatch.setattr(snapshot, "_write_atomic", crash_on_manifest)
        with pytest.raises(OSError, match="simulated crash"):
            engine.checkpoint(directory)
        monkeypatch.setattr(snapshot, "_write_atomic", write_atomic)
        revived = SketchEngine.restore(directory)
        assert revived.backend == backend
        assert revived.estimator.query_edges(keys) == first

        # The next checkpoint lands whole and leaves one live state file.
        engine.checkpoint(directory)
        revived = SketchEngine.restore(directory)
        assert revived.estimator.query_edges(keys) == engine.estimator.query_edges(keys)
        assert revived.elements_processed == len(fault_stream)
        assert len(list(directory.glob("*.bin"))) == 1

    def test_engine_checkpoint_restore_round_trip(
        self, fault_stream, fault_sample, fault_config, tmp_path
    ):
        engine = (
            SketchEngine.builder()
            .config(fault_config)
            .sample(fault_sample)
            .build()
        )
        engine.ingest(fault_stream, batch_size=512)
        engine.checkpoint(tmp_path / "ckpt")
        revived = SketchEngine.restore(tmp_path / "ckpt")
        assert revived.backend == "gsketch"
        keys = sorted(_exact_truth(fault_stream))[:100]
        assert [e.value for e in revived.query(keys)] == [
            e.value for e in engine.query(keys)
        ]

    def test_missing_manifest_and_section_are_named(self, ingested, tmp_path):
        with pytest.raises(SnapshotError, match=MANIFEST_NAME):
            load_checkpoint(tmp_path / "nowhere")
        directory = save_checkpoint(ingested, tmp_path / "ckpt")
        victim = next(directory.glob("state-*.bin"))
        victim.unlink()
        with pytest.raises(SnapshotError, match="missing checkpoint section"):
            load_checkpoint(directory)
