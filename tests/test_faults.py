"""Fault injection, supervised recovery, degraded serving and durability.

The acceptance bar for the fault-tolerance plane: for every seeded worker
fault site, a crash-and-recover run ends with ``state_dict()`` **bit-exact**
to an unfaulted run of the same stream; torn or corrupt snapshot/checkpoint
bytes are rejected by the loaders with the damaged section named (never
silently deserialized); and degraded-mode answers on surviving shards still
satisfy their (widened) Equation-1 confidence statements against exact
ground truth.
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
from repro.distributed import (
    BatchJournal,
    RecoveryPolicy,
    SequentialExecutor,
    ShardExecutionError,
    ShardedGSketch,
    SharedMemoryExecutor,
)
from repro.graph.sampling import reservoir_sample

NUM_SHARDS = 3

#: Fast supervised policy for tests: cheap backoff, tight ack deadline so
#: dropped/slow acks surface quickly.
FAST_POLICY = RecoveryPolicy(
    max_restarts=3, backoff_seconds=0.01, ack_deadline_seconds=0.25
)

#: Executors the recovery supervisor can restart and replay, by name.
EXECUTORS = {"shared": SharedMemoryExecutor}


@pytest.fixture(scope="module")
def fault_stream():
    return make_zipf_stream(num_edges=3_000, population=200, seed=11)


@pytest.fixture(scope="module")
def fault_sample(fault_stream):
    return reservoir_sample(fault_stream, 800, seed=5)


@pytest.fixture(scope="module")
def fault_config():
    return GSketchConfig(total_cells=8_000, depth=4, seed=7)


@pytest.fixture(scope="module")
def baseline_state(fault_stream, fault_sample, fault_config):
    """state_dict of an unfaulted sequential run — the parity reference."""
    reference = _build(fault_sample, fault_config, fault_stream)
    reference.ingest(fault_stream, batch_size=256)
    return reference.state_dict()


def _build(sample, config, stream, executor=None, recovery=None):
    return ShardedGSketch.build(
        sample,
        config,
        num_shards=NUM_SHARDS,
        executor=executor or SequentialExecutor(),
        stream_size_hint=len(stream),
        recovery=recovery,
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


class TestCrashRecoveryParity:
    """Every injection point: crash, recover, replay → bit-exact state."""

    @pytest.mark.parametrize("site", faults.WORKER_SITES)
    @pytest.mark.parametrize("executor_name", sorted(EXECUTORS))
    def test_seeded_fault_recovers_bit_exact(
        self,
        executor_name,
        site,
        fault_stream,
        fault_sample,
        fault_config,
        baseline_state,
    ):
        faults.install(faults.FaultPlan([faults.FaultSpec(site=site, at_hit=3)]))
        try:
            engine = _build(
                fault_sample,
                fault_config,
                fault_stream,
                executor=EXECUTORS[executor_name](),
                recovery=FAST_POLICY,
            )
            try:
                engine.ingest(fault_stream, batch_size=256)
                state = engine.state_dict()
                restarts = engine.supervisor.restarts
            finally:
                engine.close()
        finally:
            faults.clear()
        assert restarts > 0, "the injected fault never triggered a recovery"
        _assert_states_bit_exact(baseline_state, state)

    def test_recovery_telemetry_surfaces(
        self, fault_stream, fault_sample, fault_config
    ):
        """A recovered run reports its incidents through telemetry_snapshot."""
        faults.install(
            faults.FaultPlan(
                [faults.FaultSpec(site=faults.SITE_CRASH_BEFORE_APPLY, at_hit=2)]
            )
        )
        try:
            engine = _build(
                fault_sample,
                fault_config,
                fault_stream,
                executor=SharedMemoryExecutor(),
                recovery=FAST_POLICY,
            )
            try:
                engine.ingest(fault_stream, batch_size=256)
                engine.flush()
                recovery = engine.telemetry_snapshot()["recovery"]
            finally:
                engine.close()
        finally:
            faults.clear()
        assert recovery["restarts"] > 0
        assert recovery["dead_shards"] == []
        assert recovery["lost_elements"] == 0


class TestRetryExhaustion:
    """A persistently-crashing shard either poisons the run or degrades."""

    def test_exhaustion_without_degraded_serving_poisons(
        self, fault_stream, fault_sample, fault_config
    ):
        policy = RecoveryPolicy(max_restarts=2, backoff_seconds=0.01)
        spec = faults.FaultSpec(
            site=faults.SITE_CRASH_BEFORE_APPLY, at_hit=1, persistent=True
        )
        faults.install(faults.FaultPlan([spec]))
        try:
            engine = _build(
                fault_sample,
                fault_config,
                fault_stream,
                executor=SharedMemoryExecutor(),
                recovery=policy,
            )
            try:
                with pytest.raises(ShardExecutionError):
                    engine.ingest(fault_stream, batch_size=256)
                    engine.flush()
                with pytest.raises(RuntimeError, match="incomplete"):
                    engine.state_dict()
            finally:
                engine.close()
        finally:
            faults.clear()

    @pytest.mark.parametrize("executor_name", sorted(EXECUTORS))
    def test_degraded_serving_keeps_widened_bounds_sound(
        self, executor_name, fault_stream, fault_sample, fault_config
    ):
        policy = RecoveryPolicy(
            max_restarts=2,
            backoff_seconds=0.01,
            ack_deadline_seconds=0.25,
            degraded_serving=True,
        )
        spec = faults.FaultSpec(
            site=faults.SITE_CRASH_BEFORE_APPLY, at_hit=1, shard=1, persistent=True
        )
        faults.install(faults.FaultPlan([spec]))
        try:
            engine = _build(
                fault_sample,
                fault_config,
                fault_stream,
                executor=EXECUTORS[executor_name](),
                recovery=policy,
            )
            try:
                engine.ingest(fault_stream, batch_size=256)
                engine.flush()
                assert engine.degraded
                assert engine.dead_shards == (1,)
                supervisor = engine.supervisor
                assert supervisor.lost_elements > 0
                assert supervisor.lost_frequency(1) > 0.0

                truth = _exact_truth(fault_stream)
                keys = sorted(truth)[:300]
                intervals, partitions = engine.confidence_batch_with_partitions(keys)
                widened = 0
                for key, interval, partition in zip(keys, intervals, partitions):
                    shard = engine.plan.shard_of(partition)
                    if shard in engine.dead_shards:
                        assert interval.upper_slack > 0.0
                        widened += 1
                    else:
                        assert interval.upper_slack == 0.0
                    # The (possibly widened) Equation-1 statement stays sound.
                    assert interval.contains(truth[key]), (
                        f"{key}: truth {truth[key]} outside "
                        f"[{interval.lower}, {interval.upper}]"
                    )
                assert widened > 0, "no query landed on the dead shard"
            finally:
                engine.close()
        finally:
            faults.clear()

    def test_degraded_provenance_through_the_facade(
        self, fault_stream, fault_sample, fault_config
    ):
        spec = faults.FaultSpec(
            site=faults.SITE_CRASH_BEFORE_APPLY, at_hit=1, shard=1, persistent=True
        )
        faults.install(faults.FaultPlan([spec]))
        try:
            engine = (
                SketchEngine.builder()
                .config(fault_config)
                .sample(fault_sample)
                .stream_size_hint(len(fault_stream))
                .sharded(NUM_SHARDS, "shared")
                .recovery(
                    max_restarts=1, backoff_seconds=0.01, degraded_serving=True
                )
                .build()
            )
            try:
                engine.ingest(fault_stream, batch_size=256)
                keys = sorted(_exact_truth(fault_stream))[:200]
                estimates = engine.query(keys)
                degraded = [e for e in estimates if e.provenance.degraded]
                healthy = [e for e in estimates if not e.provenance.degraded]
                assert degraded and healthy
                for estimate in degraded:
                    assert estimate.provenance.shard in engine.estimator.dead_shards
                    assert estimate.interval.upper_slack > 0.0
                    assert estimate.to_dict()["degraded"] is True
                    assert "upper_slack" in estimate.to_dict()["interval"]
                for estimate in healthy:
                    assert "degraded" not in estimate.to_dict()
                summary = engine.describe()
                assert summary["degraded"] is True
                assert summary["dead_shards"] == [1]
            finally:
                engine.close()
        finally:
            faults.clear()


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


class TestFaultPlanAndJournalUnits:
    """Pure in-process units: schedules, the journal, policy validation."""

    def test_seeded_plan_is_deterministic(self):
        left = faults.FaultPlan.seeded(42, num_shards=4)
        right = faults.FaultPlan.seeded(42, num_shards=4)
        assert [
            (s.site, s.at_hit, s.shard) for s in left.specs
        ] == [(s.site, s.at_hit, s.shard) for s in right.specs]
        different = faults.FaultPlan.seeded(43, num_shards=4)
        assert [(s.site, s.at_hit, s.shard) for s in left.specs] != [
            (s.site, s.at_hit, s.shard) for s in different.specs
        ]

    def test_one_shot_specs_do_not_ship_to_restarted_workers(self):
        plan = faults.FaultPlan(
            [faults.FaultSpec(site=faults.SITE_DROP_ACK, at_hit=1)]
        )
        # One-shot specs never re-ship: a restarted worker must not re-crash
        # on the fault that killed its predecessor.
        assert plan.for_restart() is None
        assert plan.arm(faults.SITE_DROP_ACK, shard=0) is not None

    def test_persistent_specs_survive_restart(self):
        plan = faults.FaultPlan(
            [faults.FaultSpec(site=faults.SITE_DROP_ACK, at_hit=1, persistent=True)]
        )
        restart = plan.for_restart()
        assert restart is not None
        assert restart.arm(faults.SITE_DROP_ACK, shard=0) is not None
        # Once fired in this process, even a persistent spec stops shipping.
        # (In production the plan crosses a process boundary, so the worker
        # fires its own copy; this in-process view shares the spec objects.)
        assert plan.for_restart() is None

    def test_journal_replay_floor_and_ack_pruning(self):
        journal = BatchJournal(limit=8)
        seq_a = journal.append({0: ["batch-a"], 1: ["batch-a1"]})
        seq_b = journal.append({0: ["batch-b"]})
        assert (seq_a, seq_b) == (1, 2)
        assert [seq for seq, _ in journal.entries_for(0, after=None)] == [1, 2]
        assert [seq for seq, _ in journal.entries_for(0, after=seq_a)] == [2]
        assert [seq for seq, _ in journal.entries_for(1, after=None)] == [1]
        journal.prune_acked({0: seq_b, 1: seq_a})
        assert len(journal) == 0

    def test_journal_limit_forces_flush(self):
        from repro.distributed.recovery import ShardSupervisor, can_supervise

        policy = RecoveryPolicy(journal_limit=2)
        supervisor = ShardSupervisor(policy, num_shards=2)
        assert not supervisor.needs_flush()
        supervisor.journal.append({0: ["a"]})
        supervisor.journal.append({1: ["b"]})
        assert supervisor.needs_flush()
        supervisor.on_sync()
        assert not supervisor.needs_flush()
        # Only restartable executors are journaled at all.
        assert can_supervise(SharedMemoryExecutor())
        assert not can_supervise(SequentialExecutor())

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_restarts"):
            RecoveryPolicy(max_restarts=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(journal_limit=0)
