"""Executor lifecycle tests: shared-memory parity, restart, crash recovery.

The acceptance bar for the shared-memory backend is the strongest one the
engine offers: after any interleaving of ingest / query / snapshot, a
:class:`~repro.distributed.shared_memory.SharedMemoryExecutor`-backed engine
holds **bit-exact** ``state_dict`` contents versus the in-process
:class:`~repro.distributed.executor.SequentialExecutor` reference — counter
tables, totals and update counts alike — for unit, fractional and
conservative-update streams.  On top of parity, this module covers the
lifecycle edges: restart after close, snapshot-while-attached, worker death
(:class:`~repro.distributed.executor.ShardExecutionError`) and idempotent
teardown.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.api.engine import EngineError, SketchEngine
from repro.core.config import GSketchConfig
from repro.distributed import (
    SequentialExecutor,
    ShardExecutionError,
    ShardedGSketch,
    SharedMemoryExecutor,
    make_executor,
)


#: Executor names the recovery supervisor can restart and replay.
SUPERVISABLE = ["shared"]


def _build(sample, config, stream, num_shards=2, executor=None):
    return ShardedGSketch.build(
        sample,
        config,
        num_shards=num_shards,
        executor=executor,
        stream_size_hint=len(stream),
    )


def _assert_states_bit_exact(left: dict, right: dict) -> None:
    """Shard-by-shard, partition-by-partition state_dict equality."""
    assert left["elements_processed"] == right["elements_processed"]
    assert left["outlier_elements"] == right["outlier_elements"]
    assert len(left["shards"]) == len(right["shards"])
    for shard_left, shard_right in zip(left["shards"], right["shards"]):
        assert shard_left["sketches"].keys() == shard_right["sketches"].keys()
        for partition, sketch_left in shard_left["sketches"].items():
            sketch_right = shard_right["sketches"][partition]
            assert np.array_equal(sketch_left["table"], sketch_right["table"]), (
                f"partition {partition}: counter tables diverge"
            )
            assert sketch_left["total"] == sketch_right["total"]
            assert sketch_left["update_count"] == sketch_right["update_count"]


class TestSharedMemoryParity:
    def test_interleaved_ingest_query_snapshot_bit_exact(
        self, zipf_stream, zipf_sample, small_config
    ):
        """Ingest → query → snapshot → ingest again: state stays bit-exact."""
        reference = _build(
            zipf_sample, small_config, zipf_stream, executor=SequentialExecutor()
        )
        with _build(
            zipf_sample, small_config, zipf_stream, executor=SharedMemoryExecutor()
        ) as shared:
            half = len(zipf_stream) // 2
            edges = sorted(zipf_stream.distinct_edges())[:150]

            reference.ingest(zipf_stream.prefix(half), batch_size=512)
            shared.ingest(zipf_stream.prefix(half), batch_size=512)
            # Mid-stream queries force a pipeline flush; answers must agree.
            assert shared.query_edges(edges) == reference.query_edges(edges)
            # Mid-stream snapshot while workers stay attached.
            _assert_states_bit_exact(reference.state_dict(), shared.state_dict())

            reference.ingest(zipf_stream.suffix(half), batch_size=512)
            shared.ingest(zipf_stream.suffix(half), batch_size=512)
            assert shared.query_edges(edges) == reference.query_edges(edges)
            _assert_states_bit_exact(reference.state_dict(), shared.state_dict())
            assert shared.total_frequency == reference.total_frequency

    def test_fractional_frequencies_bit_exact(self, weighted_stream, small_config):
        """Float (non-integral) frequencies keep bit-exact accumulation order."""
        from repro.graph.sampling import reservoir_sample

        sample = reservoir_sample(weighted_stream, 400, seed=3)
        reference = _build(sample, small_config, weighted_stream, num_shards=3)
        reference.ingest(weighted_stream, batch_size=256)
        with _build(
            sample,
            small_config,
            weighted_stream,
            num_shards=3,
            executor=SharedMemoryExecutor(),
        ) as shared:
            shared.ingest(weighted_stream, batch_size=256)
            _assert_states_bit_exact(reference.state_dict(), shared.state_dict())

    def test_conservative_updates_bit_exact(self, zipf_stream, zipf_sample):
        """Conservative update falls back to the sequential worker kernel."""
        config = GSketchConfig(
            total_cells=4_000, depth=3, seed=11, conservative_updates=True
        )
        prefix = zipf_stream.prefix(1_500)
        reference = _build(zipf_sample, config, prefix)
        reference.ingest(prefix, batch_size=256)
        with _build(
            zipf_sample, config, prefix, executor=SharedMemoryExecutor()
        ) as shared:
            shared.ingest(prefix, batch_size=256)
            _assert_states_bit_exact(reference.state_dict(), shared.state_dict())

    def test_more_shards_than_partitions(self, zipf_stream, zipf_sample, small_config):
        """Empty shards get no worker but the engine still answers exactly."""
        reference = _build(zipf_sample, small_config, zipf_stream)
        reference.ingest(zipf_stream)
        with _build(
            zipf_sample,
            small_config,
            zipf_stream,
            num_shards=50,
            executor=SharedMemoryExecutor(),
        ) as shared:
            shared.ingest(zipf_stream)
            edges = sorted(zipf_stream.distinct_edges())[:100]
            assert shared.query_edges(edges) == reference.query_edges(edges)


class TestSharedMemoryLifecycle:
    def test_restart_after_close(self, zipf_stream, zipf_sample, small_config):
        """close() detaches state; further ingest respawns workers correctly."""
        half = len(zipf_stream) // 2
        reference = _build(zipf_sample, small_config, zipf_stream)
        reference.ingest(zipf_stream, batch_size=1024)

        shared = _build(
            zipf_sample, small_config, zipf_stream, executor=SharedMemoryExecutor()
        )
        shared.ingest(zipf_stream.prefix(half), batch_size=1024)
        shared.close()
        # Ingestion after close restarts the executor from detached state.
        shared.ingest(zipf_stream.suffix(half), batch_size=1024)
        _assert_states_bit_exact(reference.state_dict(), shared.state_dict())
        shared.close()
        shared.close()  # idempotent

    def test_snapshot_restore_resumes_exactly(
        self, zipf_stream, zipf_sample, small_config
    ):
        """A snapshot taken while attached restores to a bit-exact resume."""
        half = len(zipf_stream) // 2
        reference = _build(zipf_sample, small_config, zipf_stream)
        reference.ingest(zipf_stream, batch_size=512)

        with _build(
            zipf_sample, small_config, zipf_stream, executor=SharedMemoryExecutor()
        ) as shared:
            shared.ingest(zipf_stream.prefix(half), batch_size=512)
            snapshot = shared.state_dict()

        resumed = ShardedGSketch.from_state(snapshot, executor=SharedMemoryExecutor())
        try:
            resumed.ingest(zipf_stream.suffix(half), batch_size=512)
            _assert_states_bit_exact(reference.state_dict(), resumed.state_dict())
        finally:
            resumed.close()

    def test_checkpoint_and_merge_through_shared_executor(
        self, zipf_stream, zipf_sample, small_config
    ):
        """Coordinator-side merge survives attached arenas and keeps serving."""
        half = len(zipf_stream) // 2
        reference = _build(zipf_sample, small_config, zipf_stream)
        reference.ingest(zipf_stream, batch_size=1024)
        edges = sorted(zipf_stream.distinct_edges())[:100]

        with _build(
            zipf_sample, small_config, zipf_stream, executor=SharedMemoryExecutor()
        ) as first:
            first.ingest(zipf_stream.prefix(half), batch_size=1024)
            second = _build(zipf_sample, small_config, zipf_stream)
            second.ingest(zipf_stream.suffix(half), batch_size=1024)
            first.merge(second)
            assert first.query_edges(edges) == reference.query_edges(edges)
            # Workers were reset by the merge; keep ingesting through them.
            first.update(987_654_321, 42)
            assert first.query_edge((987_654_321, 42)) >= 1.0

    def test_to_gsketch_does_not_alias_arena(
        self, zipf_stream, zipf_sample, small_config
    ):
        """Re-aggregation deep-copies: closing the engine must not corrupt it."""
        with _build(
            zipf_sample, small_config, zipf_stream, executor=SharedMemoryExecutor()
        ) as shared:
            shared.ingest(zipf_stream, batch_size=2048)
            gsketch = shared.to_gsketch()
            tables_before = [p.table.copy() for p in gsketch.partitions]
        for partition, before in zip(gsketch.partitions, tables_before):
            assert np.array_equal(partition.table, before)


class TestWorkerCrashRecovery:
    def _kill_first_worker(self, executor: SharedMemoryExecutor) -> None:
        for process in executor.worker_processes:
            if process is not None:
                process.kill()
                process.join(timeout=5.0)
                return
        raise AssertionError("no worker process to kill")

    def test_shared_memory_crash_raises_named_error(
        self, zipf_stream, zipf_sample, small_config
    ):
        executor = SharedMemoryExecutor()
        engine = _build(
            zipf_sample, small_config, zipf_stream, executor=executor
        )
        engine.ingest(zipf_stream.prefix(2_000), batch_size=512)
        engine.flush()
        self._kill_first_worker(executor)
        with pytest.raises(ShardExecutionError, match=r"shard \d+"):
            engine.ingest(zipf_stream.suffix(2_000), batch_size=512)
            engine.flush()
        # The failed batch may be half-applied across shards: reads must
        # refuse to serve (no silently inconsistent totals or snapshots).
        with pytest.raises(RuntimeError, match="incomplete"):
            engine.total_frequency
        with pytest.raises(RuntimeError, match="incomplete"):
            engine.state_dict()
        engine.close()
        engine.close()  # close stays idempotent after the failure

    def test_failed_close_poisons_reads_until_restore(
        self, zipf_stream, zipf_sample, small_config
    ):
        """Losing in-flight batches at close() must not silently serve partial data."""
        engine = _build(
            zipf_sample, small_config, zipf_stream, executor=SharedMemoryExecutor()
        )
        # Workers die before applying their fourth (last) 512-edge batch,
        # which is still in flight when ingest returns: close() drains first.
        faults.install(
            faults.FaultPlan(
                [faults.FaultSpec(site=faults.SITE_CRASH_BEFORE_APPLY, at_hit=4)]
            )
        )
        try:
            engine.ingest(zipf_stream.prefix(2_000), batch_size=512)
        finally:
            faults.clear()
        with pytest.raises(ShardExecutionError):
            engine.close()
        engine.close()  # second close is a clean no-op
        with pytest.raises(RuntimeError, match="incomplete"):
            engine.query_edge((1, 2))
        with pytest.raises(RuntimeError, match="incomplete"):
            engine.state_dict()
        # Restoring a checkpoint recovers the engine.
        donor = _build(zipf_sample, small_config, zipf_stream)
        donor.ingest(zipf_stream.prefix(2_000), batch_size=512)
        engine.load_shard_states(donor.shard_states())
        assert engine.query_edges([(1, 2)]) == donor.query_edges([(1, 2)])

    def test_error_names_the_failing_shard(self, zipf_stream, zipf_sample, small_config):
        executor = SharedMemoryExecutor()
        engine = _build(zipf_sample, small_config, zipf_stream, executor=executor)
        engine.ingest(zipf_stream.prefix(1_000), batch_size=512)
        engine.flush()
        killed_index = None
        for index, process in enumerate(executor.worker_processes):
            if process is not None:
                process.kill()
                process.join(timeout=5.0)
                killed_index = index
                break
        with pytest.raises(ShardExecutionError) as excinfo:
            engine.ingest(zipf_stream.suffix(1_000), batch_size=512)
            engine.flush()
        assert excinfo.value.shard_index == killed_index
        assert f"shard {killed_index}" in str(excinfo.value)
        engine.close()


class TestEngineExecutorKnob:
    @pytest.mark.parametrize("spec", ["sequential", "shared"])
    def test_named_executors_reach_parity(
        self, zipf_stream, zipf_sample, small_config, spec
    ):
        prefix = zipf_stream.prefix(2_000)
        reference = _build(zipf_sample, small_config, prefix)
        reference.ingest(prefix, batch_size=512)
        edges = sorted(prefix.distinct_edges())[:50]
        with (
            SketchEngine.builder()
            .config(small_config)
            .sample(zipf_sample)
            .stream_size_hint(len(prefix))
            .sharded(2)
            .executor(spec)
            .build()
        ) as engine:
            engine.ingest(prefix, batch_size=512)
            assert engine.estimator.query_edges(edges) == reference.query_edges(edges)

    def test_executor_without_sharded_is_rejected(self, zipf_sample, small_config):
        with pytest.raises(EngineError, match="sharded"):
            (
                SketchEngine.builder()
                .config(small_config)
                .sample(zipf_sample)
                .executor("shared")
                .build()
            )

    def test_unknown_executor_name_is_rejected(self, zipf_sample, small_config):
        for name in ("warp-drive", "threads", "processes"):
            with pytest.raises(EngineError, match="unknown executor.*sequential, shared"):
                (
                    SketchEngine.builder()
                    .config(small_config)
                    .sample(zipf_sample)
                    .sharded(2)
                    .executor(name)
                    .build()
                )

    def test_make_executor_passthrough_and_names(self):
        sequential = SequentialExecutor()
        assert make_executor(sequential) is sequential
        assert make_executor(None) is None
        assert isinstance(make_executor("shared"), SharedMemoryExecutor)
        for name in ("bogus", "threads", "processes"):
            with pytest.raises(ValueError, match="sequential, shared"):
                make_executor(name)


class TestSupervisedLifecycle:
    """Supervised recovery on the raw executor lifecycle edges."""

    POLICY_KWARGS = dict(max_restarts=2, backoff_seconds=0.01)

    def _kill_one(self, executor) -> None:
        for process in executor.worker_processes:
            if process is not None and process.is_alive():
                process.kill()
                process.join(timeout=5.0)
                return
        raise AssertionError("no worker process to kill")

    @pytest.mark.parametrize("executor_name", SUPERVISABLE)
    def test_crash_during_flush_recovers_bit_exact(
        self, executor_name, zipf_stream, zipf_sample, small_config
    ):
        """A worker killed with batches outstanding: flush recovers, parity holds."""
        from repro.distributed import RecoveryPolicy

        reference = _build(zipf_sample, small_config, zipf_stream)
        reference.ingest(zipf_stream, batch_size=512)

        executor = make_executor(executor_name)
        half = len(zipf_stream) // 2
        engine = ShardedGSketch.build(
            zipf_sample,
            small_config,
            num_shards=2,
            executor=executor,
            stream_size_hint=len(zipf_stream),
            recovery=RecoveryPolicy(**self.POLICY_KWARGS),
        )
        try:
            engine.ingest(zipf_stream.prefix(half), batch_size=512)
            self._kill_one(executor)  # dies with batches possibly still in flight
            engine.ingest(zipf_stream.suffix(half), batch_size=512)
            engine.flush()
            _assert_states_bit_exact(reference.state_dict(), engine.state_dict())
            assert engine.supervisor.restarts >= 1
            assert engine.dead_shards == ()
        finally:
            engine.close()

    @pytest.mark.parametrize("executor_name", SUPERVISABLE)
    def test_repeated_crashes_keep_recovering(
        self, executor_name, zipf_stream, zipf_sample, small_config
    ):
        """Each incident gets a fresh restart budget; serial crashes all heal."""
        from repro.distributed import RecoveryPolicy

        reference = _build(zipf_sample, small_config, zipf_stream)
        reference.ingest(zipf_stream, batch_size=1024)

        executor = make_executor(executor_name)
        third = len(zipf_stream) // 3
        engine = ShardedGSketch.build(
            zipf_sample,
            small_config,
            num_shards=2,
            executor=executor,
            stream_size_hint=len(zipf_stream),
            recovery=RecoveryPolicy(**self.POLICY_KWARGS),
        )
        try:
            engine.ingest(zipf_stream.prefix(third), batch_size=1024)
            self._kill_one(executor)
            engine.ingest(zipf_stream.prefix(2 * third).suffix(third), batch_size=1024)
            engine.flush()
            self._kill_one(executor)
            engine.ingest(zipf_stream.suffix(2 * third), batch_size=1024)
            engine.flush()
            _assert_states_bit_exact(reference.state_dict(), engine.state_dict())
            assert engine.supervisor.restarts >= 2
        finally:
            engine.close()

    def test_supervised_empty_shards_reach_parity(
        self, zipf_stream, zipf_sample, small_config
    ):
        """More shards than partitions: empty shards have no worker to
        restart, and supervision must not trip over them."""
        from repro.distributed import RecoveryPolicy

        reference = _build(zipf_sample, small_config, zipf_stream)
        reference.ingest(zipf_stream, batch_size=1024)
        executor = SharedMemoryExecutor()
        engine = ShardedGSketch.build(
            zipf_sample,
            small_config,
            num_shards=50,
            executor=executor,
            stream_size_hint=len(zipf_stream),
            recovery=RecoveryPolicy(**self.POLICY_KWARGS),
        )
        try:
            engine.ingest(zipf_stream.prefix(2_000), batch_size=1024)
            self._kill_one(executor)
            engine.ingest(zipf_stream.suffix(2_000), batch_size=1024)
            engine.flush()
            edges = sorted(zipf_stream.distinct_edges())[:100]
            assert engine.query_edges(edges) == reference.query_edges(edges)
            # An empty shard has no worker: restarting it is a named error,
            # not a hang or a silent no-op.
            empty = next(
                index
                for index, process in enumerate(executor.worker_processes)
                if process is None
            )
            with pytest.raises(ShardExecutionError, match="no worker"):
                executor.restart_shard(engine.shards, empty)
        finally:
            engine.close()

    def test_teardown_escalates_to_kill(self):
        """A worker ignoring SIGTERM is force-killed within the deadline."""
        import multiprocessing
        import signal
        import time as time_module

        from repro.distributed.executor import reap_workers

        def stubborn() -> None:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            while True:
                time_module.sleep(0.1)

        process = multiprocessing.get_context("fork").Process(target=stubborn)
        process.start()
        try:
            start = time_module.monotonic()
            reap_workers([], [process], deadline=0.5)
            elapsed = time_module.monotonic() - start
            assert not process.is_alive()
            assert elapsed < 5.0  # escalated instead of waiting out SIGTERM
            assert process.exitcode == -signal.SIGKILL
        finally:
            if process.is_alive():  # pragma: no cover - cleanup on failure
                process.kill()
