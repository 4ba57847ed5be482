"""Reader-pool lifecycle and demux-ordering contracts.

The parallel read plane (:mod:`repro.queries.parallel`) maps a frozen
compiled-plan arena into N worker processes.  These tests pin its contracts:

* every public query path answers **bit-identically** to the in-process
  estimator, including when a batch is split into contiguous chunks across
  several workers and reassembled in submission order;
* the cache-merged serving path (:meth:`ReaderPool.query_edges_cached` over
  :meth:`~repro.queries.plan.HotEdgeCache.lookup_partial`) keeps exact batch
  ordering when cached hits interleave with misses gathered by ≥ 2 different
  workers — the cross-worker ordering regression;
* a dead worker surfaces as a typed :class:`ReaderWorkerError` naming the
  worker, after which the pool keeps serving degraded on the survivors, and
  the last death yields :class:`ReaderPoolError`;
* generation hot-swap mid-stream: answers always reflect exactly one plan
  generation, swaps are no-ops when nothing changed, and teardown releases
  every shared-memory block (no ``/dev/shm`` leaks), idempotently.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import faults
from repro.core.config import GSketchConfig
from repro.core.gsketch import GSketch
from repro.datasets.zipf import zipf_stream
from repro.graph.sampling import reservoir_sample
from repro.queries.parallel import (
    PlanConfig,
    ReaderPool,
    ReaderPoolError,
    ReaderSupervisor,
    ReaderWorkerError,
)
from repro.queries.plan import HotEdgeCache


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


def _build_estimator(num_edges: int = 6_000, seed: int = 7) -> GSketch:
    config = GSketchConfig(total_cells=4_000, depth=4, seed=seed)
    stream = zipf_stream(num_edges, population=256, seed=seed)
    sample = reservoir_sample(stream, 500, seed=seed)
    estimator = GSketch.build(sample, config, stream_size_hint=num_edges)
    estimator.process(stream)
    return estimator


@pytest.fixture(scope="module")
def estimator():
    return _build_estimator()


@pytest.fixture(scope="module")
def workload():
    """400 keys: seen edges plus never-seen sources (outlier-slot routing)."""
    stream = zipf_stream(6_000, population=256, seed=7)
    keys = sorted(stream.distinct_edges())[:380]
    keys += [(10**9 + index, 3) for index in range(20)]
    return keys


class TestQueryParity:
    def test_query_edges_split_across_workers(self, estimator, workload):
        oracle = np.asarray(estimator.query_edges(list(workload)))
        with ReaderPool.from_estimator(estimator, PlanConfig(readers=2)) as pool:
            got = pool.query_edges(list(workload))  # 400 keys → split in two
        np.testing.assert_array_equal(got, oracle)

    def test_query_edges_unsplit(self, estimator, workload):
        oracle = np.asarray(estimator.query_edges(list(workload)))
        with ReaderPool.from_estimator(estimator, PlanConfig(readers=2)) as pool:
            got = pool.query_edges(list(workload), split=False)
        np.testing.assert_array_equal(got, oracle)

    def test_map_batches_submission_order(self, estimator, workload):
        sources = np.array([k[0] for k in workload], dtype=np.int64)
        targets = np.array([k[1] for k in workload], dtype=np.int64)
        batches = [
            (sources[start : start + 50], targets[start : start + 50])
            for start in range(0, len(workload), 50)
        ]
        oracle = [
            np.asarray(estimator.query_edges(list(workload[start : start + 50])))
            for start in range(0, len(workload), 50)
        ]
        with ReaderPool.from_estimator(estimator, PlanConfig(readers=2)) as pool:
            answered = pool.map_batches(batches)
        assert len(answered) == len(oracle)
        for expected, got in zip(oracle, answered):
            np.testing.assert_array_equal(got, expected)

    def test_empty_batch(self, estimator):
        with ReaderPool.from_estimator(estimator, PlanConfig(readers=1)) as pool:
            assert pool.query_edges([]).shape == (0,)

    def test_oversized_batch_is_typed_error(self, estimator):
        config = PlanConfig(readers=1, batch_capacity=1024)
        oversized = [(index, index + 1) for index in range(1_500)]
        with ReaderPool.from_estimator(estimator, config) as pool:
            with pytest.raises(ReaderPoolError, match="staging capacity"):
                pool.query_edges(oversized, split=False)


class TestCrossWorkerCacheOrdering:
    """The satellite regression: cached hits + multi-worker misses, in order."""

    def test_mixed_cached_and_gathered_keys_keep_order(self, estimator, workload):
        oracle = np.asarray(estimator.query_edges(list(workload)))
        cache = HotEdgeCache(capacity=4_096)
        with ReaderPool.from_estimator(estimator, PlanConfig(readers=2)) as pool:
            generation = pool.generation
            # Prime the memo with every *third* key, so the next coalesced
            # batch interleaves cached hits with >= 256 misses — enough for
            # query_columns to split the compacted misses across both
            # workers, exercising the scatter-by-miss-index reassembly.
            primed = list(workload[::3])
            warm = pool.query_edges_cached(primed, cache, generation)
            np.testing.assert_array_equal(warm, oracle[::3])
            assert len(cache) == len(set(primed))

            got = pool.query_edges_cached(list(workload), cache, generation)
            np.testing.assert_array_equal(got, oracle)

            # Now everything is memoized: the all-hit path must stay exact.
            again = pool.query_edges_cached(list(workload), cache, generation)
            np.testing.assert_array_equal(again, oracle)

    def test_cold_cache_stores_batch(self, estimator, workload):
        cache = HotEdgeCache(capacity=4_096)
        with ReaderPool.from_estimator(estimator, PlanConfig(readers=2)) as pool:
            got = pool.query_edges_cached(list(workload), cache, pool.generation)
        oracle = np.asarray(estimator.query_edges(list(workload)))
        np.testing.assert_array_equal(got, oracle)
        assert len(cache) == len(set(map(tuple, workload)))

    def test_generation_bump_invalidates_memo(self, estimator, workload):
        cache = HotEdgeCache(capacity=4_096)
        with ReaderPool.from_estimator(estimator, PlanConfig(readers=1)) as pool:
            generation = pool.generation
            pool.query_edges_cached(list(workload), cache, generation)
            assert len(cache) > 0
            # A later generation must not serve stale entries.
            got = pool.query_edges_cached(list(workload), cache, generation + 1)
        oracle = np.asarray(estimator.query_edges(list(workload)))
        np.testing.assert_array_equal(got, oracle)


class TestWorkerDeath:
    def test_death_is_typed_and_pool_degrades(self, workload):
        estimator = _build_estimator(num_edges=3_000, seed=11)
        oracle = np.asarray(estimator.query_edges(list(workload[:40])))
        pool = ReaderPool.from_estimator(estimator, PlanConfig(readers=2))
        try:
            victim = pool._readers[0].process
            victim.kill()
            victim.join(timeout=10)
            # Round-robin starts at worker 0: the dead pipe surfaces as a
            # typed error naming the worker, not a hang or a bare OSError.
            with pytest.raises(ReaderWorkerError) as info:
                pool.query_edges(list(workload[:40]), split=False)
            assert info.value.worker_index == 0

            # Degraded serving: the survivor answers, bit-exact.
            got = pool.query_edges(list(workload[:40]))
            np.testing.assert_array_equal(got, oracle)

            # Last survivor dies -> typed error, then pool-empty error.
            pool._readers[1].process.kill()
            pool._readers[1].process.join(timeout=10)
            with pytest.raises(ReaderWorkerError):
                pool.query_edges(list(workload[:40]))
            with pytest.raises(ReaderPoolError, match="no reader workers"):
                pool.query_edges(list(workload[:40]))
        finally:
            pool.close()

    def test_close_after_death_releases_everything(self, workload):
        estimator = _build_estimator(num_edges=3_000, seed=13)
        before = _shm_entries()
        pool = ReaderPool.from_estimator(estimator, PlanConfig(readers=2))
        pool._readers[1].process.kill()
        pool._readers[1].process.join(timeout=10)
        pool.query_edges(list(workload[:10]), split=False)  # worker 0 still fine
        pool.close()
        assert _shm_entries() <= before

    def test_close_after_total_death_releases_everything(self, workload):
        """Teardown with every pipe broken must still unlink all blocks."""
        estimator = _build_estimator(num_edges=3_000, seed=13)
        before = _shm_entries()
        pool = ReaderPool.from_estimator(estimator, PlanConfig(readers=2))
        for reader in pool._readers:
            reader.process.kill()
            reader.process.join(timeout=10)
        pool.close()
        pool.close()  # idempotent even after a fully-dead teardown
        assert _shm_entries() <= before


class TestHotSwap:
    def test_swap_mid_stream_tracks_generation(self, workload):
        estimator = _build_estimator(num_edges=3_000, seed=17)
        pool = ReaderPool.from_estimator(estimator, PlanConfig(readers=2))
        try:
            first_gen = pool.generation
            before = np.asarray(estimator.query_edges(list(workload[:60])))
            np.testing.assert_array_equal(
                pool.query_edges(list(workload[:60])), before
            )

            # Ingest more stream (bumps the estimator generation), swap, and
            # check the pool serves the *new* counts.
            extra = zipf_stream(2_000, population=256, seed=23)
            estimator.process(extra)
            assert estimator.ingest_generation != first_gen
            assert pool.swap_from(estimator) is True
            assert pool.generation == estimator.ingest_generation

            after = np.asarray(estimator.query_edges(list(workload[:60])))
            np.testing.assert_array_equal(
                pool.query_edges(list(workload[:60])), after
            )
            # The workload gained mass, so at least one estimate moved.
            assert (after >= before).all() and (after > before).any()
        finally:
            pool.close()

    def test_swap_same_generation_is_noop(self, estimator):
        with ReaderPool.from_estimator(estimator, PlanConfig(readers=1)) as pool:
            generation = pool.generation
            assert pool.swap_from(estimator) is False
            pool.swap(estimator.compile_plan())  # same generation: no-op
            assert pool.generation == generation

    def test_swap_releases_old_arena(self, workload):
        estimator = _build_estimator(num_edges=3_000, seed=19)
        before = _shm_entries()
        pool = ReaderPool.from_estimator(estimator, PlanConfig(readers=1))
        try:
            estimator.process(zipf_stream(1_000, population=256, seed=29))
            pool.swap_from(estimator)
            pool.query_edges(list(workload[:20]), split=False)
        finally:
            pool.close()
        assert _shm_entries() <= before

    def test_swap_with_dead_worker_survivors_remap_no_leak(self, workload):
        """Worker death mid-swap: survivors remap, the old arena is freed."""
        estimator = _build_estimator(num_edges=3_000, seed=19)
        before = _shm_entries()
        pool = ReaderPool.from_estimator(estimator, PlanConfig(readers=2))
        try:
            pool._readers[0].process.kill()
            pool._readers[0].process.join(timeout=10)
            estimator.process(zipf_stream(1_000, population=256, seed=31))
            assert pool.swap_from(estimator) is True
            assert pool.generation == estimator.ingest_generation
            oracle = np.asarray(estimator.query_edges(list(workload[:30])))
            got = pool.query_edges(list(workload[:30]), split=False)
            np.testing.assert_array_equal(got, oracle)
        finally:
            pool.close()
        assert _shm_entries() <= before


class TestLifecycle:
    def test_close_is_idempotent_and_typed_after(self, estimator, workload):
        pool = ReaderPool.from_estimator(estimator, PlanConfig(readers=1))
        assert not pool.closed
        pool.close()
        pool.close()  # idempotent
        assert pool.closed
        with pytest.raises(ReaderPoolError, match="closed"):
            pool.query_edges(list(workload[:5]))
        with pytest.raises(ReaderPoolError, match="closed"):
            _ = pool.generation

    def test_no_shm_leaks_across_lifecycle(self, estimator, workload):
        before = _shm_entries()
        with ReaderPool.from_estimator(estimator, PlanConfig(readers=2)) as pool:
            pool.query_edges(list(workload))
        assert _shm_entries() <= before

    def test_config_validation(self, estimator):
        with pytest.raises(ReaderPoolError, match="readers >= 1"):
            ReaderPool.from_estimator(estimator, PlanConfig(readers=0))
        with pytest.raises(ValueError):
            PlanConfig(readers=-1)
        with pytest.raises(ValueError):
            PlanConfig(scratch_mb=0)
        with pytest.raises(ValueError):
            PlanConfig(batch_capacity=64)

    def test_supervision_config_validation(self):
        with pytest.raises(ValueError, match="max_restarts"):
            PlanConfig(max_restarts=0)
        with pytest.raises(ValueError, match="restart_backoff_seconds"):
            PlanConfig(restart_backoff_seconds=-0.1)
        with pytest.raises(ValueError, match="restart_backoff_multiplier"):
            PlanConfig(restart_backoff_multiplier=0.5)
        config = PlanConfig()  # supervision on by default, sane budgets
        assert config.supervised and config.max_restarts >= 1


# ---------------------------------------------------------------------- #
# Supervised self-healing
# ---------------------------------------------------------------------- #
class TestSupervisor:
    """The tentpole: dead readers respawn, dispatch never loses a batch."""

    @staticmethod
    def _kill(pool, index):
        pool._readers[index].process.kill()
        pool._readers[index].process.join(timeout=10)

    def test_supervised_call_heals_and_stays_bit_exact(self, workload):
        estimator = _build_estimator(num_edges=3_000, seed=31)
        oracle = np.asarray(estimator.query_edges(list(workload[:40])))
        pool = ReaderPool.from_estimator(
            estimator, PlanConfig(readers=2, restart_backoff_seconds=0.0)
        )
        supervisor = ReaderSupervisor(pool, background=False)
        try:
            self._kill(pool, 0)
            # The dead pipe surfaces mid-dispatch; the supervisor re-issues
            # the batch on the survivor and respawns the slot inline
            # (background=False), so the caller never sees the death.
            got = supervisor.call(pool.query_edges, list(workload[:40]), split=False)
            np.testing.assert_array_equal(got, oracle)
            assert supervisor.restarts == 1
            telemetry = supervisor.telemetry()
            assert telemetry["alive"] == 2
            assert telemetry["self_healed"] and not telemetry["degraded"]
            # The respawned worker serves the same generation, bit-exact.
            got = supervisor.call(pool.query_edges, list(workload[:40]))
            np.testing.assert_array_equal(got, oracle)
        finally:
            supervisor.close()
            pool.close()

    def test_whole_pool_death_heals_blocking(self, workload):
        estimator = _build_estimator(num_edges=3_000, seed=31)
        oracle = np.asarray(estimator.query_edges(list(workload[:30])))
        pool = ReaderPool.from_estimator(
            estimator, PlanConfig(readers=2, restart_backoff_seconds=0.0)
        )
        supervisor = ReaderSupervisor(pool, background=False)
        try:
            self._kill(pool, 0)
            self._kill(pool, 1)
            # Single-batch dispatches round-robin over both slots: a killed
            # worker is only *detected* when a dispatch hits its pipe, so a
            # few supervised calls flush both zombies through heal.
            for _ in range(6):
                got = supervisor.call(
                    pool.query_edges, list(workload[:30]), split=False
                )
                np.testing.assert_array_equal(got, oracle)
            assert supervisor.restarts == 2
            assert pool.alive_count == 2 and not pool.dead_workers()
        finally:
            supervisor.close()
            pool.close()

    def test_restart_budget_exhausts_and_pool_degrades(self, workload):
        estimator = _build_estimator(num_edges=3_000, seed=31)
        oracle = np.asarray(estimator.query_edges(list(workload[:30])))
        pool = ReaderPool.from_estimator(
            estimator,
            PlanConfig(readers=2, max_restarts=1, restart_backoff_seconds=0.0),
        )
        supervisor = ReaderSupervisor(pool, background=False)
        try:
            self._kill(pool, 0)
            for _ in range(4):  # flush the zombie slot through heal
                got = supervisor.call(
                    pool.query_edges, list(workload[:30]), split=False
                )
                np.testing.assert_array_equal(got, oracle)
                if supervisor.restarts:
                    break
            assert supervisor.restarts == 1
            # The slot dies again: the budget (max_restarts=1) is spent, so
            # the supervisor marks it exhausted instead of crash-looping.
            self._kill(pool, 0)
            for _ in range(6):
                got = supervisor.call(
                    pool.query_edges, list(workload[:30]), split=False
                )
                np.testing.assert_array_equal(got, oracle)
                if 0 in supervisor.exhausted:
                    break
            assert supervisor.heal() is None  # nothing left it may respawn
            telemetry = supervisor.telemetry()
            assert telemetry["exhausted"] == [0]
            assert telemetry["degraded"] and telemetry["alive"] == 1
            # Degraded is still serving: the survivor answers, bit-exact.
            got = supervisor.call(pool.query_edges, list(workload[:30]), split=False)
            np.testing.assert_array_equal(got, oracle)
        finally:
            supervisor.close()
            pool.close()

    def test_respawned_worker_sheds_one_shot_faults(self, workload):
        """The fork-inheritance regression: a restarted reader must not
        re-fire the one-shot crash spec that killed its predecessor."""
        estimator = _build_estimator(num_edges=3_000, seed=31)
        oracle = np.asarray(estimator.query_edges(list(workload[:30])))
        faults.install(
            faults.FaultPlan(
                [faults.FaultSpec(site=faults.SITE_READER_CRASH_BATCH, at_hit=1)]
            )
        )
        try:
            pool = ReaderPool.from_estimator(
                estimator, PlanConfig(readers=1, restart_backoff_seconds=0.0)
            )
            supervisor = ReaderSupervisor(pool, background=False)
            try:
                # The worker inherits the armed plan at spawn and crashes on
                # its first batch; the respawn ships restart_plan() — one-shot
                # specs dropped — so the healed worker answers.
                got = supervisor.call(
                    pool.query_edges, list(workload[:30]), split=False
                )
                np.testing.assert_array_equal(got, oracle)
                assert supervisor.restarts >= 1
                assert supervisor.telemetry()["self_healed"]
            finally:
                supervisor.close()
                pool.close()
        finally:
            faults.clear()

    def test_persistent_fault_consumes_budget_then_survivor_serves(self, workload):
        """A slot that crashes on every restart exhausts its budget; the
        pinned-shard fault never touches the survivor."""
        estimator = _build_estimator(num_edges=3_000, seed=31)
        oracle = np.asarray(estimator.query_edges(list(workload[:30])))
        faults.install(
            faults.FaultPlan(
                [
                    faults.FaultSpec(
                        site=faults.SITE_READER_CRASH_BATCH,
                        at_hit=1,
                        shard=0,
                        persistent=True,
                    )
                ]
            )
        )
        try:
            pool = ReaderPool.from_estimator(
                estimator,
                PlanConfig(readers=2, max_restarts=2, restart_backoff_seconds=0.0),
            )
            supervisor = ReaderSupervisor(pool, background=False)
            try:
                for _ in range(12):
                    got = supervisor.call(
                        pool.query_edges, list(workload[:30]), split=False
                    )
                    np.testing.assert_array_equal(got, oracle)
                    if 0 in supervisor.exhausted:
                        break
                telemetry = supervisor.telemetry()
                assert telemetry["exhausted"] == [0]
                assert telemetry["alive"] == 1 and telemetry["degraded"]
            finally:
                supervisor.close()
                pool.close()
        finally:
            faults.clear()

    def test_respawn_worker_guards(self, estimator):
        pool = ReaderPool.from_estimator(estimator, PlanConfig(readers=1))
        try:
            with pytest.raises(ReaderPoolError, match="still in service"):
                pool.respawn_worker(0)
            with pytest.raises(ReaderPoolError, match="no reader slot"):
                pool.respawn_worker(5)
        finally:
            pool.close()
        with pytest.raises(ReaderPoolError):
            pool.respawn_worker(0)

    def test_supervisor_close_is_idempotent(self, estimator):
        pool = ReaderPool.from_estimator(estimator, PlanConfig(readers=1))
        supervisor = ReaderSupervisor(pool)  # background healer thread
        supervisor.close()
        supervisor.close()
        pool.close()
        assert supervisor.telemetry()["alive"] == 0
