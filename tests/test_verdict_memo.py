"""Collective checking: the verdict cache, memoized checker and sweep fold.

Three layers under test:

1. :class:`VerdictCache` itself — LRU bounds, counters, the
   mark/delta/merge/snapshot protocol the sweep fold is built on.
2. The memoized :class:`Checker` path — bit-identical results with the
   cache on, passing hits short-circuiting, failing hits re-checked.
3. The orchestration fold — the scheduler folding chunk deltas into the
   sweep-wide cache and stamping byte-budgeted shipments onto
   dispatches, :func:`execute_chunk_task` folding a shipment into the
   worker's cache (paused checkpoints carry no cache state), and full
   sweeps proving memo-on ≡ memo-off with a non-trivial hit-rate on the
   multiprocessing pool and on a service job served to two worker
   processes over loopback TCP.
"""

import pickle
from dataclasses import replace

import pytest

from repro.consistency.checker import Checker
from repro.consistency.memo import (CachedVerdict, VerdictCache,
                                    VerdictCacheDelta, VerdictCacheState)
from repro.consistency.models import SequentialConsistency, TotalStoreOrder
from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.distributed import reap_workers
from repro.harness.parallel import (ChunkOutcome, ChunkPayload,
                                    ChunkScheduler, ChunkTask,
                                    execute_chunk_task,
                                    SweepConfig, campaign_matrix,
                                    run_campaigns)
from repro.harness.service import VerificationService, spawn_service_workers
from repro.harness.store import JOB_DONE
from repro.sim.config import SystemConfig
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

X = 0x1000
Y = 0x2000


def mp_program():
    return [
        TestThread(0, (TestOp(0, OpKind.WRITE, X, 1),
                       TestOp(1, OpKind.WRITE, Y, 2))),
        TestThread(1, (TestOp(2, OpKind.READ, Y),
                       TestOp(3, OpKind.READ, X))),
    ]


def mp_trace(r1, r2):
    trace = ExecutionTrace()
    trace.record_write(0, 0, X, 1, 0)
    trace.record_write(1, 0, Y, 2, 0)
    trace.record_read(2, 1, Y, r1)
    trace.record_read(3, 1, X, r2)
    return trace


def sc_violating_program_and_trace():
    """SB with both reads stale: TSO-allowed, SC-forbidden."""
    program = [
        TestThread(0, (TestOp(0, OpKind.WRITE, X, 1),
                       TestOp(1, OpKind.READ, Y))),
        TestThread(1, (TestOp(2, OpKind.WRITE, Y, 2),
                       TestOp(3, OpKind.READ, X))),
    ]
    trace = ExecutionTrace()
    trace.record_write(0, 0, X, 1, 0)
    trace.record_read(1, 0, Y, 0)
    trace.record_write(2, 1, Y, 2, 0)
    trace.record_read(3, 1, X, 0)
    return program, trace


class TestVerdictCacheUnit:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            VerdictCache(capacity=0)

    def test_miss_then_hit_counters(self):
        cache = VerdictCache()
        assert cache.lookup("k") is None
        cache.store("k", CachedVerdict(passed=True), check_seconds=0.5)
        verdict = cache.lookup("k")
        assert verdict is not None and verdict.passed
        assert (cache.hits, cache.misses, cache.failed_refreshes) == (1, 1, 0)
        assert cache.seconds_saved == pytest.approx(0.5)

    def test_failing_hit_counts_as_refresh_not_hit(self):
        cache = VerdictCache()
        cache.store("k", CachedVerdict(passed=False))
        verdict = cache.lookup("k")
        assert verdict is not None and not verdict.passed
        assert (cache.hits, cache.failed_refreshes) == (0, 1)
        assert cache.seconds_saved == 0.0

    def test_lru_eviction_drops_coldest(self):
        cache = VerdictCache(capacity=2)
        cache.store("a", CachedVerdict(True))
        cache.store("b", CachedVerdict(True))
        cache.lookup("a")                      # refresh "a": "b" is coldest
        cache.store("c", CachedVerdict(True))  # evicts "b"
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_mark_delta_scopes_to_own_inserts(self):
        cache = VerdictCache()
        cache.merge(VerdictCacheDelta(entries=(("shipped",
                                                CachedVerdict(True)),)))
        mark = cache.mark()
        cache.lookup("shipped")
        cache.store("mine", CachedVerdict(True), check_seconds=0.25)
        delta = cache.delta(mark)
        assert [key for key, _ in delta.entries] == ["mine"]
        assert delta.hits == 1 and delta.misses == 0
        assert delta.checks_observed == 1
        assert delta.check_seconds_observed == pytest.approx(0.25)

    def test_merge_is_idempotent_and_counts_adoptions(self):
        cache = VerdictCache()
        cache.store("known", CachedVerdict(True))
        delta = VerdictCacheDelta(entries=(
            ("known", CachedVerdict(False)),   # ignored: key exists
            ("fresh", CachedVerdict(True)),
        ), hits=100)
        assert cache.merge(delta) == 1
        assert cache.merge(delta) == 0
        assert cache.lookup("known").passed    # the original verdict won
        assert cache.hits == 1                 # counters never merged

    def test_snapshot_captures_entries_and_counters(self):
        cache = VerdictCache(capacity=8)
        cache.store("a", CachedVerdict(True))
        cache.store("b", CachedVerdict(False))
        cache.lookup("a")
        state = cache.snapshot()
        assert state.capacity == 8 and state.hits == 1
        assert state.entries == (("b", CachedVerdict(False)),
                                 ("a", CachedVerdict(True)))
        clone = VerdictCache(capacity=8)
        assert clone.merge(state) == 2
        assert "a" in clone and "b" in clone and clone.hits == 0

    def test_stats_hit_rate(self):
        cache = VerdictCache()
        cache.store("k", CachedVerdict(True))
        cache.lookup("k")
        cache.lookup("missing")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)


class TestMemoizedChecker:
    def setup_method(self):
        self.checker = Checker(TotalStoreOrder())

    def test_passing_hit_matches_uncached_result(self):
        cache = VerdictCache()
        plain = self.checker.check_trace(mp_program(), mp_trace(2, 1))
        first = self.checker.check_trace(mp_program(), mp_trace(2, 1),
                                         cache=cache)
        second = self.checker.check_trace(mp_program(), mp_trace(2, 1),
                                          cache=cache)
        for result in (first, second):
            assert result.passed == plain.passed
            assert result.violations == plain.violations
            assert result.execution is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_failing_verdicts_recheck_with_identical_text(self):
        program, trace = sc_violating_program_and_trace()
        checker = Checker(SequentialConsistency())
        cache = VerdictCache()
        plain = checker.check_trace(program, trace)
        first = checker.check_trace(program, trace, cache=cache)
        second = checker.check_trace(program, trace, cache=cache)
        assert not plain.passed
        for result in (first, second):
            assert ([str(v) for v in result.violations] ==
                    [str(v) for v in plain.violations])
        assert cache.hits == 0 and cache.failed_refreshes == 1

    def test_corruption_never_touches_the_cache(self):
        trace = ExecutionTrace()
        trace.record_write(0, 0, X, 1, 0)
        trace.record_write(1, 0, Y, 2, 0)
        trace.record_read(2, 1, Y, 99)        # no write produced 99
        trace.record_read(3, 1, X, 0)
        cache = VerdictCache()
        result = self.checker.check_trace(mp_program(), trace, cache=cache)
        assert not result.passed
        assert result.violations[0].kind == "corruption"
        assert result.trace is trace
        assert len(cache) == 0 and cache.misses == 0


def tiny_specs(seeds_per_cell=2, max_evaluations=4):
    return campaign_matrix(kinds=[GeneratorKind.DIY_LITMUS], faults=[None],
                           generator_config=GeneratorConfig.quick(memory_kib=1),
                           system_config=SystemConfig(),
                           max_evaluations=max_evaluations,
                           seeds_per_cell=seeds_per_cell, base_seed=7)


class TestSchedulerCacheFold:
    def test_memo_off_dispatches_no_cache(self):
        scheduler = ChunkScheduler(tiny_specs(), chunk_evaluations=2)
        task = scheduler.next_task()
        assert task.cache is None
        assert scheduler.cache_telemetry() is None

    def test_dispatch_stamps_shipment_and_record_folds_delta(self):
        scheduler = ChunkScheduler(tiny_specs(), chunk_evaluations=2,
                                   verdict_memo=True)
        task = scheduler.next_task()
        assert task.cache is not None
        empty = pickle.loads(task.cache)
        assert isinstance(empty, VerdictCacheState) and not empty.entries
        delta = VerdictCacheDelta(
            entries=(("sig-1", CachedVerdict(True)),),
            hits=3, misses=2, seconds_saved=0.75)
        scheduler.record(ChunkOutcome(index=task.index, cache_delta=delta))
        assert "sig-1" in scheduler.verdict_cache
        assert scheduler.cache_hits == 3 and scheduler.cache_misses == 2
        follow_up = scheduler.next_task()
        shipped = pickle.loads(follow_up.cache)
        assert [key for key, _ in shipped.entries] == ["sig-1"]
        telemetry = scheduler.telemetry_snapshot()["verdict_cache"]
        assert telemetry["hits"] == 3
        assert telemetry["hit_rate"] == pytest.approx(0.6)
        assert telemetry["seconds_saved"] == pytest.approx(0.75)

    def test_shipment_bytes_reused_until_cache_grows(self):
        scheduler = ChunkScheduler(tiny_specs(), chunk_evaluations=2,
                                   verdict_memo=True)
        first = scheduler.next_task()
        second = scheduler.next_task()
        assert first.cache is second.cache   # lazily pickled once
        scheduler.record(ChunkOutcome(index=first.index,
                                      cache_delta=VerdictCacheDelta(
                                          entries=(("s",
                                                    CachedVerdict(True)),))))
        third = scheduler.next_task()
        assert third.cache is not first.cache

    def test_shipment_trimmed_to_byte_budget(self):
        specs = tiny_specs()
        unbounded = ChunkScheduler(specs, chunk_evaluations=2,
                                   verdict_memo=True)
        entries = tuple((f"signature-{index:04d}" * 4, CachedVerdict(True))
                        for index in range(200))
        unbounded.verdict_cache.merge(VerdictCacheDelta(entries=entries))
        full_size = len(unbounded.next_task().cache)
        budget = full_size // 4
        bounded = ChunkScheduler(specs, chunk_evaluations=2,
                                 verdict_memo=True, max_cache_bytes=budget)
        bounded.verdict_cache.merge(VerdictCacheDelta(entries=entries))
        shipment = bounded.next_task().cache
        assert len(shipment) <= budget
        state = pickle.loads(shipment)
        assert state.entries            # trimmed, not emptied
        # Oldest-first trimming: the newest entry always survives.
        assert state.entries[-1][0] == entries[-1][0]


def shipment(cache):
    return pickle.dumps(cache.snapshot(), protocol=pickle.HIGHEST_PROTOCOL)


def untimed_bytes(payload):
    """A paused payload re-pickled with its wall-clock fields zeroed.

    Those three fields differ between any two runs of a chunk; every
    other byte is the campaign's state.
    """
    checkpoint = replace(payload.load(), elapsed_seconds=0.0,
                         sim_seconds=0.0, check_seconds=0.0)
    return ChunkPayload.of(checkpoint).data


class TestWorkerShipmentFold:
    """``execute_chunk_task`` is where a worker folds a cache shipment."""

    def first_chunk(self, spec, shipped=None):
        return ChunkTask(index=0, spec=spec, checkpoint=None, pause_after=2,
                         cache=shipped)

    def test_shipment_merges_into_the_callers_cache(self):
        spec = tiny_specs(seeds_per_cell=1)[0]
        source = VerdictCache()
        source.store("shipped", CachedVerdict(True))
        worker = VerdictCache()
        outcome = execute_chunk_task(
            self.first_chunk(spec, shipment(source)), verdict_cache=worker)
        assert "shipped" in worker
        assert outcome.cache_delta is not None
        assert outcome.cache_delta.misses > 0
        assert "shipped" not in dict(outcome.cache_delta.entries)

    def test_shipment_without_a_persistent_cache_still_memoizes(self):
        spec = tiny_specs(seeds_per_cell=1)[0]
        outcome = execute_chunk_task(
            self.first_chunk(spec, shipment(VerdictCache())))
        assert outcome.cache_delta is not None
        assert outcome.cache_delta.entries

    def test_no_shipment_means_no_memo(self):
        spec = tiny_specs(seeds_per_cell=1)[0]
        worker = VerdictCache()
        outcome = execute_chunk_task(self.first_chunk(spec),
                                     verdict_cache=worker)
        assert outcome.cache_delta is None
        assert len(worker) == 0 and worker.misses == 0

    def test_paused_payload_is_independent_of_the_cache(self):
        spec = tiny_specs(seeds_per_cell=1)[0]
        off = execute_chunk_task(self.first_chunk(spec))
        cold = execute_chunk_task(
            self.first_chunk(spec, shipment(VerdictCache())),
            verdict_cache=VerdictCache())
        warm_cache = VerdictCache()
        execute_chunk_task(
            ChunkTask(index=0, spec=spec, checkpoint=None, pause_after=None,
                      cache=shipment(warm_cache)),
            verdict_cache=warm_cache)
        warm = execute_chunk_task(
            self.first_chunk(spec, shipment(warm_cache)),
            verdict_cache=warm_cache)
        assert warm.cache_delta.hits > 0
        assert off.payload is not None
        assert untimed_bytes(cold.payload) == untimed_bytes(off.payload)
        assert untimed_bytes(warm.payload) == untimed_bytes(off.payload)


class TestMemoizedSweeps:
    @staticmethod
    def fields(report):
        return [(shard.spec.label, shard.spec.seed, shard.result.found,
                 shard.result.evaluations, shard.result.evaluations_to_find,
                 tuple(shard.result.detail), shard.result.total_coverage,
                 tuple(shard.result.ndt_history))
                for shard in report.shards]

    def test_serial_memo_matches_and_hits(self):
        specs = tiny_specs(seeds_per_cell=2, max_evaluations=6)
        base = run_campaigns(specs, workers=1)
        memo = run_campaigns(specs, workers=1,
                             config=SweepConfig(verdict_memo=True))
        assert self.fields(base) == self.fields(memo)
        assert memo.verdict_cache is not None
        assert memo.verdict_cache["hits"] > 0
        assert base.verdict_cache is None

    def test_multiprocessing_memo_matches_and_hits(self):
        specs = tiny_specs(seeds_per_cell=3, max_evaluations=6)
        base = run_campaigns(specs, workers=2,
                             config=SweepConfig(chunk_evaluations=3))
        memo = run_campaigns(specs, workers=2, config=SweepConfig(
            chunk_evaluations=3, verdict_memo=True))
        assert self.fields(base) == self.fields(memo)
        assert memo.verdict_cache["hits"] > 0

    def test_loopback_service_memo_matches_and_hits(self, tmp_path):
        specs = tiny_specs(seeds_per_cell=3, max_evaluations=6)
        base = run_campaigns(specs, workers=2,
                             config=SweepConfig(chunk_evaluations=3))
        service = VerificationService(tmp_path / "store.sqlite",
                                      start_http=False)
        job_id = service.submit_job(specs, SweepConfig(
            chunk_evaluations=3, verdict_memo=True))
        workers = spawn_service_workers(service.address, 2)
        try:
            status = service.wait_job(job_id, timeout=120.0)
            memo = service.job_report(job_id)
            metrics = service.metrics_text().splitlines()
        finally:
            service.close()
            reap_workers(workers)
        assert status["state"] == JOB_DONE
        assert self.fields(base) == self.fields(memo)
        (hits,) = [int(line.split()[1]) for line in metrics if
                   line.startswith("mcversi_service_verdict_cache_hits_total")]
        assert hits > 0
