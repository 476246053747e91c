"""Adaptive chunk sizing: controller, telemetry and scheduler behaviour.

The :class:`repro.harness.parallel.ChunkSizeController` is pure
arithmetic over telemetry records, so it is tested in isolation with
synthetic :class:`ChunkTelemetry`; the scheduler-level tests then drive a
real :class:`ChunkScheduler` with fabricated outcomes to show that a
deliberately slow campaign kind ends up with smaller chunks than a fast
one.  Finally the end-to-end tests assert that real chunk execution
produces telemetry and that adaptive sizing never changes campaign
results — only where campaigns pause.
"""

import pytest

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.parallel import (CampaignSpec, ChunkOutcome, ChunkPayload,
                                    ChunkScheduler, ChunkSizeController,
                                    ChunkTask, ChunkTelemetry, SweepConfig,
                                    campaign_matrix, execute_chunk_task,
                                    sizing_key, sizing_label)
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault


def telemetry(evaluations: int, wall_seconds: float) -> ChunkTelemetry:
    return ChunkTelemetry(evaluations=evaluations, wall_seconds=wall_seconds)


class TestChunkTelemetry:
    def test_rate(self):
        assert telemetry(10, 2.0).evaluations_per_second == 5.0

    def test_rate_unmeasurable(self):
        assert telemetry(0, 2.0).evaluations_per_second is None
        assert telemetry(10, 0.0).evaluations_per_second is None


class TestControllerValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="chunk_sizing"):
            ChunkSizeController(mode="magic", chunk_evaluations=4)

    def test_adaptive_needs_seed_chunk(self):
        with pytest.raises(ValueError, match="chunk_evaluations"):
            ChunkSizeController(mode="adaptive", chunk_evaluations=None)

    def test_adaptive_needs_positive_target(self):
        with pytest.raises(ValueError, match="target_chunk_seconds"):
            ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                target_chunk_seconds=0.0)

    def test_bad_clamp_rejected(self):
        with pytest.raises(ValueError, match="min_chunk_evaluations"):
            ChunkSizeController(chunk_evaluations=4, min_chunk_evaluations=0)
        with pytest.raises(ValueError, match="max_chunk_evaluations"):
            ChunkSizeController(chunk_evaluations=4, min_chunk_evaluations=5,
                                max_chunk_evaluations=2)

    def test_bad_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            ChunkSizeController(chunk_evaluations=4, smoothing=0.0)


class TestFixedMode:
    def test_fixed_is_a_no_op(self):
        """Fixed mode ignores telemetry entirely: the seed size always wins."""
        controller = ChunkSizeController(mode="fixed", chunk_evaluations=7)
        assert controller.chunk_for("kind") == 7
        for _ in range(10):
            controller.observe("kind", telemetry(1000, 1.0))
        assert controller.chunk_for("kind") == 7
        assert not controller.adaptive

    def test_fixed_without_chunking(self):
        controller = ChunkSizeController(mode="fixed", chunk_evaluations=None)
        controller.observe("kind", telemetry(10, 1.0))
        assert controller.chunk_for("kind") is None


class TestAdaptiveMode:
    def test_unobserved_kind_uses_seed(self):
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                         target_chunk_seconds=1.0)
        assert controller.chunk_for("never-seen") == 4

    def test_ewma_convergence(self):
        """A steady rate converges the chunk to rate * target."""
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                         target_chunk_seconds=2.0,
                                         smoothing=0.5)
        for _ in range(20):
            controller.observe("kind", telemetry(30, 1.0))  # 30 evals/s
        assert controller.rate("kind") == pytest.approx(30.0, rel=1e-6)
        assert controller.chunk_for("kind") == 60

    def test_ewma_tracks_rate_changes(self):
        """The estimate moves toward new measurements geometrically."""
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                         target_chunk_seconds=1.0,
                                         smoothing=0.5)
        controller.observe("kind", telemetry(100, 1.0))
        assert controller.rate("kind") == pytest.approx(100.0)
        controller.observe("kind", telemetry(20, 1.0))
        # 0.5 * 20 + 0.5 * 100
        assert controller.rate("kind") == pytest.approx(60.0)
        for _ in range(30):
            controller.observe("kind", telemetry(20, 1.0))
        assert controller.rate("kind") == pytest.approx(20.0, rel=1e-3)

    def test_min_clamp(self):
        """A glacial kind can never shrink below min_chunk_evaluations."""
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=8,
                                         target_chunk_seconds=1.0,
                                         min_chunk_evaluations=2)
        controller.observe("slow", telemetry(1, 100.0))  # 0.01 evals/s
        assert controller.chunk_for("slow") == 2

    def test_max_clamp(self):
        """A blazing kind can never grow beyond max_chunk_evaluations."""
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                         target_chunk_seconds=10.0,
                                         max_chunk_evaluations=50)
        controller.observe("fast", telemetry(10_000, 1.0))
        assert controller.chunk_for("fast") == 50

    def test_default_max_clamp_is_growth_bound(self):
        """Without an explicit max, growth is bounded at 32x the seed."""
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                         target_chunk_seconds=10.0)
        controller.observe("fast", telemetry(1_000_000, 1.0))
        assert controller.chunk_for("fast") == 4 * 32

    def test_kinds_are_independent(self):
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                         target_chunk_seconds=1.0)
        controller.observe("fast", telemetry(64, 1.0))
        controller.observe("slow", telemetry(2, 1.0))
        assert controller.chunk_for("fast") == 64
        assert controller.chunk_for("slow") == 2
        assert controller.chunk_for("unseen") == 4

    def test_unmeasurable_telemetry_is_ignored(self):
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                         target_chunk_seconds=1.0)
        controller.observe("kind", None)
        controller.observe("kind", telemetry(0, 1.0))
        controller.observe("kind", telemetry(10, 0.0))
        assert controller.rate("kind") is None
        assert controller.chunk_for("kind") == 4

    def test_snapshot(self):
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                         target_chunk_seconds=1.0)
        controller.observe(GeneratorKind.MCVERSI_RAND, telemetry(12, 1.0))
        view = controller.snapshot()
        assert view == {"McVerSi-RAND": {"evals_per_second": 12.0,
                                         "chunk_evaluations": 12}}

    def test_snapshot_label_collision_disambiguated(self):
        """Two keys rendering to the same label must not overwrite."""
        controller = ChunkSizeController(mode="adaptive", chunk_evaluations=4,
                                         target_chunk_seconds=1.0)
        controller.observe("same-label", telemetry(10, 1.0))
        controller.observe(("same-label",), telemetry(90, 1.0))
        view = controller.snapshot()
        assert view["same-label"]["evals_per_second"] == 10.0
        assert view["same-label#2"]["evals_per_second"] == 90.0
        assert len(view) == 2


class TestSizingKeys:
    def test_key_is_kind_and_fault(self):
        faulty, clean = campaign_matrix(
            kinds=[GeneratorKind.MCVERSI_RAND],
            faults=[Fault.SQ_NO_FIFO, None],
            generator_config=GeneratorConfig.quick(memory_kib=1),
            system_config=SystemConfig(), max_evaluations=4)
        assert sizing_key(faulty) != sizing_key(clean)
        assert sizing_key(faulty) == (GeneratorKind.MCVERSI_RAND,
                                      Fault.SQ_NO_FIFO)

    def test_labels(self):
        assert sizing_label((GeneratorKind.MCVERSI_RAND,
                             Fault.SQ_NO_FIFO)) == "McVerSi-RAND|SQ+no-FIFO"
        assert sizing_label((GeneratorKind.MCVERSI_RAND,
                             None)) == "McVerSi-RAND|correct"
        assert sizing_label(GeneratorKind.MCVERSI_RAND) == "McVerSi-RAND"

    def test_faulty_cell_does_not_skew_clean_cell(self):
        """The conflation regression: same kind, different fault, no bleed.

        A slow fault-injected cell must not shrink the clean cell's
        chunks (they share a generator kind but run systematically
        different workloads).
        """
        specs = campaign_matrix(
            kinds=[GeneratorKind.MCVERSI_RAND],
            faults=[Fault.SQ_NO_FIFO, None],
            generator_config=GeneratorConfig.quick(memory_kib=1),
            system_config=SystemConfig(), max_evaluations=100)
        controller = ChunkSizeController(mode="adaptive",
                                         chunk_evaluations=10,
                                         target_chunk_seconds=1.0)
        scheduler = ChunkScheduler(specs, chunk_evaluations=10,
                                   controller=controller)
        faulty_task = scheduler.next_task()
        clean_task = scheduler.next_task()
        assert faulty_task.spec.fault is not None
        assert clean_task.spec.fault is None
        # The faulty cell crawls; the clean cell has not been observed
        # (its pause reports no telemetry).
        scheduler.record(ChunkOutcome(index=faulty_task.index,
                                      payload=STUB_PAYLOAD,
                                      telemetry=telemetry(1, 1.0)))
        scheduler.record(ChunkOutcome(index=clean_task.index,
                                      payload=STUB_PAYLOAD))
        resized = {task.spec.fault: task
                   for task in (scheduler.next_task(), scheduler.next_task())}
        assert resized[Fault.SQ_NO_FIFO].pause_after == 1
        # Clean cell keeps the seed size: no cross-fault contamination.
        assert resized[None].pause_after == 10


class TestByteBudget:
    def budget_controller(self, **kwargs) -> ChunkSizeController:
        return ChunkSizeController(chunk_evaluations=32,
                                   max_checkpoint_bytes=1000, **kwargs)

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="max_checkpoint_bytes"):
            ChunkSizeController(chunk_evaluations=4, max_checkpoint_bytes=0)

    def test_small_checkpoints_leave_chunks_alone(self):
        controller = self.budget_controller()
        controller.observe("cell", ChunkTelemetry(
            evaluations=4, wall_seconds=1.0, checkpoint_bytes=100))
        assert controller.byte_budget_scale("cell") == 1.0
        assert controller.chunk_for("cell") == 32

    def test_checkpoint_near_cap_shrinks_chunk(self):
        controller = self.budget_controller()
        controller.observe("cell", ChunkTelemetry(
            evaluations=4, wall_seconds=1.0, checkpoint_bytes=900))
        assert controller.byte_budget_scale("cell") < 0.25
        assert controller.chunk_for("cell") < 32

    def test_checkpoint_at_cap_floors_at_min_chunk(self):
        controller = self.budget_controller(min_chunk_evaluations=2)
        controller.observe("cell", ChunkTelemetry(
            evaluations=4, wall_seconds=1.0, checkpoint_bytes=2000))
        assert controller.byte_budget_scale("cell") == 0.0
        assert controller.chunk_for("cell") == 2

    def test_budget_applies_in_fixed_mode_too(self):
        """Fixed sizing must still shrink rather than outgrow the frame."""
        controller = self.budget_controller()
        assert not controller.adaptive
        controller.observe("cell", ChunkTelemetry(
            evaluations=4, wall_seconds=1.0, checkpoint_bytes=990))
        assert controller.chunk_for("cell") == 1
        # Other cells are untouched.
        assert controller.chunk_for("other") == 32

    def test_no_budget_means_no_scaling(self):
        controller = ChunkSizeController(chunk_evaluations=32)
        controller.observe("cell", ChunkTelemetry(
            evaluations=4, wall_seconds=1.0, checkpoint_bytes=10**9))
        assert controller.byte_budget_scale("cell") == 1.0
        assert controller.chunk_for("cell") == 32

    def test_bytes_ewma_tracks_observations(self):
        controller = self.budget_controller(smoothing=0.5)
        controller.observe("cell", ChunkTelemetry(
            evaluations=4, wall_seconds=1.0, checkpoint_bytes=400))
        assert controller.checkpoint_bytes("cell") == pytest.approx(400.0)
        controller.observe("cell", ChunkTelemetry(
            evaluations=4, wall_seconds=1.0, checkpoint_bytes=800))
        assert controller.checkpoint_bytes("cell") == pytest.approx(600.0)

    def test_completed_chunks_do_not_pollute_bytes(self):
        """checkpoint_bytes=0 (a completed shard) is not an observation."""
        controller = self.budget_controller()
        controller.observe("cell", ChunkTelemetry(
            evaluations=4, wall_seconds=1.0, checkpoint_bytes=900))
        controller.observe("cell", ChunkTelemetry(
            evaluations=4, wall_seconds=1.0, checkpoint_bytes=0))
        assert controller.checkpoint_bytes("cell") == pytest.approx(900.0)


# ----------------------------------------------------------------------
# Scheduler-level behaviour


def two_kind_specs() -> list[CampaignSpec]:
    """One RAND shard and one litmus shard, both with room to pause."""
    config = GeneratorConfig.quick(memory_kib=1, test_size=32, iterations=2,
                                   population_size=6)
    return campaign_matrix(
        kinds=[GeneratorKind.MCVERSI_RAND, GeneratorKind.DIY_LITMUS],
        faults=[None], generator_config=config,
        system_config=SystemConfig(), max_evaluations=100, seeds_per_cell=1)


#: Stands in for a paused chunk's checkpoint bytes in scheduler-only
#: tests.
STUB_PAYLOAD = ChunkPayload(data=b"stub")


class TestSchedulerSizing:
    def adaptive_scheduler(self, specs) -> ChunkScheduler:
        controller = ChunkSizeController(mode="adaptive",
                                         chunk_evaluations=10,
                                         target_chunk_seconds=1.0)
        return ChunkScheduler(specs, chunk_evaluations=10,
                              controller=controller)

    def test_slow_kind_gets_smaller_chunks_than_fast(self):
        """The point of adaptive sizing, at the scheduler surface.

        Feed the scheduler paused outcomes whose telemetry says the RAND
        campaign evaluates 50x faster than the litmus one; the next tasks
        it hands out must size the slow kind's chunk well below the fast
        kind's.
        """
        specs = two_kind_specs()
        scheduler = self.adaptive_scheduler(specs)
        first, second = scheduler.next_task(), scheduler.next_task()
        assert {first.index, second.index} == {0, 1}
        assert first.pause_after == 10 and second.pause_after == 10
        scheduler.record(ChunkOutcome(index=0, payload=STUB_PAYLOAD,
                                      telemetry=telemetry(50, 1.0)))
        scheduler.record(ChunkOutcome(index=1, payload=STUB_PAYLOAD,
                                      telemetry=telemetry(1, 1.0)))
        resized = {task.spec.kind: task
                   for task in (scheduler.next_task(), scheduler.next_task())}
        fast = resized[GeneratorKind.MCVERSI_RAND]
        slow = resized[GeneratorKind.DIY_LITMUS]
        assert fast.pause_after == 50
        assert slow.pause_after == 1
        assert slow.pause_after < fast.pause_after

    def test_requeued_lost_chunk_is_resized_at_dispatch(self):
        """Fault-tolerance re-queues also pick up the fresh size."""
        specs = two_kind_specs()
        scheduler = self.adaptive_scheduler(specs)
        task = scheduler.next_task()
        scheduler.record(ChunkOutcome(index=task.index,
                                      payload=STUB_PAYLOAD,
                                      telemetry=telemetry(30, 1.0)))
        continuation = scheduler.next_task()
        scheduler.requeue(continuation)       # its worker died
        redispatched = scheduler.next_task()
        assert redispatched.index == task.index
        assert redispatched.pause_after == 30

    def test_fixed_scheduler_sizes_never_move(self):
        specs = two_kind_specs()
        scheduler = ChunkScheduler(specs, chunk_evaluations=10)
        task = scheduler.next_task()
        scheduler.record(ChunkOutcome(index=task.index,
                                      payload=STUB_PAYLOAD,
                                      telemetry=telemetry(5000, 1.0)))
        assert scheduler.next_task().pause_after == 10

    def test_aggregate_telemetry_accumulates(self):
        specs = two_kind_specs()
        scheduler = self.adaptive_scheduler(specs)
        scheduler.next_task()
        scheduler.next_task()  # drain both initial (payload-free) tasks
        scheduler.record(ChunkOutcome(
            index=0, payload=ChunkPayload(data=b"x" * 128),
            telemetry=ChunkTelemetry(evaluations=10, wall_seconds=2.0,
                                     checkpoint_bytes=128)))
        assert scheduler.total_chunk_evaluations == 10
        assert scheduler.total_chunk_seconds == 2.0
        assert scheduler.total_checkpoint_bytes == 128
        # The result hop forwarded the payload bytes verbatim instead of
        # re-pickling the checkpoint graph...
        assert scheduler.total_payload_bytes_saved == 128
        view = scheduler.telemetry_snapshot()
        assert view["evals_per_second"] == 5.0
        assert "McVerSi-RAND|correct" in view["kinds"]
        assert view["checkpoint"] == {"bytes": 128, "saved_bytes": 128}
        # ...and dispatching the continuation credits the task hop too.
        continuation = scheduler.next_task()
        assert continuation.index == 0
        assert scheduler.total_payload_bytes_saved == 256

    def test_stale_pause_payload_not_credited_as_saved(self):
        """A dropped stale pause's dispatch hop never happens, so only
        the result hop it actually crossed is counted."""
        specs = two_kind_specs()
        scheduler = ChunkScheduler(specs, chunk_evaluations=10)
        task = scheduler.next_task()
        scheduler.next_task()
        scheduler.requeue(task)
        scheduler.record(ChunkOutcome(index=task.index,
                                      payload=ChunkPayload(data=b"y" * 64)))
        assert scheduler.stale_pauses == 1
        assert scheduler.total_payload_bytes_saved == 64

    def test_stale_pause_after_requeue_is_dropped(self):
        """The duplicate-pause regression (presumed-dead worker heard
        from after all).

        Sequence: a chunk is dispatched, its worker goes silent, the
        task is re-queued for another worker — and *then* the original
        worker's paused outcome arrives.  Recording that late pause used
        to pass the completed-shard dedup and enqueue a second
        continuation for the same shard, double-running it; the
        scheduler must drop it instead.
        """
        specs = two_kind_specs()
        scheduler = ChunkScheduler(specs, chunk_evaluations=10)
        task = scheduler.next_task()
        other = scheduler.next_task()
        scheduler.requeue(task)  # presumed dead
        late_pause = ChunkOutcome(index=task.index,
                                  payload=ChunkPayload(data=b"stale"),
                                  telemetry=telemetry(10, 1.0))
        assert scheduler.record(late_pause) is None
        assert scheduler.stale_pauses == 1
        # Exactly one task for the shard remains: the re-queued original.
        indices = []
        while (queued := scheduler.next_task()) is not None:
            indices.append(queued.index)
        assert indices == [task.index]
        assert other.index not in indices
        # Telemetry still counted: the work genuinely happened.
        assert scheduler.total_chunk_evaluations == 10

    def test_duplicate_requeue_is_idempotent(self):
        specs = two_kind_specs()
        scheduler = ChunkScheduler(specs, chunk_evaluations=10)
        task = scheduler.next_task()
        scheduler.next_task()
        scheduler.requeue(task)
        scheduler.requeue(task)  # double forfeit (monitor + disconnect)
        indices = []
        while (queued := scheduler.next_task()) is not None:
            indices.append(queued.index)
        assert indices.count(task.index) == 1

    def test_stale_continuation_skipped_after_completion(self):
        """A queued continuation whose shard completed elsewhere is
        skipped by next_task, not handed to a worker."""
        specs = two_kind_specs()
        scheduler = ChunkScheduler(specs, chunk_evaluations=10)
        task = scheduler.next_task()
        other = scheduler.next_task()
        scheduler.requeue(task)
        # The original worker completes the shard after all (a stale
        # *completion* is accepted: replays are bit-identical).
        shard = object()
        outcome = ChunkOutcome(index=task.index, shard=shard,
                               telemetry=telemetry(10, 1.0))
        assert scheduler.record(outcome) == (task.index, shard)
        # The re-queued duplicate must now be skipped.
        assert scheduler.next_task() is None
        assert scheduler.pending == 1  # only `other` is still live
        assert other.index != task.index


# ----------------------------------------------------------------------
# End-to-end: real chunk execution and result invariance


def small_spec(max_evaluations: int = 6) -> CampaignSpec:
    config = GeneratorConfig.quick(memory_kib=1, test_size=32, iterations=2,
                                   population_size=6)
    return campaign_matrix(kinds=[GeneratorKind.MCVERSI_RAND],
                           faults=[Fault.SQ_NO_FIFO],
                           generator_config=config,
                           system_config=SystemConfig(),
                           max_evaluations=max_evaluations,
                           seeds_per_cell=1)[0]


class TestExecutionTelemetry:
    def test_paused_chunk_reports_telemetry(self):
        outcome = execute_chunk_task(ChunkTask(index=0, spec=small_spec(),
                                               pause_after=2))
        assert outcome.error is None
        assert outcome.payload is not None
        assert outcome.telemetry.evaluations == 2
        assert outcome.telemetry.wall_seconds > 0.0
        # The telemetry measures the payload itself: one and the same
        # serialization.
        assert outcome.telemetry.checkpoint_bytes == outcome.payload.nbytes
        assert outcome.telemetry.checkpoint_bytes > 0
        assert outcome.telemetry.checkpoint_seconds >= 0.0

    def test_resumed_chunk_reports_delta_not_cumulative(self):
        spec = small_spec()
        first = execute_chunk_task(ChunkTask(index=0, spec=spec,
                                             pause_after=2))
        second = execute_chunk_task(ChunkTask(index=0, spec=spec,
                                              checkpoint=first.payload,
                                              pause_after=3))
        assert second.telemetry.evaluations <= 3

    def test_completed_shard_has_no_checkpoint_cost(self):
        outcome = execute_chunk_task(ChunkTask(index=0,
                                               spec=small_spec(2),
                                               pause_after=None))
        assert outcome.shard is not None
        assert outcome.telemetry.checkpoint_bytes == 0
        assert outcome.telemetry.checkpoint_seconds == 0.0
        assert outcome.telemetry.evaluations == outcome.shard.result.evaluations


class TestValidation:
    def test_adaptive_requires_chunk_evaluations(self):
        with pytest.raises(ValueError, match="chunk_evaluations"):
            SweepConfig(chunk_sizing="adaptive")

    def test_unknown_chunk_sizing_rejected(self):
        with pytest.raises(ValueError, match="chunk_sizing"):
            SweepConfig(chunk_sizing="magic")
