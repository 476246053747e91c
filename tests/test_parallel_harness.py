"""Tests for the parallel campaign orchestrator (repro.harness.parallel)."""

import io
from dataclasses import replace

import pytest

from repro.core.campaign import Campaign, CampaignResult, GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.experiment import (BugCoverageExperiment, CoverageExperiment,
                                      ExperimentSettings)
from repro.harness.parallel import (CampaignSpec, ChunkOutcome,
                                    ChunkPayload, ChunkScheduler, ChunkTask,
                                    ChunkTelemetry, SweepAccumulator,
                                    SweepConfig, campaign_matrix,
                                    default_workers, derive_shard_seed,
                                    execute_chunk_task, iter_campaigns,
                                    run_campaigns, run_shard,
                                    run_shard_chunk)
from repro.harness.reporting import (ProgressPrinter, format_progress_line,
                                     format_speedup, format_sweep_report)
from repro.harness.scenarios import run_scenario_sweep, scenario_specs
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault, FaultSet


def tiny_config(memory_kib: int = 1) -> GeneratorConfig:
    return GeneratorConfig.quick(memory_kib=memory_kib, test_size=32,
                                 iterations=2, population_size=6)


def tiny_matrix(faults, seeds_per_cell=2, max_evaluations=5,
                kinds=(GeneratorKind.MCVERSI_RAND,)):
    return campaign_matrix(kinds=list(kinds), faults=list(faults),
                           generator_config=tiny_config(),
                           system_config=SystemConfig(),
                           max_evaluations=max_evaluations,
                           seeds_per_cell=seeds_per_cell, base_seed=7)


def outcomes(report):
    return [(shard.result.found, shard.result.evaluations_to_find)
            for shard in report.shards]


class TestShardSeeds:
    def test_derivation_is_deterministic(self):
        assert derive_shard_seed(1, 0) == derive_shard_seed(1, 0)
        assert derive_shard_seed(1, 0) != derive_shard_seed(1, 1)
        assert derive_shard_seed(1, 0) != derive_shard_seed(2, 0)

    def test_seeds_are_well_spread(self):
        seeds = {derive_shard_seed(5, index) for index in range(1000)}
        assert len(seeds) == 1000

    def test_matrix_seeds_independent_of_scheduling(self):
        first = tiny_matrix([Fault.SQ_NO_FIFO, None])
        second = tiny_matrix([Fault.SQ_NO_FIFO, None])
        assert [spec.seed for spec in first] == [spec.seed for spec in second]

    def test_matrix_switches_protocol_for_fault(self):
        specs = tiny_matrix([Fault.TSOCC_COMPARE, Fault.SQ_NO_FIFO])
        assert specs[0].system_config.protocol == "TSO_CC"
        assert specs[-1].system_config.protocol == SystemConfig().protocol


class TestOrchestrator:
    def test_serial_run_matches_direct_campaign(self):
        spec = tiny_matrix([Fault.SQ_NO_FIFO], seeds_per_cell=1)[0]
        campaign = Campaign(kind=spec.kind,
                            generator_config=spec.generator_config,
                            system_config=spec.system_config,
                            faults=FaultSet.of(Fault.SQ_NO_FIFO),
                            seed=spec.seed)
        direct = campaign.run(spec.max_evaluations)
        report = run_campaigns([spec], workers=1)
        assert outcomes(report) == [(direct.found, direct.evaluations_to_find)]
        assert report.shards[0].result.evaluations == direct.evaluations

    def test_parallel_matches_serial(self):
        specs = tiny_matrix([Fault.SQ_NO_FIFO, None])
        serial = run_campaigns(specs, workers=1)
        parallel = run_campaigns(specs, workers=2)
        assert outcomes(serial) == outcomes(parallel)
        assert serial.coverage.global_counts == parallel.coverage.global_counts
        assert serial.workers == 1 and parallel.workers == 2

    def test_merged_coverage_equals_per_shard_merge(self):
        specs = tiny_matrix([None], seeds_per_cell=2)
        report = run_campaigns(specs, workers=1)
        from repro.sim.coverage import CoverageCollector
        merged = CoverageCollector()
        for shard in report.shards:
            merged.merge(shard.coverage)
        assert merged.global_counts == report.coverage.global_counts
        assert report.coverage.total_coverage() > 0.0

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_campaigns([], workers=0)

    def test_empty_matrix(self):
        report = run_campaigns([], workers=1)
        assert report.shards == [] and report.found_count == 0

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_iter_campaigns_validates_eagerly(self):
        # The iterator mode must raise at call time, not on first next().
        with pytest.raises(ValueError):
            iter_campaigns([], workers=0)

    def test_chunk_evaluations_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk_evaluations"):
            SweepConfig(chunk_evaluations=0)


def heterogeneous_specs(budgets=(15, 3, 3, 9, 3, 3, 12, 3)):
    """A matrix with mixed per-shard budgets (the straggler scenario)."""
    specs = tiny_matrix([Fault.SQ_NO_FIFO, None], seeds_per_cell=4,
                        max_evaluations=1)
    return [replace(spec, max_evaluations=budget)
            for spec, budget in zip(specs, budgets)]


class TestWorkStealingScheduler:
    def test_heterogeneous_matrix_matches_serial(self):
        specs = heterogeneous_specs()
        serial = run_campaigns(specs, workers=1)
        stealing = run_campaigns(specs, workers=4)
        assert outcomes(serial) == outcomes(stealing)
        assert serial.coverage.global_counts == stealing.coverage.global_counts

    def test_chunked_matches_serial(self):
        specs = heterogeneous_specs()
        serial = run_campaigns(specs, workers=1)
        config = SweepConfig(chunk_evaluations=2)
        chunked = run_campaigns(specs, workers=4, config=config)
        serial_chunked = run_campaigns(specs, workers=1, config=config)
        assert outcomes(serial) == outcomes(chunked)
        assert outcomes(serial) == outcomes(serial_chunked)
        assert serial.coverage.global_counts == chunked.coverage.global_counts

    def test_genetic_campaigns_chunk_deterministically(self):
        # GP campaigns carry a population across chunk boundaries; mixed
        # budgets force mid-evolution pauses and reschedules.
        specs = campaign_matrix(kinds=[GeneratorKind.MCVERSI_ALL],
                                faults=[None], generator_config=tiny_config(),
                                system_config=SystemConfig(),
                                max_evaluations=10, seeds_per_cell=3,
                                base_seed=11)
        specs = [replace(spec, max_evaluations=budget)
                 for spec, budget in zip(specs, (10, 4, 14))]
        serial = run_campaigns(specs, workers=1)
        chunked = run_campaigns(specs, workers=3,
                                config=SweepConfig(chunk_evaluations=3))
        assert outcomes(serial) == outcomes(chunked)
        assert serial.coverage.global_counts == chunked.coverage.global_counts

    def test_worker_error_is_surfaced(self):
        bad = CampaignSpec(kind=GeneratorKind.DIRECTED,
                           generator_config=tiny_config(),
                           system_config=SystemConfig(), fault=None,
                           seed=1, max_evaluations=2)  # missing chromosome
        with pytest.raises(RuntimeError, match="failed in a worker"):
            run_campaigns([bad, bad], workers=2)

    def test_run_shard_chunk_pauses_and_resumes(self):
        spec = heterogeneous_specs()[0]
        shard, checkpoint = run_shard_chunk(spec, pause_after=2)
        while shard is None:
            shard, checkpoint = run_shard_chunk(spec, checkpoint,
                                                pause_after=2)
        reference = run_shard(spec)
        assert (shard.result.found, shard.result.evaluations_to_find) == \
            (reference.result.found, reference.result.evaluations_to_find)
        assert (shard.coverage.global_counts
                == reference.coverage.global_counts)


def two_kind_specs() -> list[CampaignSpec]:
    """One RAND shard and one litmus shard, both with room to pause."""
    return tiny_matrix([None], seeds_per_cell=1, max_evaluations=100,
                       kinds=(GeneratorKind.MCVERSI_RAND,
                              GeneratorKind.DIY_LITMUS))


def telemetry(evaluations: int, wall_seconds: float) -> ChunkTelemetry:
    return ChunkTelemetry(evaluations=evaluations, wall_seconds=wall_seconds)


#: Stands in for a paused chunk's checkpoint bytes in scheduler-only
#: tests.
STUB_PAYLOAD = ChunkPayload(data=b"stub")


class TestChunkScheduler:
    """The task source / result sink, driven with fabricated outcomes."""

    def test_every_dispatch_uses_the_chunk_size(self):
        """Continuations and re-queued chunks keep ``chunk_evaluations``,
        whatever the telemetry says."""
        scheduler = ChunkScheduler(two_kind_specs(), chunk_evaluations=10)
        task = scheduler.next_task()
        assert task.pause_after == 10
        scheduler.record(ChunkOutcome(index=task.index,
                                      payload=STUB_PAYLOAD,
                                      telemetry=telemetry(5000, 1.0)))
        scheduler.next_task()
        continuation = scheduler.next_task()
        assert continuation.index == task.index
        assert continuation.pause_after == 10
        scheduler.requeue(continuation)       # its worker died
        redispatched = scheduler.next_task()
        assert redispatched.index == task.index
        assert redispatched.pause_after == 10

    def test_aggregate_telemetry_accumulates(self):
        scheduler = ChunkScheduler(two_kind_specs(), chunk_evaluations=10)
        scheduler.next_task()
        scheduler.next_task()  # drain both initial (payload-free) tasks
        scheduler.record(ChunkOutcome(
            index=0, payload=ChunkPayload(data=b"x" * 128),
            telemetry=ChunkTelemetry(evaluations=10, wall_seconds=2.0,
                                     checkpoint_bytes=128)))
        assert scheduler.total_chunk_evaluations == 10
        assert scheduler.total_chunk_seconds == 2.0
        assert scheduler.total_checkpoint_bytes == 128
        assert scheduler.telemetry_snapshot() == {
            "evals_per_second": 5.0, "checkpoint": {"bytes": 128}}

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
        scheduler = ChunkScheduler(two_kind_specs(), chunk_evaluations=10)
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
        scheduler = ChunkScheduler(two_kind_specs(), chunk_evaluations=10)
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
        scheduler = ChunkScheduler(two_kind_specs(), chunk_evaluations=10)
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


def pausing_spec(max_evaluations: int = 6) -> CampaignSpec:
    """A shard on the correct system: it never finds, so it pauses."""
    return tiny_matrix([None], seeds_per_cell=1,
                       max_evaluations=max_evaluations)[0]


class TestExecutionTelemetry:
    def test_paused_chunk_reports_telemetry(self):
        outcome = execute_chunk_task(ChunkTask(index=0, spec=pausing_spec(),
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
        spec = pausing_spec()
        first = execute_chunk_task(ChunkTask(index=0, spec=spec,
                                             pause_after=2))
        second = execute_chunk_task(ChunkTask(index=0, spec=spec,
                                              checkpoint=first.payload,
                                              pause_after=3))
        assert second.telemetry.evaluations == 3

    def test_completed_shard_has_no_checkpoint_cost(self):
        outcome = execute_chunk_task(ChunkTask(index=0,
                                               spec=pausing_spec(2),
                                               pause_after=None))
        assert outcome.shard is not None
        assert outcome.telemetry.checkpoint_bytes == 0
        assert outcome.telemetry.checkpoint_seconds == 0.0
        assert (outcome.telemetry.evaluations
                == outcome.shard.result.evaluations)


class TestResultStreaming:
    def test_iter_campaigns_yields_every_shard_once(self):
        specs = heterogeneous_specs()
        indices = [index for index, _ in
                   iter_campaigns(specs, workers=4,
                                  config=SweepConfig(chunk_evaluations=2))]
        assert sorted(indices) == list(range(len(specs)))

    def test_on_result_streams_in_completion_order(self):
        specs = heterogeneous_specs()
        streamed = []
        report = run_campaigns(specs, workers=2,
                               on_result=lambda s: streamed.append(s.spec.seed))
        assert sorted(streamed) == sorted(spec.seed for spec in specs)
        # The final report is matrix-ordered regardless of completion order.
        assert [shard.spec.seed for shard in report.shards] == \
            [spec.seed for spec in specs]

    def test_sweep_accumulator_partial_reports(self):
        specs = tiny_matrix([Fault.SQ_NO_FIFO], seeds_per_cell=2,
                            max_evaluations=6)
        accumulator = SweepAccumulator(total=len(specs), workers=1)
        partials = []
        for index, shard in iter_campaigns(specs, workers=1):
            accumulator.add(index, shard)
            partials.append(accumulator.partial_report())
        assert [len(partial.shards) for partial in partials] == [1, 2]
        final = accumulator.finalize()
        assert len(final.shards) == 2
        assert final.coverage.total_coverage() > 0.0
        text = format_sweep_report(partials[0], title="partial")
        assert "shards=1" in text

    def test_sweep_accumulator_rejects_duplicates_and_early_finalize(self):
        specs = tiny_matrix([Fault.SQ_NO_FIFO], seeds_per_cell=2,
                            max_evaluations=2)
        accumulator = SweepAccumulator(total=2)
        with pytest.raises(RuntimeError, match="incomplete"):
            accumulator.finalize()
        index, shard = next(iter(iter_campaigns(specs, workers=1)))
        accumulator.add(index, shard)
        with pytest.raises(ValueError, match="already recorded"):
            accumulator.add(index, shard)

    def test_progress_line_and_printer(self):
        line = format_progress_line(completed=3, total=8, found=2,
                                    elapsed_seconds=1.5)
        assert "3/8" in line and "bugs_found=2" in line
        stream = io.StringIO()
        printer = ProgressPrinter(total=2, stream=stream)
        printer.update(completed=1, found=0, elapsed_seconds=0.1)
        printer.update(completed=2, found=1, elapsed_seconds=0.2)
        printer.finish()
        output = stream.getvalue()
        assert "\r" in output and output.endswith("\n")
        assert "2/2" in output

    def test_run_campaigns_progress_stream(self):
        specs = tiny_matrix([Fault.SQ_NO_FIFO], seeds_per_cell=2,
                            max_evaluations=2)
        stream = io.StringIO()
        run_campaigns(specs, workers=1, progress=True,
                      progress_stream=stream)
        assert "2/2" in stream.getvalue()


class TestSweepReport:
    def test_summaries_group_by_cell(self):
        specs = tiny_matrix([Fault.SQ_NO_FIFO, None], seeds_per_cell=2,
                            max_evaluations=8)
        report = run_campaigns(specs, workers=1)
        summaries = report.summaries()
        assert len(summaries) == 2
        assert all(summary.samples == 2 for summary in summaries)
        buggy = summaries[0]
        assert buggy.fault is Fault.SQ_NO_FIFO
        assert buggy.found_count >= 1
        assert buggy.evaluations_quantile(0.5) is not None
        correct = summaries[1]
        assert correct.fault is None and correct.found_count == 0
        assert correct.label() == "NF"
        assert correct.evaluations_quantile(0.9) is None

    def test_summaries_distinguish_memory_sizes(self):
        # Table 4 separates 1KB from 8KB configurations of one generator;
        # summaries must not conflate them.
        specs = []
        for memory_kib in (1, 8):
            specs.extend(campaign_matrix(
                kinds=[GeneratorKind.MCVERSI_RAND], faults=[None],
                generator_config=tiny_config(memory_kib),
                system_config=SystemConfig(), max_evaluations=2,
                seeds_per_cell=1, base_seed=3))
        report = run_campaigns(specs, workers=1)
        summaries = report.summaries()
        assert len(summaries) == 2
        assert [summary.memory_kib for summary in summaries] == [1, 8]
        assert summaries[0].generator_label == "McVerSi-RAND (1KB)"

    def test_summaries_distinguish_protocols(self):
        # Table 6 sweeps one generator over several protocols on the
        # correct system; summaries must not conflate them.
        specs = []
        for protocol in ("MESI", "TSO_CC"):
            specs.append(CampaignSpec(
                kind=GeneratorKind.MCVERSI_RAND,
                generator_config=tiny_config(),
                system_config=SystemConfig().with_protocol(protocol),
                fault=None, seed=3, max_evaluations=2))
        report = run_campaigns(specs, workers=1)
        summaries = report.summaries()
        assert len(summaries) == 2
        assert [summary.protocol for summary in summaries] == ["MESI", "TSO_CC"]
        assert summaries[1].bug_label == "correct (TSO_CC)"

    def test_formatting(self):
        specs = tiny_matrix([Fault.SQ_NO_FIFO], seeds_per_cell=1,
                            max_evaluations=6)
        report = run_campaigns(specs, workers=1)
        text = format_sweep_report(report, title="T")
        assert "T" in text and "SQ+no-FIFO" in text and "workers=1" in text
        assert "2.00x" in format_speedup(4.0, 2.0, 2)

    def test_spec_describe(self):
        spec = tiny_matrix([Fault.SQ_NO_FIFO], seeds_per_cell=1)[0]
        assert "SQ+no-FIFO" in spec.describe()
        assert str(spec.seed) in spec.describe()


class TestExperimentsThroughOrchestrator:
    def _settings(self, workers: int) -> ExperimentSettings:
        return ExperimentSettings(generator_config=tiny_config(),
                                  system_config=SystemConfig(),
                                  samples=2, max_evaluations=4, seed=5,
                                  workers=workers)

    def test_bug_coverage_experiment_parallel_matches_serial(self):
        faults = [Fault.SQ_NO_FIFO]
        configurations = [(GeneratorKind.MCVERSI_RAND, 1)]
        serial = BugCoverageExperiment(self._settings(1), faults=faults,
                                       configurations=configurations)
        parallel = BugCoverageExperiment(self._settings(2), faults=faults,
                                         configurations=configurations)
        serial_cells = serial.run()
        parallel_cells = parallel.run()
        for ours, theirs in zip(serial_cells, parallel_cells):
            assert [r.found for r in ours.results] == [r.found
                                                       for r in theirs.results]
            assert ([r.evaluations_to_find for r in ours.results]
                    == [r.evaluations_to_find for r in theirs.results])

    def test_coverage_experiment_parallel_matches_serial(self):
        configurations = [(GeneratorKind.MCVERSI_RAND, 1)]
        serial = CoverageExperiment(self._settings(1), protocols=("MESI",),
                                    configurations=configurations)
        parallel = CoverageExperiment(self._settings(2), protocols=("MESI",),
                                      configurations=configurations)
        assert serial.run() == parallel.run()


class TestDirectedScenarioShards:
    def test_scenario_specs_carry_chromosomes(self):
        specs = scenario_specs(faults=[Fault.SQ_NO_FIFO], seeds_per_scenario=2)
        assert len(specs) == 2
        assert all(spec.chromosome is not None for spec in specs)
        assert all(spec.kind is GeneratorKind.DIRECTED for spec in specs)
        assert specs[0].seed != specs[1].seed

    def test_sweep_finds_injected_bug(self):
        report = run_scenario_sweep(faults=[Fault.SQ_NO_FIFO], max_test_runs=5,
                                    workers=1)
        assert report.found_count == 1
        result = report.shards[0].result
        assert result.evaluations_to_find is not None
        assert result.detail

    def test_sweep_parallel_matches_serial(self):
        faults = [Fault.SQ_NO_FIFO, Fault.LQ_NO_TSO]
        serial = run_scenario_sweep(faults=faults, max_test_runs=3, workers=1)
        parallel = run_scenario_sweep(faults=faults, max_test_runs=3, workers=2)
        assert outcomes(serial) == outcomes(parallel)

    def test_directed_shard_on_correct_system_finds_nothing(self):
        spec = scenario_specs(faults=[Fault.SQ_NO_FIFO])[0]
        clean = CampaignSpec(kind=spec.kind,
                             generator_config=spec.generator_config,
                             system_config=spec.system_config, fault=None,
                             seed=spec.seed, max_evaluations=3,
                             chromosome=spec.chromosome)
        shard = run_shard(clean)
        assert not shard.result.found
        assert shard.result.evaluations == 3

    def test_directed_campaign_requires_chromosome(self):
        with pytest.raises(ValueError):
            Campaign(GeneratorKind.DIRECTED, tiny_config(),
                     SystemConfig()).run(max_evaluations=1)

    def test_directed_campaign_runs_fixed_chromosome(self):
        spec = scenario_specs(faults=[Fault.SQ_NO_FIFO])[0]
        campaign = Campaign(GeneratorKind.DIRECTED, spec.generator_config,
                            spec.system_config, faults=FaultSet.of(Fault.SQ_NO_FIFO),
                            seed=spec.seed, chromosome=spec.chromosome)
        result = campaign.run(max_evaluations=5)
        assert result.found and result.kind is GeneratorKind.DIRECTED


class TestCampaignResultRegressions:
    def test_found_within_zero_is_not_never_found(self):
        # Regression: truthiness (`if self.evaluations_to_find`) mapped a
        # find at evaluation 0 to the "never found" sentinel.
        result = CampaignResult(kind=GeneratorKind.MCVERSI_RAND, found=True,
                                evaluations=1, evaluations_to_find=0,
                                wall_seconds=0.0)
        assert result.found_within == 0

    def test_found_within_none_is_sentinel(self):
        result = CampaignResult(kind=GeneratorKind.MCVERSI_RAND, found=False,
                                evaluations=1, evaluations_to_find=None,
                                wall_seconds=0.0)
        assert result.found_within == CampaignResult.NEVER_FOUND
        assert result.found_within > 10**6
