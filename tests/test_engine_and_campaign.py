"""Integration tests for the verification engine, campaigns and harness."""

import random

import pytest

from repro.core.campaign import Campaign, GeneratorKind
from repro.core.config import GeneratorConfig
from repro.core.engine import VerificationEngine
from repro.core.generator import RandomTestGenerator
from repro.harness.experiment import (BugCoverageCell, BugCoverageExperiment,
                                      CoverageExperiment, ExperimentSettings,
                                      budget_scaling_summary)
from repro.harness.reporting import format_key_value, format_table
from repro.litmus.runner import LitmusRunner
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault, FaultSet
from repro.sim.host import GuestSoftwareBarrier, HostAssistedBarrier, barrier_by_name


def tiny_config(memory_kib: int = 1) -> GeneratorConfig:
    return GeneratorConfig.quick(memory_kib=memory_kib, test_size=32,
                                 iterations=3, population_size=6)


class TestVerificationEngine:
    def test_clean_run_reports_fitness_and_ndt(self):
        config = tiny_config()
        engine = VerificationEngine(config, SystemConfig(), seed=5)
        generator = RandomTestGenerator(config, random.Random(5))
        result = engine.run_test(generator.generate())
        assert not result.bug_found
        assert result.iterations_run == config.iterations
        assert result.ndt >= 0.0
        assert 0.0 <= result.fitness.fitness <= 1.0
        assert result.sim_seconds > 0.0

    def test_run_sums_the_iteration_counters(self):
        config = tiny_config()
        engine = VerificationEngine(config, SystemConfig(), seed=5)
        iterations = []
        run_iteration = engine.system.run_iteration

        def recording(threads, seed):
            iterations.append(run_iteration(threads, seed))
            return iterations[-1]

        engine.system.run_iteration = recording
        generator = RandomTestGenerator(config, random.Random(5))
        result = engine.run_test(generator.generate())
        assert len(iterations) == result.iterations_run == config.iterations
        for name in ("kernel_events", "messages_sent", "ticks",
                     "loads_squashed"):
            assert getattr(result, name) == sum(
                getattr(iteration, name) for iteration in iterations), name
        assert result.kernel_events > result.messages_sent > 0

    def test_buggy_run_stops_early_and_reports(self):
        config = tiny_config()
        engine = VerificationEngine(config, SystemConfig(),
                                    faults=FaultSet.of(Fault.SQ_NO_FIFO), seed=5)
        generator = RandomTestGenerator(config, random.Random(5))
        found = False
        for _ in range(10):
            result = engine.run_test(generator.generate())
            if result.bug_found:
                found = True
                assert result.violations
                break
        assert found

    def test_fitness_sees_pre_run_rare_snapshot(self):
        # Regression: the rare set must be snapshotted before the run folds
        # its transitions into the global counts, otherwise a test that
        # pushes a rare transition past the cutoff self-penalises.
        from repro.core.fitness import AdaptiveCoverageFitness
        from repro.sim.coverage import CoverageCollector

        class SpyFitness(AdaptiveCoverageFitness):
            def __init__(self, coverage):
                super().__init__(coverage)
                self.counts_at_snapshot = None
                self.snapshot = None
                self.rare_at_evaluate = None

            def pre_run_rare(self):
                self.counts_at_snapshot = dict(self.coverage.global_counts)
                self.snapshot = super().pre_run_rare()
                return self.snapshot

            def evaluate(self, run_transitions, ndt=0.0, rare=None):
                self.rare_at_evaluate = rare
                return super().evaluate(run_transitions, ndt=ndt, rare=rare)

        config = tiny_config()
        coverage = CoverageCollector()
        fitness = SpyFitness(coverage)
        engine = VerificationEngine(config, SystemConfig(), coverage=coverage,
                                    fitness=fitness, seed=5)
        generator = RandomTestGenerator(config, random.Random(5))
        engine.run_test(generator.generate())
        # The snapshot was taken before any of this run's transitions were
        # recorded, and evaluate() received exactly that snapshot.
        assert fitness.counts_at_snapshot == {}
        assert fitness.rare_at_evaluate == fitness.snapshot
        assert coverage.global_counts  # the run did record transitions

    def test_coverage_accumulates_across_runs(self):
        config = tiny_config()
        engine = VerificationEngine(config, SystemConfig(), seed=6)
        generator = RandomTestGenerator(config, random.Random(6))
        engine.run_test(generator.generate())
        first = len(engine.coverage.covered_transitions)
        engine.run_test(generator.generate())
        assert len(engine.coverage.covered_transitions) >= first


class TestCampaigns:
    @pytest.mark.parametrize("kind", [GeneratorKind.MCVERSI_RAND,
                                      GeneratorKind.MCVERSI_ALL,
                                      GeneratorKind.MCVERSI_STD_XO])
    def test_campaign_finds_store_order_bug(self, kind):
        campaign = Campaign(kind, tiny_config(), SystemConfig(),
                            faults=FaultSet.of(Fault.SQ_NO_FIFO), seed=9)
        result = campaign.run(max_evaluations=20)
        assert result.found
        assert result.evaluations_to_find is not None
        assert result.evaluations_to_find <= 20

    def test_campaign_respects_budget_without_bug(self):
        campaign = Campaign(GeneratorKind.MCVERSI_RAND, tiny_config(),
                            SystemConfig(), faults=FaultSet.none(), seed=9)
        result = campaign.run(max_evaluations=4)
        assert not result.found
        assert result.evaluations == 4
        assert result.total_coverage > 0.0

    def test_genetic_campaign_tracks_ndt_history(self):
        campaign = Campaign(GeneratorKind.MCVERSI_ALL, tiny_config(),
                            SystemConfig(), faults=FaultSet.none(), seed=11)
        result = campaign.run(max_evaluations=8)
        assert len(result.ndt_history) == 8

    def test_litmus_campaign_on_correct_system_finds_nothing(self):
        campaign = Campaign(GeneratorKind.DIY_LITMUS, tiny_config(),
                            SystemConfig(), faults=FaultSet.none(), seed=13)
        result = campaign.run(max_evaluations=10)
        assert not result.found

    def test_generator_kind_properties(self):
        assert GeneratorKind.MCVERSI_ALL.is_genetic
        assert GeneratorKind.MCVERSI_RAND.is_stateless
        assert GeneratorKind.DIY_LITMUS.is_stateless
        assert not GeneratorKind.MCVERSI_STD_XO.is_stateless


class TestLitmusRunner:
    def test_runner_cycles_through_corpus(self):
        config = tiny_config()
        engine = VerificationEngine(config, SystemConfig(), seed=3)
        runner = LitmusRunner(engine)
        result = runner.run(max_evaluations=5)
        assert result.evaluations == 5
        assert not result.found

    def test_runner_detects_store_order_bug(self):
        config = tiny_config()
        engine = VerificationEngine(config, SystemConfig(),
                                    faults=FaultSet.of(Fault.SQ_NO_FIFO), seed=3)
        runner = LitmusRunner(engine)
        result = runner.run(max_evaluations=80)
        assert result.found
        assert result.failing_test is not None


class TestHarness:
    def test_bug_coverage_experiment_rows(self):
        settings = ExperimentSettings(generator_config=tiny_config(8),
                                      system_config=SystemConfig(),
                                      samples=1, max_evaluations=3, seed=5)
        experiment = BugCoverageExperiment(
            settings, faults=[Fault.SQ_NO_FIFO],
            configurations=[(GeneratorKind.MCVERSI_RAND, 1)])
        cells = experiment.run()
        assert len(cells) == 1
        rows = experiment.table_rows()
        assert rows[0][0] == "SQ+no-FIFO"
        assert len(experiment.table_headers()) == 2

    def test_budget_scaling_summary_counts_any_sample(self):
        cell = BugCoverageCell(kind=GeneratorKind.MCVERSI_RAND, memory_kib=1,
                               fault=Fault.SQ_NO_FIFO)
        from repro.core.campaign import CampaignResult
        cell.results = [
            CampaignResult(kind=GeneratorKind.MCVERSI_RAND, found=False,
                           evaluations=5, evaluations_to_find=None,
                           wall_seconds=0.1),
            CampaignResult(kind=GeneratorKind.MCVERSI_RAND, found=True,
                           evaluations=5, evaluations_to_find=3,
                           wall_seconds=0.1),
        ]
        summary = budget_scaling_summary([cell], multipliers=(1, 2))
        fractions = summary[(GeneratorKind.MCVERSI_RAND, 1)]
        assert fractions[1] == 0.0
        assert fractions[2] == 1.0

    def test_coverage_experiment_structure(self):
        settings = ExperimentSettings(generator_config=tiny_config(1),
                                      system_config=SystemConfig(),
                                      samples=1, max_evaluations=2, seed=5)
        experiment = CoverageExperiment(
            settings, protocols=("MESI",),
            configurations=[(GeneratorKind.MCVERSI_RAND, 1)])
        results = experiment.run()
        assert ("MESI", GeneratorKind.MCVERSI_RAND, 1) in results
        assert 0.0 < results[("MESI", GeneratorKind.MCVERSI_RAND, 1)] <= 1.0

    def test_cell_labels(self):
        cell = BugCoverageCell(kind=GeneratorKind.MCVERSI_RAND, memory_kib=1,
                               fault=Fault.SQ_NO_FIFO)
        assert cell.label() == "NF"
        assert not cell.consistent


class TestReportingAndBarriers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [["x", 1], ["yy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bbbb" in lines[2]

    def test_format_key_value(self):
        text = format_key_value("Params", {"k": "v"})
        assert "Params" in text and "k" in text and "v" in text

    def test_host_barrier_has_zero_offsets(self):
        offsets = HostAssistedBarrier().start_offsets(8, seed=1)
        assert offsets == [0] * 8

    def test_guest_barrier_spreads_offsets(self):
        offsets = GuestSoftwareBarrier().start_offsets(8, seed=1)
        assert max(offsets) > 0
        assert len(offsets) == 8

    def test_guest_barrier_draws_from_the_seed_stream(self):
        # The draws of ``Random(seed ^ 0x5EED)``, as when the system
        # built that generator and passed it in.
        barrier = GuestSoftwareBarrier()
        assert barrier.start_offsets(8, seed=1) == [
            149, 879, 389, 619, 299, 147, 876, 523]
        assert barrier.start_offsets(4, seed=99) == [137, 106, 413, 430]

    def test_barrier_factory(self):
        assert barrier_by_name("host-assisted").name == "host-assisted"
        assert barrier_by_name("guest-software").name == "guest-software"
        with pytest.raises(ValueError):
            barrier_by_name("magic")
