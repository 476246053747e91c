"""The verification engine: run test-runs, observe, check, score.

This is the host-side driver of the paper's Algorithm 2.  For each test-run
it executes the test for the configured number of iterations, each on the
simulated machine reset and reseeded, observes the conflict orders of every
iteration, checks every candidate execution against the target memory
model, folds the conflict orders into the test's rfcoRUN union (for
NDT/NDe), and finally computes the test's fitness from the coverage the run
achieved.

A bug is "found" when any iteration yields (a) an axiomatic-model violation,
(b) an inconsistent trace (memory corruption / lost update), (c) a protocol
error (invalid transition, the Ruby-style detection of MESI+PUTX-Race), or
(d) a deadlock.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

from repro.consistency.checker import Checker
from repro.consistency.execution import program_rows
from repro.consistency.memo import VerdictCache
from repro.consistency.models import MemoryModel, TotalStoreOrder
from repro.core.config import GeneratorConfig
from repro.core.fitness import AdaptiveCoverageFitness, FitnessReport
from repro.core.nondeterminism import TestRunStats
from repro.core.program import Chromosome
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector, CoverageState
from repro.sim.faults import FaultSet
from repro.sim.host import HostAssistedBarrier
from repro.sim.system import System


#: Releases the interpreter lock and lets a waiting thread on this CPU
#: run; a zero sleep does the same where ``sched_yield`` is missing.
_yield_to_waiting_threads = getattr(os, "sched_yield", None) or (
    lambda: time.sleep(0))


@dataclass
class TestRunResult:
    """Everything the GP loop needs to know about one evaluated test-run."""

    chromosome: Chromosome
    stats: TestRunStats
    fitness: FitnessReport
    bug_found: bool
    violations: list[str] = field(default_factory=list)
    iterations_run: int = 0
    sim_seconds: float = 0.0
    check_seconds: float = 0.0
    loads_squashed: int = 0
    ticks: int = 0
    kernel_events: int = 0
    messages_sent: int = 0

    @property
    def ndt(self) -> float:
        return self.stats.ndt()


@dataclass(frozen=True)
class EngineCheckpoint:
    """Picklable between-test-runs state of a :class:`VerificationEngine`.

    Captures everything that persists across test-runs — the per-run seed
    sequence, the cumulative coverage and the adaptive fitness counters.
    The simulated machine holds no cross-run state (it is reset before
    every iteration), so an engine reconstructed
    from the same configs and restored from this checkpoint continues the
    campaign bit-for-bit identically to one that was never interrupted.
    The verdict cache is not part of it: verdicts never depend on the
    cache, and the dispatch that resumes a chunk ships the sweep's
    entries.  A checkpoint pickled by an older release may still carry a
    ``verdict_cache`` attribute, which nothing reads.
    """

    rng_state: object
    test_runs: int
    coverage: CoverageState
    fitness: dict[str, object]


class VerificationEngine:
    """Executes and scores test-runs on a (possibly fault-injected) system."""

    def __init__(self, generator_config: GeneratorConfig,
                 system_config: SystemConfig,
                 faults: FaultSet | None = None,
                 model: MemoryModel | None = None,
                 coverage: CoverageCollector | None = None,
                 fitness: AdaptiveCoverageFitness | None = None,
                 barrier: object | None = None,
                 seed: int = 0,
                 verdict_cache: VerdictCache | None = None,
                 trace_sink=None) -> None:
        self.generator_config = generator_config
        self.system_config = system_config
        self.faults = faults or FaultSet.none()
        self.model = model or TotalStoreOrder()
        self.coverage = coverage or CoverageCollector()
        self.checker = Checker(self.model)
        # Collective checking: memoized verdicts keyed by exact execution
        # graph.  The cache object is typically shared — per worker or
        # sweep-wide — so graphs checked by one campaign are hits for every
        # later one.
        self.verdict_cache = verdict_cache
        # Optional ``(threads, trace)`` callback fired for every cleanly
        # simulated iteration — the export hook of the trace-ingestion
        # bridge (see :class:`repro.bridge.export.CorpusExporter`).
        self.trace_sink = trace_sink
        self.fitness = fitness or AdaptiveCoverageFitness(
            self.coverage,
            initial_cutoff=generator_config.coverage_initial_cutoff,
            low_threshold=generator_config.coverage_low_threshold,
            patience=generator_config.coverage_patience)
        self.barrier = barrier or HostAssistedBarrier()
        # Bound each iteration's simulated time relative to the test size so
        # that deadlocked (buggy) iterations are detected quickly rather than
        # burning the whole host-time budget.
        max_ticks = 60_000 + 3_000 * generator_config.test_size
        self.system = System(config=system_config, faults=self.faults,
                             coverage=self.coverage, barrier=self.barrier,
                             max_ticks=max_ticks)
        self._seed_sequence = random.Random(seed)
        self.test_runs = 0

    def close(self) -> None:
        """Free the simulated machine now (see :meth:`System.close`)."""
        self.system.close()

    # -- checkpoint/resume (chunked campaign scheduling) ---------------

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot the engine's cross-run state between two test-runs."""
        return EngineCheckpoint(rng_state=self._seed_sequence.getstate(),
                                test_runs=self.test_runs,
                                coverage=self.coverage.checkpoint(),
                                fitness=self.fitness.checkpoint())

    def restore(self, checkpoint: EngineCheckpoint) -> None:
        """Restore cross-run state captured by :meth:`checkpoint`."""
        self._seed_sequence.setstate(checkpoint.rng_state)
        self.test_runs = checkpoint.test_runs
        self.coverage.restore(checkpoint.coverage)
        self.fitness.restore(checkpoint.fitness)

    # ------------------------------------------------------------------

    def run_test(self, chromosome: Chromosome) -> TestRunResult:
        """Run one test-run (several iterations) and score it."""
        self.test_runs += 1
        self.coverage.begin_run()
        # Snapshot the rare set before this run's transitions are folded into
        # the collector's global counts, so a test that pushes a rare
        # transition past the cut-off during its own run still gets credit.
        rare_before_run = self.fitness.pre_run_rare()
        threads = chromosome.to_threads()
        # The simulator and the trace sink take the threads; every
        # iteration's check reads this one conversion.
        program = program_rows(threads)
        event_addresses = chromosome.event_addresses()
        stats = TestRunStats(num_events=max(len(event_addresses), 1),
                             event_addresses=event_addresses)
        violations: list[str] = []
        bug_found = False
        sim_seconds = 0.0
        check_seconds = 0.0
        loads_squashed = 0
        ticks = 0
        kernel_events = 0
        messages_sent = 0
        iterations_run = 0

        for _ in range(self.generator_config.iterations):
            iterations_run += 1
            # Hand the interpreter lock to any waiting thread once per
            # iteration.  Simulation and checking are pure python and
            # never block, so otherwise a thread sharing the process (a
            # service heartbeat, a sampling profiler) waits out a whole
            # switch interval, which its owner may have set long.
            _yield_to_waiting_threads()
            seed = self._seed_sequence.getrandbits(32)
            started = time.perf_counter()
            iteration = self.system.run_iteration(threads, seed)
            sim_seconds += time.perf_counter() - started
            loads_squashed += iteration.loads_squashed
            ticks += iteration.ticks
            kernel_events += iteration.kernel_events
            messages_sent += iteration.messages_sent
            if iteration.protocol_error is not None:
                violations.append(f"protocol error: {iteration.protocol_error}")
                bug_found = True
                break
            if iteration.deadlock:
                violations.append("deadlock: simulation did not quiesce")
                bug_found = True
                break
            if self.trace_sink is not None:
                self.trace_sink(threads, iteration.trace)
            started = time.perf_counter()
            check = self.checker.check_trace(program, iteration.trace,
                                             cache=self.verdict_cache)
            check_seconds += time.perf_counter() - started
            if not check.passed:
                violations.extend(str(violation) for violation in check.violations)
                bug_found = True
                break
            if check.execution is not None:
                stats.add_iteration(check.execution.conflict_edges())

        report = self.fitness.evaluate(self.coverage.run_transitions(),
                                       ndt=stats.ndt(), rare=rare_before_run)
        return TestRunResult(chromosome=chromosome, stats=stats, fitness=report,
                             bug_found=bug_found, violations=violations,
                             iterations_run=iterations_run,
                             sim_seconds=sim_seconds, check_seconds=check_seconds,
                             loads_squashed=loads_squashed, ticks=ticks,
                             kernel_events=kernel_events,
                             messages_sent=messages_sent)
