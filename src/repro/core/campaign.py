"""Bug-finding campaigns: McVerSi-ALL, McVerSi-Std.XO, McVerSi-RAND, litmus.

A campaign runs one test generator against one (possibly fault-injected)
system until a bug is found or the evaluation/time budget is exhausted,
mirroring the generator/bug pairs of paper Table 4.  GP campaigns maintain a
steady-state population (tournament selection, delete-oldest replacement);
the pseudo-random campaign evaluates fresh random tests; the litmus campaign
cycles through the diy corpus.

Campaigns are *resumable*: :meth:`Campaign.run_chunk` executes a bounded
number of evaluations and returns a picklable :class:`CampaignCheckpoint`
(engine RNG + coverage + fitness counters, campaign RNG, GP population)
from which a fresh :class:`Campaign` — possibly in another process — can
continue the run bit-for-bit identically to an uninterrupted one.  This is
what lets the work-stealing scheduler of :mod:`repro.harness.parallel`
split long campaigns into chunks and reschedule them on any worker without
breaking the ``workers=1`` ≡ ``workers=N`` determinism guarantee.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

from repro.consistency.memo import VerdictCache
from repro.consistency.models import MemoryModel, TotalStoreOrder
from repro.core.config import GeneratorConfig
from repro.core.crossover import selective_crossover_mutate, single_point_crossover
from repro.core.engine import EngineCheckpoint, TestRunResult, VerificationEngine
from repro.core.fitness import AdaptiveCoverageFitness, NdtAugmentedFitness
from repro.core.generator import RandomTestGenerator
from repro.core.population import Individual, SteadyStateGA
from repro.core.program import Chromosome
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.faults import FaultSet


class GeneratorKind(Enum):
    """The test generation strategies compared in the evaluation."""

    MCVERSI_ALL = "McVerSi-ALL"
    MCVERSI_STD_XO = "McVerSi-Std.XO"
    MCVERSI_RAND = "McVerSi-RAND"
    DIY_LITMUS = "diy-litmus"
    DIRECTED = "directed-scenario"
    #: Second campaign backend: instead of "generate + simulate", check
    #: an ingested corpus of external traces (see :mod:`repro.bridge`).
    REPLAY = "trace-replay"

    @property
    def is_genetic(self) -> bool:
        return self in (GeneratorKind.MCVERSI_ALL, GeneratorKind.MCVERSI_STD_XO)

    @property
    def is_stateless(self) -> bool:
        """Stateless generators do not improve their tests over time (§6.1)."""
        return not self.is_genetic


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one generator/bug campaign (one sample of Table 4).

    Frozen: results cross the worker/coordinator wire and participate
    in fold-order-independent reductions; the list fields (``detail``,
    ``ndt_history``) are filled at construction and never rebound.
    """

    kind: GeneratorKind
    found: bool
    evaluations: int
    evaluations_to_find: int | None
    wall_seconds: float
    detail: list[str] = field(default_factory=list)
    total_coverage: float = 0.0
    ndt_history: list[float] = field(default_factory=list)
    mean_ndt_final: float = 0.0
    sim_seconds: float = 0.0
    check_seconds: float = 0.0

    #: Sentinel returned by :attr:`found_within` when the bug was never found;
    #: larger than any realistic evaluation budget.
    NEVER_FOUND: ClassVar[int] = 1 << 30

    @property
    def found_within(self) -> int:
        """Evaluations needed, or a sentinel larger than any budget."""
        if self.evaluations_to_find is None:
            return self.NEVER_FOUND
        return self.evaluations_to_find


@dataclass
class CampaignCheckpoint:
    """Picklable mid-campaign state, taken between two evaluations.

    Everything a campaign accumulates across evaluations lives here: the
    engine checkpoint (per-run seed sequence, cumulative coverage, adaptive
    fitness counters), the campaign RNG state (shared by the generator, the
    GA's tournament selection and the crossover operators), the bookkeeping
    counters, and — for GP campaigns — the steady-state population itself.
    ``kind`` and ``seed`` identify the campaign the checkpoint belongs to so
    a scheduler cannot accidentally resume it on the wrong shard.

    Checkpoint size grows with campaign progress (``ndt_history`` is one
    float per evaluation; the population is bounded by its capacity), so
    very long campaigns should pause on proportionally larger
    ``chunk_evaluations`` to keep per-chunk pickling/IPC amortised.  The
    harness serializes a paused checkpoint exactly once, on the worker
    that paused it: that single ``pickle.dumps`` both becomes the
    transport payload (:class:`repro.harness.parallel.ChunkPayload`) and
    yields the serialization seconds/bytes reported on each
    :class:`repro.harness.parallel.ChunkTelemetry` record.
    """

    kind: GeneratorKind
    seed: int
    evaluations: int
    engine: EngineCheckpoint
    rng_state: object
    elapsed_seconds: float = 0.0
    sim_seconds: float = 0.0
    check_seconds: float = 0.0
    ndt_history: list[float] = field(default_factory=list)
    population_members: list[Individual] | None = None
    population_births: int = 0


class Campaign:
    """Runs one generator strategy against one system configuration."""

    def __init__(self, kind: GeneratorKind, generator_config: GeneratorConfig,
                 system_config: SystemConfig,
                 faults: FaultSet | None = None,
                 model: MemoryModel | None = None,
                 seed: int = 0,
                 chromosome: Chromosome | None = None,
                 verdict_cache: "VerdictCache | None" = None,
                 trace_sink=None) -> None:
        self.kind = kind
        self.chromosome = chromosome
        self.generator_config = generator_config
        self.system_config = system_config
        self.faults = faults or FaultSet.none()
        self.model = model or TotalStoreOrder()
        self.seed = seed
        self.coverage = CoverageCollector()
        fitness_cls = (NdtAugmentedFitness
                       if kind is GeneratorKind.MCVERSI_STD_XO
                       else AdaptiveCoverageFitness)
        fitness = fitness_cls(
            self.coverage,
            initial_cutoff=generator_config.coverage_initial_cutoff,
            low_threshold=generator_config.coverage_low_threshold,
            patience=generator_config.coverage_patience)
        self.engine = VerificationEngine(
            generator_config, system_config, faults=self.faults,
            model=self.model, coverage=self.coverage, fitness=fitness,
            seed=seed, verdict_cache=verdict_cache, trace_sink=trace_sink)
        self.rng = random.Random(seed ^ 0xC0FFEE)
        self.generator = RandomTestGenerator(generator_config, self.rng)
        # Cross-evaluation state, checkpointed by :meth:`checkpoint`.
        self._evaluations = 0
        self._elapsed_seconds = 0.0
        self._sim_seconds = 0.0
        self._check_seconds = 0.0
        self._ndt_history: list[float] = []
        self._population: SteadyStateGA | None = None
        self._litmus_corpus = None
        self._finished = False

    # ------------------------------------------------------------------

    def run(self, max_evaluations: int,
            time_limit_seconds: float | None = None) -> CampaignResult:
        result, _ = self.run_chunk(max_evaluations, time_limit_seconds)
        return result

    def run_chunk(self, max_evaluations: int,
                  time_limit_seconds: float | None = None,
                  checkpoint: CampaignCheckpoint | None = None,
                  pause_after: int | None = None
                  ) -> tuple[CampaignResult | None, CampaignCheckpoint | None]:
        """Run up to ``pause_after`` evaluations of the campaign's budget.

        Returns ``(result, None)`` when the campaign finished (bug found or
        budget exhausted) and ``(None, checkpoint)`` when it paused with
        budget remaining.  ``checkpoint`` resumes a previously paused run —
        on this instance or on a freshly constructed :class:`Campaign` built
        from the same spec in any process.  ``pause_after=None`` runs to
        completion; chunked and uninterrupted runs produce bit-identical
        results because every piece of cross-evaluation state travels in the
        checkpoint.
        """
        try:
            return self._run_chunk(max_evaluations, time_limit_seconds,
                                   checkpoint, pause_after)
        finally:
            # The simulated machine is not campaign state: free it with
            # the chunk, and let the next chunk build its own.
            self.engine.close()

    def _run_chunk(self, max_evaluations: int,
                   time_limit_seconds: float | None,
                   checkpoint: CampaignCheckpoint | None,
                   pause_after: int | None
                   ) -> tuple[CampaignResult | None, CampaignCheckpoint | None]:
        if self.kind is GeneratorKind.DIRECTED and self.chromosome is None:
            raise ValueError(
                "a directed campaign needs the fixed chromosome to "
                "re-run (pass chromosome= to Campaign)")
        if checkpoint is not None:
            self.restore(checkpoint)
        elif self._finished:
            # Campaigns consume their budget exactly once: re-running a
            # finished instance would silently return a stale, zero-work
            # result (the counters already sit at the budget).
            raise RuntimeError(
                "this campaign already ran to completion; construct a new "
                "Campaign (or resume another one from its checkpoint)")
        started = time.perf_counter()
        chunk_evaluations = 0
        while True:
            elapsed = self._elapsed_seconds + time.perf_counter() - started
            if self._evaluations >= max_evaluations or (
                    time_limit_seconds is not None
                    and elapsed > time_limit_seconds):
                self._finished = True
                return self._final_result(found=False, last=None,
                                          elapsed=elapsed), None
            if pause_after is not None and chunk_evaluations >= pause_after:
                self._elapsed_seconds = elapsed
                return None, self.checkpoint()
            chromosome, litmus_name = self._next_test(max_evaluations)
            result = self.engine.run_test(chromosome)
            self._evaluations += 1
            chunk_evaluations += 1
            self._sim_seconds += result.sim_seconds
            self._check_seconds += result.check_seconds
            if self.kind is not GeneratorKind.DIY_LITMUS:
                self._ndt_history.append(result.ndt)
            if self._population is not None:
                self._population.insert(chromosome, result.fitness.fitness,
                                        result.stats,
                                        bug_found=result.bug_found)
            if result.bug_found:
                elapsed = (self._elapsed_seconds
                           + time.perf_counter() - started)
                self._finished = True
                return self._final_result(found=True, last=result,
                                          elapsed=elapsed,
                                          litmus_name=litmus_name), None

    # -- checkpoint/resume ---------------------------------------------

    def checkpoint(self) -> CampaignCheckpoint:
        """Snapshot the campaign between two evaluations (picklable)."""
        population = self._population
        return CampaignCheckpoint(
            kind=self.kind, seed=self.seed,
            evaluations=self._evaluations,
            engine=self.engine.checkpoint(),
            rng_state=self.rng.getstate(),
            elapsed_seconds=self._elapsed_seconds,
            sim_seconds=self._sim_seconds,
            check_seconds=self._check_seconds,
            ndt_history=list(self._ndt_history),
            population_members=(list(population.members)
                                if population is not None else None),
            population_births=(population._births
                               if population is not None else 0))

    def restore(self, checkpoint: CampaignCheckpoint) -> None:
        """Adopt a checkpoint taken from an equivalent campaign."""
        if checkpoint.kind is not self.kind or checkpoint.seed != self.seed:
            raise ValueError(
                f"checkpoint belongs to {checkpoint.kind.value} (seed "
                f"{checkpoint.seed}), not {self.kind.value} (seed {self.seed})")
        self.engine.restore(checkpoint.engine)
        self.rng.setstate(checkpoint.rng_state)
        self._finished = False
        self._evaluations = checkpoint.evaluations
        self._elapsed_seconds = checkpoint.elapsed_seconds
        self._sim_seconds = checkpoint.sim_seconds
        self._check_seconds = checkpoint.check_seconds
        self._ndt_history = list(checkpoint.ndt_history)
        if checkpoint.population_members is None:
            self._population = None
        else:
            population = self._make_population()
            population.members = list(checkpoint.population_members)
            population._births = checkpoint.population_births
            self._population = population

    # -- one evaluation ------------------------------------------------

    def _next_test(self, max_evaluations: int
                   ) -> tuple[Chromosome, str | None]:
        """The chromosome to evaluate next (and its litmus-test name)."""
        if self.kind is GeneratorKind.DIRECTED:
            return self.chromosome, None
        if self.kind is GeneratorKind.MCVERSI_RAND:
            return self.generator.generate(), None
        if self.kind is GeneratorKind.DIY_LITMUS:
            corpus = self._litmus_tests()
            test = corpus[self._evaluations % len(corpus)]
            return test.chromosome, test.name
        return self._next_genetic_test(max_evaluations), None

    def _next_genetic_test(self, max_evaluations: int) -> Chromosome:
        config = self.generator_config
        if self._population is None:
            self._population = self._make_population()
        # Seed the population with random tests before evolving.
        if self._evaluations < min(config.population_size, max_evaluations):
            return self.generator.generate()
        parent1, parent2 = self._population.select_parents()
        if self.rng.random() < config.crossover_probability:
            if self.kind is GeneratorKind.MCVERSI_ALL:
                return selective_crossover_mutate(
                    parent1.chromosome, parent2.chromosome,
                    parent1.stats, parent2.stats, config,
                    self.generator, self.rng)
            return single_point_crossover(
                parent1.chromosome, parent2.chromosome, config,
                self.generator, self.rng)
        return self.generator.generate()

    def _make_population(self) -> SteadyStateGA:
        config = self.generator_config
        return SteadyStateGA(capacity=config.population_size,
                             tournament_size=config.tournament_size,
                             rng=self.rng)

    def _litmus_tests(self):
        if self._litmus_corpus is None:
            from repro.litmus.runner import LitmusRunner

            self._litmus_corpus = LitmusRunner(self.engine).corpus
        return self._litmus_corpus

    # -- result assembly -----------------------------------------------

    def _final_result(self, found: bool, last: TestRunResult | None,
                      elapsed: float,
                      litmus_name: str | None = None) -> CampaignResult:
        detail: list[str] = []
        if found and last is not None:
            detail = list(last.violations)
            if litmus_name is not None:
                detail.insert(0, f"failing litmus test: {litmus_name}")
        if self.kind is GeneratorKind.DIY_LITMUS:
            mean_ndt = 0.0
        elif self._population is not None:
            mean_ndt = self._population.mean_ndt()
        elif found and last is not None:
            mean_ndt = last.ndt
        else:
            mean_ndt = self._ndt_history[-1] if self._ndt_history else 0.0
        return CampaignResult(
            kind=self.kind, found=found, evaluations=self._evaluations,
            evaluations_to_find=self._evaluations if found else None,
            wall_seconds=elapsed, detail=detail,
            total_coverage=self.coverage.total_coverage(),
            ndt_history=list(self._ndt_history), mean_ndt_final=mean_ndt,
            sim_seconds=self._sim_seconds, check_seconds=self._check_seconds)
