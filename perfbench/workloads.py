"""The benchmark's three workloads: seeded inputs, one round, checks.

Every workload is single-process and closed-loop: a round is one whole
sweep call, and the next round starts when it returns.  A *cycle* is the
fixed sequence of rounds that covers all of a workload's inputs once;
the runner times whole cycles only.  The inputs are a pure function of
the ``--seed`` argument; the program sees only the generated specs and
trace files.  Each round returns one *view* per operation (a shard, or
one trace verdict) so the runner can compare rounds with their reference
bit for bit, which is the repo's determinism contract.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace

from repro.bridge.export import CorpusExporter
from repro.bridge.ingest import scan_corpus
from repro.bridge.replay import run_replay_sweep
from repro.core.campaign import Campaign, GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.parallel import SweepConfig, campaign_matrix, run_campaigns
from repro.harness.service import run_service_sweep
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault

#: The production GP configuration of the benchmark (ROADMAP baseline).
GP_CONFIG = dict(test_size=32, iterations=2, population_size=6)

#: Table-4 fault cells of the service workload; ``None`` is the correct
#: system.  TSOCC_COMPARE switches its cell to the TSO-CC protocol.
SERVICE_FAULTS = (Fault.MESI_LQ_SM_INV, Fault.MESI_PUTX_RACE,
                  Fault.LQ_NO_TSO, Fault.SQ_NO_FIFO, Fault.TSOCC_COMPARE,
                  None)


@dataclass
class Round:
    """What one round did: test-runs, per-operation views, own failures."""

    runs: int
    views: list
    bad: set = field(default_factory=set)


def shard_view(shard) -> tuple:
    """Every deterministic field of one shard result (no timings)."""
    result = shard.result
    return (shard.spec.seed, shard.spec.fault, result.found,
            result.evaluations, result.evaluations_to_find,
            tuple(result.detail), result.total_coverage,
            tuple(result.ndt_history), result.mean_ndt_final)


def _base_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(f"perfbench:{seed}")
    return [rng.randrange(1, 1 << 31) for _ in range(count)]


class GpSweep:
    """Serial ``run_campaigns`` of McVerSi-ALL on correct MESI and TSO-CC."""

    name = "gp-sweep"
    cycle = 1
    shards_per_protocol = 12
    evaluations = 20

    def __init__(self, seed: int, workdir: str) -> None:
        config = GeneratorConfig.quick(**GP_CONFIG)
        mesi_seed, tso_seed = _base_seeds(seed, 2)
        self.specs = (
            campaign_matrix([GeneratorKind.MCVERSI_ALL], [None], config,
                            SystemConfig(), self.evaluations,
                            seeds_per_cell=self.shards_per_protocol,
                            base_seed=mesi_seed)
            + campaign_matrix([GeneratorKind.MCVERSI_ALL], [None], config,
                              SystemConfig().with_protocol("TSO_CC"),
                              self.evaluations,
                              seeds_per_cell=self.shards_per_protocol,
                              base_seed=tso_seed))
        self.config = SweepConfig(verdict_memo=True)

    def warm_up(self) -> None:
        # One short shard per protocol: past the population seeding, so
        # crossover, both protocols, the checker and the memo all run.
        warm = [self.specs[0], self.specs[self.shards_per_protocol]]
        run_campaigns([_with_budget(spec, 8) for spec in warm], workers=1,
                      config=self.config)

    def round(self, position: int) -> Round:
        report = run_campaigns(self.specs, workers=1, config=self.config)
        views = [shard_view(shard) for shard in report.shards]
        # A bug reported on a correct system is a wrong answer.
        bad = {index for index, shard in enumerate(report.shards)
               if shard.result.found}
        runs = sum(shard.result.evaluations for shard in report.shards)
        return Round(runs=runs, views=views, bad=bad)

    def reference(self, first_cycle: list[Round]) -> list[list]:
        return [first_cycle[0].views]


class Replay:
    """``run_replay_sweep`` over a simulated corpus plus the fixtures."""

    name = "replay"
    cycle = 1
    corpus_evaluations = 60

    def __init__(self, seed: int, workdir: str, fixtures: str) -> None:
        (campaign_seed,) = _base_seeds(seed, 1)
        exporter = CorpusExporter(os.path.join(workdir, "corpus"))
        campaign = Campaign(GeneratorKind.MCVERSI_RAND,
                            GeneratorConfig.quick(**GP_CONFIG),
                            SystemConfig(), seed=campaign_seed,
                            trace_sink=exporter)
        campaign.run(self.corpus_evaluations)
        with open(os.path.join(fixtures, "golden_verdicts.json"),
                  encoding="utf-8") as handle:
            golden = json.load(handle)
        fixture_paths = scan_corpus(fixtures)
        if sorted(os.path.basename(path) for path in fixture_paths) \
                != sorted(golden):
            raise RuntimeError("bridge fixtures and golden verdicts differ")
        self.corpus = list(exporter.paths) + fixture_paths
        self.expected = {os.path.basename(path): "pass"
                         for path in exporter.paths}
        self.expected.update(golden)
        if len(self.expected) != len(self.corpus):
            raise RuntimeError("corpus file names are not unique")

    def warm_up(self) -> None:
        run_replay_sweep(self.corpus)

    def round(self, position: int) -> Round:
        verdicts = run_replay_sweep(self.corpus).replay_verdicts()
        views = [(os.path.basename(path),
                  verdicts.get(os.path.basename(path)))
                 for path in self.corpus]
        bad = {index for index, (name, verdict) in enumerate(views)
               if verdict != self.expected[name]}
        return Round(runs=len(views), views=views, bad=bad)

    def reference(self, first_cycle: list[Round]) -> list[list]:
        return [first_cycle[0].views]


class Service:
    """``run_service_sweep`` (two in-process workers) over fault cells.

    One round is one ephemeral service sweep over the six cells; a cycle
    runs four such matrices with different seeds.  Short rounds give
    the runner many places to sample the host's speed, and whole cycles
    keep the mix of inputs the same in every run.
    """

    name = "service"
    cycle = 4
    evaluations = 20
    chunk_evaluations = 5

    def __init__(self, seed: int, workdir: str) -> None:
        # A 2 KiB test memory makes the injected bugs surface within the
        # small budget on many seeds.
        config = GeneratorConfig.quick(memory_kib=2, **GP_CONFIG)
        self.matrices = [
            campaign_matrix([GeneratorKind.MCVERSI_ALL], list(SERVICE_FAULTS),
                            config, SystemConfig(), self.evaluations,
                            base_seed=base_seed)
            for base_seed in _base_seeds(seed, self.cycle)]
        self.config = SweepConfig(chunk_evaluations=self.chunk_evaluations,
                                  verdict_memo=True)
        self.workdir = workdir
        self._stores = 0

    def _sweep(self, specs):
        # A fresh durable store per sweep, inside the checkout.
        self._stores += 1
        path = os.path.join(self.workdir, f"service-{self._stores}.sqlite")
        return run_service_sweep(specs, self.config, workers=2,
                                 store_path=path)

    def warm_up(self) -> None:
        self._sweep([_with_budget(spec, 4) for spec in self.matrices[0][-2:]])

    def round(self, position: int) -> Round:
        report = self._sweep(self.matrices[position])
        views = [shard_view(shard) for shard in report.shards]
        runs = sum(shard.result.evaluations for shard in report.shards)
        return Round(runs=runs, views=views)

    def reference(self, first_cycle: list[Round]) -> list[list]:
        # The determinism contract: the service must equal a serial
        # sweep of the same matrix and config.
        return [[shard_view(shard) for shard in
                 run_campaigns(specs, workers=1, config=self.config).shards]
                for specs in self.matrices]


def _with_budget(spec, evaluations: int):
    return replace(spec, max_evaluations=evaluations)


def make(name: str, seed: int, workdir: str, fixtures: str):
    if name == GpSweep.name:
        return GpSweep(seed, workdir)
    if name == Replay.name:
        return Replay(seed, workdir, fixtures)
    if name == Service.name:
        return Service(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
