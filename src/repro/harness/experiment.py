"""Experiment drivers for the paper's evaluation tables.

* :class:`BugCoverageExperiment` reproduces Table 4 (bug found count and
  mean time/evaluations per generator/bug pair) and, via
  :func:`budget_scaling_summary`, Table 5 (bugs found within 1x/5x/10x of
  the budget, exploiting that stateless generators' samples compose).
* :class:`CoverageExperiment` reproduces Table 6 (maximum total transition
  coverage per protocol and generator).

Budgets are expressed in test-run evaluations (and optionally wall-clock
seconds); the paper's 24-hour wall-clock budget on a gem5 host translates to
"a comparable amount of simulated work per generator", which is what the
evaluation count provides deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.parallel import (CampaignSpec, CampaignSummary,
                                    ShardResult, SweepConfig, run_campaigns,
                                    system_for_fault)
from repro.sim.config import SystemConfig, TestMemoryLayout
from repro.sim.faults import Fault


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared settings of one experiment run.

    ``workers`` schedules the experiment's campaign matrix across a
    multiprocessing pool (see :mod:`repro.harness.parallel`) and
    ``sweep`` describes how the sweep runs (see
    :class:`repro.harness.parallel.SweepConfig`).  Per-campaign seeds
    are fixed before scheduling, so any worker count or sweep config
    reproduces the ``workers=1`` results exactly.

    ``service`` routes the matrix through a running *verification
    service* instead of the local pool: set it to the service's
    job-API address (``"host:port"``) and :meth:`run_matrix` submits the
    matrix as a job via :class:`repro.harness.service.ServiceClient`
    (``service_token`` authenticates when the service requires it).
    Per-shard results are bit-identical to a local run; the
    sweep additionally survives service restarts (the durable store).
    """

    generator_config: GeneratorConfig
    system_config: SystemConfig
    samples: int = 3
    max_evaluations: int = 60
    time_limit_seconds: float | None = None
    seed: int = 1
    workers: int = 1
    sweep: SweepConfig = SweepConfig()
    service: str | None = None
    service_token: str | None = None

    def with_memory(self, memory_kib: int) -> "ExperimentSettings":
        memory = TestMemoryLayout.kib(memory_kib)
        return replace(self,
                       generator_config=replace(self.generator_config,
                                                memory=memory))

    def run_matrix(self, specs: list[CampaignSpec],
                   on_result: Callable[[ShardResult], None] | None = None,
                   progress: bool = False):
        """Run a shard matrix through the orchestrator with these settings."""
        if self.service is not None:
            from repro.harness.service import ServiceClient
            client = ServiceClient(self.service, token=self.service_token)
            callback = ((lambda index, shard: on_result(shard))
                        if on_result is not None else None)
            return client.run(specs, self.sweep, on_result=callback)
        return run_campaigns(specs, workers=self.workers, config=self.sweep,
                             on_result=on_result, progress=progress)


@dataclass
class BugCoverageCell(CampaignSummary):
    """One cell of Table 4: a generator/bug pair over several samples.

    A :class:`repro.harness.parallel.CampaignSummary` keyed by generator
    kind, test-memory size and fault — the aggregation (found counts,
    evaluations-to-find statistics, cell labels) lives in the summary.
    """


class BugCoverageExperiment:
    """Runs generator x bug campaigns (Table 4 / Table 5 data)."""

    def __init__(self, settings: ExperimentSettings,
                 faults: list[Fault] | None = None,
                 configurations: list[tuple[GeneratorKind, int]] | None = None
                 ) -> None:
        self.settings = settings
        self.faults = faults if faults is not None else list(Fault)
        self.configurations = configurations if configurations is not None else [
            (GeneratorKind.MCVERSI_ALL, 1), (GeneratorKind.MCVERSI_ALL, 8),
            (GeneratorKind.MCVERSI_STD_XO, 1), (GeneratorKind.MCVERSI_STD_XO, 8),
            (GeneratorKind.MCVERSI_RAND, 1), (GeneratorKind.MCVERSI_RAND, 8),
            (GeneratorKind.DIY_LITMUS, 1),
        ]
        self.cells: list[BugCoverageCell] = []

    def campaign_matrix(self) -> tuple[list[BugCoverageCell], list[CampaignSpec]]:
        """The (generator x bug x sample) shard matrix and its result cells.

        Shard ``i`` of the returned spec list belongs to cell
        ``i // samples``; seeds are a pure function of matrix position, so
        the matrix is identical however it is scheduled.
        """
        cells: list[BugCoverageCell] = []
        specs: list[CampaignSpec] = []
        for kind, memory_kib in self.configurations:
            settings = self.settings.with_memory(memory_kib)
            for fault in self.faults:
                cells.append(BugCoverageCell(kind=kind, memory_kib=memory_kib,
                                             fault=fault))
                system_config = system_for_fault(fault, settings.system_config)
                fault_offset = list(Fault).index(fault)
                for sample in range(settings.samples):
                    specs.append(CampaignSpec(
                        kind=kind,
                        generator_config=settings.generator_config,
                        system_config=system_config,
                        fault=fault,
                        seed=settings.seed + 1000 * sample + 37 * fault_offset,
                        max_evaluations=settings.max_evaluations,
                        time_limit_seconds=settings.time_limit_seconds))
        return cells, specs

    def run(self, on_result: Callable[[ShardResult], None] | None = None,
            progress: bool = False) -> list[BugCoverageCell]:
        """Run the matrix; ``on_result`` streams shard results as they land.

        Cells are always assembled from the matrix-ordered report, so the
        (cell, sample) structure is independent of completion order.
        """
        cells, specs = self.campaign_matrix()
        report = self.settings.run_matrix(specs, on_result=on_result,
                                          progress=progress)
        samples = self.settings.samples
        for index, shard in enumerate(report.shards):
            cells[index // samples].results.append(shard.result)
        self.cells = cells
        return self.cells

    def table_rows(self) -> list[list[str]]:
        """Rows shaped like paper Table 4 (bugs x configurations)."""
        columns = [(kind, kib) for kind, kib in self.configurations]
        rows = []
        for fault in self.faults:
            row = [fault.paper_name]
            for kind, kib in columns:
                cell = self._cell(kind, kib, fault)
                row.append(cell.label() if cell else "-")
            rows.append(row)
        return rows

    def table_headers(self) -> list[str]:
        headers = ["Bug"]
        headers.extend(f"{kind.value} ({kib}KB)" if kind is not GeneratorKind.DIY_LITMUS
                       else kind.value
                       for kind, kib in self.configurations)
        return headers

    def _cell(self, kind: GeneratorKind, memory_kib: int,
              fault: Fault) -> BugCoverageCell | None:
        for cell in self.cells:
            if cell.kind is kind and cell.memory_kib == memory_kib and cell.fault is fault:
                return cell
        return None


def budget_scaling_summary(cells: list[BugCoverageCell],
                           multipliers: tuple[int, ...] = (1, 5, 10)
                           ) -> dict[tuple[GeneratorKind, int], dict[int, float]]:
    """Table 5: fraction of bugs found within 1x/5x/10x of the budget.

    For stateless generators, running S samples of budget B is equivalent to
    one run of budget S*B (paper §6.1), so a bug counts as "found within
    multiplier m" if any of the first m samples found it.  For GP generators
    only the 1x column is meaningful (they keep internal state), matching
    the "N/A" entries of the paper's table.
    """
    summary: dict[tuple[GeneratorKind, int], dict[int, float]] = {}
    by_config: dict[tuple[GeneratorKind, int], list[BugCoverageCell]] = {}
    for cell in cells:
        by_config.setdefault((cell.kind, cell.memory_kib), []).append(cell)
    for config, config_cells in by_config.items():
        kind, _ = config
        summary[config] = {}
        for multiplier in multipliers:
            if kind.is_genetic and multiplier > 1:
                summary[config][multiplier] = float("nan")
                continue
            found = 0
            for cell in config_cells:
                window = cell.results[:multiplier] if kind.is_stateless else cell.results
                if any(result.found for result in window):
                    found += 1
            summary[config][multiplier] = (found / len(config_cells)
                                           if config_cells else 0.0)
    return summary


class CoverageExperiment:
    """Maximum total transition coverage per protocol/generator (Table 6)."""

    def __init__(self, settings: ExperimentSettings,
                 protocols: tuple[str, ...] = ("MESI", "TSO_CC"),
                 configurations: list[tuple[GeneratorKind, int]] | None = None
                 ) -> None:
        self.settings = settings
        self.protocols = protocols
        self.configurations = configurations if configurations is not None else [
            (GeneratorKind.MCVERSI_ALL, 1), (GeneratorKind.MCVERSI_ALL, 8),
            (GeneratorKind.MCVERSI_RAND, 1), (GeneratorKind.MCVERSI_RAND, 8),
            (GeneratorKind.DIY_LITMUS, 1),
        ]
        self.results: dict[tuple[str, GeneratorKind, int], float] = {}

    def campaign_matrix(self) -> tuple[list[tuple[str, GeneratorKind, int]],
                                       list[CampaignSpec]]:
        """The (protocol x generator x sample) shard matrix and its cell keys."""
        keys: list[tuple[str, GeneratorKind, int]] = []
        specs: list[CampaignSpec] = []
        for protocol in self.protocols:
            for kind, memory_kib in self.configurations:
                settings = self.settings.with_memory(memory_kib)
                keys.append((protocol, kind, memory_kib))
                for sample in range(settings.samples):
                    specs.append(CampaignSpec(
                        kind=kind,
                        generator_config=settings.generator_config,
                        system_config=settings.system_config.with_protocol(protocol),
                        fault=None,
                        seed=settings.seed + 7919 * sample,
                        max_evaluations=settings.max_evaluations,
                        time_limit_seconds=settings.time_limit_seconds))
        return keys, specs

    def run(self, on_result: Callable[[ShardResult], None] | None = None,
            progress: bool = False
            ) -> dict[tuple[str, GeneratorKind, int], float]:
        keys, specs = self.campaign_matrix()
        report = self.settings.run_matrix(specs, on_result=on_result,
                                          progress=progress)
        samples = self.settings.samples
        self.results = {}
        for index, shard in enumerate(report.shards):
            key = keys[index // samples]
            self.results[key] = max(self.results.get(key, 0.0),
                                    shard.result.total_coverage)
        return self.results

    def table_rows(self) -> list[list[str]]:
        rows = []
        for protocol in self.protocols:
            row = [protocol]
            for kind, memory_kib in self.configurations:
                coverage = self.results.get((protocol, kind, memory_kib), 0.0)
                row.append(f"{coverage:.1%}")
            rows.append(row)
        return rows

    def table_headers(self) -> list[str]:
        headers = ["Protocol"]
        headers.extend(f"{kind.value} ({kib}KB)" for kind, kib in self.configurations)
        return headers


class ReplayExperiment:
    """Replay-checks an ingested trace corpus under experiment settings.

    The trace-ingestion twin of the campaign experiments: the corpus
    (a directory or an explicit path list) is sharded through
    :func:`repro.bridge.replay.replay_specs` and run with this
    experiment's orchestration settings (workers and sweep config).
    ``run()`` returns the :class:`~repro.harness.parallel.SweepReport`;
    per-source verdict counts land in :attr:`sources` for tabulation.
    """

    def __init__(self, settings: ExperimentSettings, corpus,
                 shard_traces: int = 25) -> None:
        self.settings = settings
        self.corpus = corpus
        self.shard_traces = shard_traces
        self.sources: dict[str, dict[str, int]] = {}

    def run(self, on_result: Callable[[ShardResult], None] | None = None,
            progress: bool = False):
        from repro.bridge.replay import replay_specs

        specs = replay_specs(
            self.corpus, shard_traces=self.shard_traces,
            base_seed=self.settings.seed,
            time_limit_seconds=self.settings.time_limit_seconds,
            generator_config=self.settings.generator_config,
            system_config=self.settings.system_config)
        report = self.settings.run_matrix(specs, on_result=on_result,
                                          progress=progress)
        self.sources = report.replay_sources()
        return report

    def table_headers(self) -> list[str]:
        return ["Source", "Traces", "Passed", "Failed", "Corrupt"]

    def table_rows(self) -> list[list[str]]:
        return [[source, str(counters["traces"]), str(counters["passed"]),
                 str(counters["failed"]), str(counters["corrupt"])]
                for source, counters in sorted(self.sources.items())]
