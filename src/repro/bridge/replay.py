"""The replay campaign: shard an ingested corpus through the scheduler.

:class:`ReplayCampaign` is the campaign abstraction's second backend.
Where a generator campaign *produces* executions (generate + simulate +
check), a replay campaign *consumes* them: each evaluation ingests one
trace file and checks it against the memory model.  Because it exposes
the same ``run_chunk``/checkpoint/restore surface as
:class:`repro.core.campaign.Campaign`, every piece of the existing
orchestration — the chunked work-stealing scheduler, checkpoint/resume,
sweep-wide verdict memoization, the multiprocessing pool and the
verification service (``service submit --replay-corpus``) — drives replay
shards unchanged.

Unlike generator campaigns, a replay shard never stops at the first
failure: external corpora are audited exhaustively, so every trace gets
a verdict and the per-source counters in :class:`ReplayShardStats` are
complete.  A file that cannot even be parsed (truncated, garbled,
binary junk) is isolated as one ``corrupt`` verdict — per-item
isolation; the sweep never dies on a bad file.

Verdicts per trace:

* ``pass`` — a candidate execution was built and satisfied the model;
* ``fail`` — the execution violates the model (coherence, atomicity or
  global happens-before);
* ``corrupt`` — the file was unreadable/malformed, or the observations
  are internally inconsistent (a value no write produced, a branching
  coherence order).  ``corrupt`` counts as failing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bridge.ingest import load_trace, scan_corpus
from repro.consistency.checker import Checker
from repro.consistency.memo import VerdictCache
from repro.consistency.models import MemoryModel, TotalStoreOrder
from repro.core.campaign import CampaignResult, GeneratorKind
from repro.sim.coverage import CoverageCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.parallel import SweepConfig

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_CORRUPT = "corrupt"

#: Source label used when a file is too broken to declare a source.
UNREADABLE_SOURCE = "(unreadable)"


def _source_counters() -> dict[str, int]:
    return {"traces": 0, "passed": 0, "failed": 0, "corrupt": 0}


@dataclass(frozen=True)
class ReplayShardStats:
    """Per-shard verdict bookkeeping, checkpointed between traces.

    ``sources`` aggregates verdicts per declared trace source (the
    header's ``source`` field), ``verdicts`` records one
    ``(file name, verdict)`` pair per trace in corpus order — the raw
    material for golden-verdict assertions and
    ``SweepReport.replay_verdicts()``.

    Frozen wire type: :meth:`record` returns a *new* instance with
    fresh containers rather than mutating in place, so a stats value
    embedded in a checkpoint or outcome frame can never be aliased by
    later recording.  A campaign records into a :class:`_ShardTally`
    instead, which does the same fold in place.
    """

    traces: int = 0
    passed: int = 0
    failed: int = 0
    corrupt: int = 0
    sources: dict[str, dict[str, int]] = field(default_factory=dict)
    verdicts: list[tuple[str, str]] = field(default_factory=list)
    first_failure: int | None = None
    detail: list[str] = field(default_factory=list)

    def record(self, name: str, source: str, verdict: str,
               violations: list[str]) -> "ReplayShardStats":
        tally = _ShardTally(self)
        tally.record(name, source, verdict, violations)
        return tally.stats()


class _ShardTally:
    """A campaign's running :class:`ReplayShardStats`, folded in place.

    Recording a trace is O(1): folding the frozen stats instead copies
    every earlier verdict and source counter per trace, which is
    quadratic in the shard.  The tally owns its containers, and
    :meth:`stats` hands out a value with fresh ones, so no stats that
    leave a campaign can be changed by later traces.
    """

    __slots__ = ("traces", "passed", "failed", "corrupt", "sources",
                 "verdicts", "first_failure", "detail")

    def __init__(self, stats: ReplayShardStats) -> None:
        self.traces = stats.traces
        self.passed = stats.passed
        self.failed = stats.failed
        self.corrupt = stats.corrupt
        self.sources = {source: dict(counters)
                        for source, counters in stats.sources.items()}
        self.verdicts = list(stats.verdicts)
        self.first_failure = stats.first_failure
        self.detail = list(stats.detail)

    def record(self, name: str, source: str, verdict: str,
               violations: list[str]) -> None:
        counters = self.sources.get(source)
        if counters is None:
            counters = self.sources[source] = _source_counters()
        counters["traces"] += 1
        if verdict == VERDICT_PASS:
            self.passed += 1
            counters["passed"] += 1
        else:
            self.failed += 1
            counters["failed"] += 1
            if verdict == VERDICT_CORRUPT:
                self.corrupt += 1
                counters["corrupt"] += 1
            if self.first_failure is None:
                self.first_failure = self.traces
                self.detail = [f"failing trace: {name}", *violations]
        self.verdicts.append((name, verdict))
        self.traces += 1

    def stats(self) -> ReplayShardStats:
        """The tally as a stats value with containers of its own."""
        return ReplayShardStats(
            traces=self.traces, passed=self.passed, failed=self.failed,
            corrupt=self.corrupt,
            sources={source: dict(counters)
                     for source, counters in self.sources.items()},
            verdicts=list(self.verdicts),
            first_failure=self.first_failure,
            detail=list(self.detail))


@dataclass(frozen=True)
class ReplayCheckpoint:
    """Picklable mid-shard state of a :class:`ReplayCampaign`.

    Shaped like :class:`repro.core.campaign.CampaignCheckpoint` where
    the scheduler cares (``kind``/``seed`` identify the shard,
    ``evaluations`` is the cumulative count the chunk telemetry deltas
    against), so the chunk machinery handles both interchangeably.
    """

    kind: GeneratorKind
    seed: int
    evaluations: int
    stats: ReplayShardStats
    elapsed_seconds: float = 0.0
    check_seconds: float = 0.0


@dataclass(frozen=True)
class ReplayCampaignResult(CampaignResult):
    """A :class:`CampaignResult` carrying the replay verdict counters.

    Duck-typed extension point: ``SweepReport`` discovers replay shards
    by the presence of this ``stats`` field, so the harness never
    imports the bridge.
    """

    stats: ReplayShardStats | None = None


class ReplayCampaign:
    """Checks a fixed list of trace files; one evaluation per trace.

    Presents the resumable-campaign surface the chunk scheduler
    expects: ``run_chunk(max_evaluations, time_limit_seconds,
    checkpoint=, pause_after=)`` returning ``(result, None)`` on
    completion or ``(None, checkpoint)`` on pause.  Re-ingesting a
    trace is deterministic, so chunked, resumed and distributed replays
    are bit-identical to a serial pass — the same contract generator
    campaigns honour.
    """

    def __init__(self, trace_paths: tuple[str, ...] | list[str],
                 seed: int = 0,
                 model: MemoryModel | None = None,
                 verdict_cache: VerdictCache | None = None) -> None:
        if not trace_paths:
            raise ValueError("a replay campaign needs at least one "
                             "trace path")
        self.kind = GeneratorKind.REPLAY
        self.trace_paths = tuple(str(path) for path in trace_paths)
        self.seed = seed
        self.model = model or TotalStoreOrder()
        self.checker = Checker(self.model)
        self.verdict_cache = verdict_cache
        # Replayed traces carry no protocol transitions; the collector
        # exists so the sweep's coverage fold-back works uniformly.
        self.coverage = CoverageCollector()
        self._tally = _ShardTally(ReplayShardStats())
        self._evaluations = 0
        self._elapsed_seconds = 0.0
        self._check_seconds = 0.0
        self._finished = False

    # -- campaign surface ----------------------------------------------

    def run(self, max_evaluations: int,
            time_limit_seconds: float | None = None
            ) -> ReplayCampaignResult:
        result, _ = self.run_chunk(max_evaluations, time_limit_seconds)
        return result

    def run_chunk(self, max_evaluations: int,
                  time_limit_seconds: float | None = None,
                  checkpoint: ReplayCheckpoint | None = None,
                  pause_after: int | None = None
                  ) -> tuple[ReplayCampaignResult | None,
                             ReplayCheckpoint | None]:
        if checkpoint is not None:
            self.restore(checkpoint)
        elif self._finished:
            raise RuntimeError(
                "this replay campaign already ran to completion; "
                "construct a new one (or resume from a checkpoint)")
        budget = min(max_evaluations, len(self.trace_paths))
        started = time.perf_counter()
        chunk_evaluations = 0
        while True:
            elapsed = self._elapsed_seconds + time.perf_counter() - started
            if self._evaluations >= budget or (
                    time_limit_seconds is not None
                    and elapsed > time_limit_seconds):
                self._finished = True
                return self._final_result(elapsed), None
            if pause_after is not None and chunk_evaluations >= pause_after:
                self._elapsed_seconds = elapsed
                return None, self.checkpoint()
            self._check_one(self._evaluations)
            self._evaluations += 1
            chunk_evaluations += 1

    # -- checkpoint/resume ---------------------------------------------

    def checkpoint(self) -> ReplayCheckpoint:
        return ReplayCheckpoint(kind=self.kind, seed=self.seed,
                                evaluations=self._evaluations,
                                stats=self._tally.stats(),
                                elapsed_seconds=self._elapsed_seconds,
                                check_seconds=self._check_seconds)

    def restore(self, checkpoint: ReplayCheckpoint) -> None:
        if checkpoint.kind is not self.kind or checkpoint.seed != self.seed:
            raise ValueError(
                f"checkpoint belongs to {checkpoint.kind.value} (seed "
                f"{checkpoint.seed}), not {self.kind.value} (seed "
                f"{self.seed})")
        if checkpoint.evaluations > len(self.trace_paths):
            raise ValueError(
                f"checkpoint is {checkpoint.evaluations} traces in, but "
                f"this shard only has {len(self.trace_paths)}")
        self._finished = False
        self._evaluations = checkpoint.evaluations
        self._tally = _ShardTally(checkpoint.stats)
        self._elapsed_seconds = checkpoint.elapsed_seconds
        self._check_seconds = checkpoint.check_seconds

    # -- one evaluation ------------------------------------------------

    def _check_one(self, index: int) -> None:
        path = self.trace_paths[index]
        name = os.path.basename(path)
        started = time.perf_counter()
        try:
            document = load_trace(path)
        except (ValueError, OSError) as error:
            # Per-item isolation: an unreadable or malformed file is
            # one corrupt verdict, never a dead sweep.
            self._tally.record(
                name, UNREADABLE_SOURCE, VERDICT_CORRUPT,
                [f"corruption: {type(error).__name__}: {error}"])
        else:
            result = self.checker.check_trace(document.program,
                                              document.trace,
                                              cache=self.verdict_cache)
            if result.passed:
                verdict = VERDICT_PASS
            elif any(violation.kind == "corruption"
                     for violation in result.violations):
                verdict = VERDICT_CORRUPT
            else:
                verdict = VERDICT_FAIL
            self._tally.record(
                name, document.source, verdict,
                list(result.violations_summary()))
        self._check_seconds += time.perf_counter() - started

    # -- result assembly -----------------------------------------------

    def _final_result(self, elapsed: float) -> ReplayCampaignResult:
        stats = self._tally.stats()
        found = stats.failed > 0
        return ReplayCampaignResult(
            kind=self.kind, found=found,
            evaluations=self._evaluations,
            evaluations_to_find=(stats.first_failure + 1
                                 if stats.first_failure is not None
                                 else None),
            wall_seconds=elapsed, detail=list(stats.detail),
            total_coverage=0.0, check_seconds=self._check_seconds,
            stats=stats)


# ----------------------------------------------------------------------
# Corpus sharding and the sweep entry point


def replay_specs(corpus: "str | list[str]",
                 shard_traces: int = 25,
                 base_seed: int = 1,
                 time_limit_seconds: float | None = None,
                 generator_config=None, system_config=None):
    """Shard a corpus into replay :class:`CampaignSpec` units.

    *corpus* is a directory (scanned via
    :func:`repro.bridge.ingest.scan_corpus`) or an explicit path list.
    Traces are grouped contiguously in canonical (sorted) order,
    ``shard_traces`` per shard, so the shard matrix — like a generator
    campaign matrix — is a pure function of its inputs and identical
    for any worker count or service.  The placeholder
    generator/system configs exist only because ``CampaignSpec``
    requires them (reporting reads memory size/protocol off them);
    replay never simulates.
    """
    from repro.core.config import GeneratorConfig
    from repro.harness.parallel import CampaignSpec, derive_shard_seed
    from repro.sim.config import SystemConfig

    paths = (scan_corpus(str(corpus))
             if isinstance(corpus, (str, os.PathLike))
             else [str(path) for path in corpus])
    if not paths:
        raise ValueError("replay corpus contains no trace files")
    if shard_traces < 1:
        raise ValueError("shard_traces must be at least 1")
    generator_config = generator_config or GeneratorConfig.quick()
    system_config = system_config or SystemConfig()
    specs = []
    for index, start in enumerate(range(0, len(paths), shard_traces)):
        group = tuple(paths[start:start + shard_traces])
        specs.append(CampaignSpec(
            kind=GeneratorKind.REPLAY,
            generator_config=generator_config,
            system_config=system_config,
            fault=None,
            seed=derive_shard_seed(base_seed, index),
            max_evaluations=len(group),
            time_limit_seconds=time_limit_seconds,
            trace_paths=group,
            label=f"replay[{index}]"))
    return specs


def run_replay_sweep(corpus: "str | list[str]",
                     shard_traces: int = 25,
                     base_seed: int = 1,
                     time_limit_seconds: float | None = None,
                     workers: int = 1,
                     config: "SweepConfig | None" = None,
                     on_result=None,
                     progress: bool = False):
    """Replay-check a corpus through the parallel orchestrator.

    The replay twin of
    :func:`repro.harness.scenarios.run_scenario_sweep`: shards the
    corpus (``shard_traces`` files per shard) and runs the matrix with
    ``workers`` and ``config`` (see
    :class:`~repro.harness.parallel.SweepConfig`).  Every orchestration
    feature applies — a memoized sweep checks duplicated traces once,
    a chunked one makes shards resumable mid-corpus.  Returns the
    :class:`~repro.harness.parallel.SweepReport`, whose
    ``corrupt_traces`` / ``replay_sources()`` / ``replay_verdicts()``
    views aggregate the per-trace verdicts.
    """
    from repro.harness.parallel import run_campaigns

    specs = replay_specs(corpus, shard_traces=shard_traces,
                         base_seed=base_seed,
                         time_limit_seconds=time_limit_seconds)
    return run_campaigns(specs, workers=workers, config=config,
                         on_result=on_result, progress=progress)


# Admit the replay wire types to the wire codec.  The harness
# codec lazy-imports this module on first sight of one of these names
# (``repro.harness.codec._LAZY_MODULES``); the import-time calls below
# are what actually fill its registry.
from repro.harness.codec import register as _codec_register

for _cls in (ReplayShardStats, ReplayCheckpoint, ReplayCampaignResult):
    _codec_register(_cls)
del _cls, _codec_register
