"""Parallel campaign orchestration (scaling the Table 4 methodology).

The paper's headline claim is *fast* verification: wall-clock time to bug
discovery across many generator/bug pairs.  Campaigns are embarrassingly
parallel — each one owns its RNG, engine, system and coverage collector —
so a matrix of (generator kind x fault x seed) campaigns can be scheduled
across a :mod:`multiprocessing` worker pool.

Scheduling
----------
There is one local scheduler, work-stealing: workers *pull* shards from a
shared task queue as they finish, so a matrix with heterogeneous campaign
lengths (mixed ``max_evaluations``, early bug finds) keeps every worker
busy instead of idling behind the longest shard.  With
``chunk_evaluations=K`` long campaigns are additionally split into
resumable K-evaluation chunks: a paused campaign travels back to the host
as a picklable :class:`repro.core.campaign.CampaignCheckpoint` and is
re-queued, so *any* worker can continue it — the building block for
cross-host sharding, where a remote worker needs exactly such a
self-contained (spec, checkpoint) unit.  A sweep is described by one
:class:`SweepConfig`; ``workers=1`` runs it in-process.

Result streaming
----------------
:func:`iter_campaigns` yields ``(shard_index, ShardResult)`` pairs in
*completion* order as workers finish, and :func:`run_campaigns` accepts an
``on_result`` callback plus ``progress=True`` for a live progress line, so
Table-4-style summaries update incrementally instead of after a full
barrier.  :class:`SweepAccumulator` folds streamed results into partial
:class:`SweepReport` views and the final matrix-ordered report.

Determinism guarantee
---------------------
Every shard is a fully self-contained :class:`CampaignSpec` whose seed is
fixed *before* any worker runs: seeds derive from the shard's position in
the matrix (:func:`derive_shard_seed`), never from the worker that happens
to execute it, and campaign checkpoints capture *all* cross-evaluation
state.  Worker count, service placement and chunk size therefore only
change wall-clock time; ``workers=N`` produces bit-identical per-shard
``found``/``evaluations_to_find`` results to ``workers=1``, and
``workers=1`` runs fully in-process (no pool, no pickling) so
single-process debugging stays trivial.

Coverage is collected per shard and folded back together on the host via
:meth:`repro.sim.coverage.CoverageCollector.merge`, so aggregate coverage
reports see the union of all shards' observations.

Scheduling core
---------------
:class:`ChunkScheduler` is the task source / result sink of one sweep:
it hands out :class:`ChunkTask` units, folds :class:`ChunkOutcome`\\ s
back in (re-queuing paused chunks) and decides when the sweep is
drained.  The work-stealing pool drives it over :mod:`multiprocessing`
queues; the verification service (:mod:`repro.harness.service`) serves
the *same* scheduler to TCP workers as one job, with per-worker leases
and fault-tolerant chunk re-queue, so a sweep shards across hosts
without touching the determinism contract.  A multi-host sweep is a
service job (``serve`` + ``worker --connect`` + ``submit``), and
:func:`repro.harness.service.run_service_sweep` runs one in-process.

Single-serialization checkpoint transport
-----------------------------------------
A paused chunk's resume checkpoint is pickled exactly once, on the
worker that paused it: the worker's ``pickle.dumps`` both measures the
telemetry (``checkpoint_bytes``/``checkpoint_seconds``) *and* becomes
the wire payload, carried as a :class:`ChunkPayload` (opaque
``bytes``) on the :class:`ChunkOutcome`.  The multiprocessing queue and
the TCP framing forward those bytes verbatim — pickling a ``bytes``
field is a length-prefixed copy, not an object-graph traversal — and
the :class:`ChunkScheduler` re-queues continuations *as bytes*, so the
checkpoint object graph is never re-serialized on the host.  It is
deserialized exactly once, by whichever worker resumes the chunk
(:func:`run_shard_chunk` resolves a :class:`ChunkPayload` lazily).

Every executed chunk also reports a :class:`ChunkTelemetry` record (wall
time, evaluations completed, checkpoint-serialization cost) on its
:class:`ChunkOutcome`; the scheduler sums them into the live telemetry
shown by :mod:`repro.harness.reporting`.  Chunk size is fixed per sweep
(``chunk_evaluations``) and only moves the *pause points* of a campaign,
so it never changes a result.  A checkpoint too large for the
service's ``max_frame_bytes`` fails the job with ``FrameTooLargeError``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import time
from collections import deque
from dataclasses import (asdict, dataclass, field,
                         fields as dataclass_fields, replace)
from statistics import mean
from typing import Callable, Iterable, Iterator, Mapping, TextIO

from repro.consistency.memo import (VerdictCache, VerdictCacheDelta,
                                    VerdictCacheState)
from repro.core.campaign import (Campaign, CampaignCheckpoint, CampaignResult,
                                 GeneratorKind)
from repro.core.config import GeneratorConfig
from repro.core.program import Chromosome
from repro.locking import TracedLock, guarded_by, requires_lock
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.faults import Fault, FaultSet

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def derive_shard_seed(base_seed: int, shard_index: int) -> int:
    """Deterministic, well-spread seed for shard ``shard_index``.

    SplitMix64-style mixing: nearby (base_seed, index) pairs map to
    uncorrelated 63-bit seeds, so shards never share RNG streams no matter
    how the matrix is enumerated.  Pure function of its arguments — worker
    assignment cannot influence it.
    """
    z = (base_seed + (shard_index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) >> 1


@dataclass(frozen=True)
class CampaignSpec:
    """One shard of a campaign matrix: everything a worker needs, picklable.

    With ``chromosome=None`` the shard runs an ordinary generator campaign
    (:class:`repro.core.campaign.Campaign`).  With a chromosome set it is a
    *directed* shard: the fixed test program is re-run on freshly perturbed
    systems until the budget is exhausted or a bug is found (this is how the
    directed stress scenarios of :mod:`repro.harness.scenarios` route
    through the orchestrator).

    With ``kind=GeneratorKind.REPLAY`` the shard checks an ingested
    corpus slice instead of simulating: ``trace_paths`` lists the trace
    files and ``max_evaluations`` should equal its length (one
    evaluation per trace).  The generator/system configs are reporting
    placeholders in that mode — replay never simulates.
    """

    kind: GeneratorKind
    generator_config: GeneratorConfig
    system_config: SystemConfig
    fault: Fault | None
    seed: int
    max_evaluations: int
    time_limit_seconds: float | None = None
    chromosome: Chromosome | None = None
    trace_paths: tuple[str, ...] | None = None
    label: str = ""

    def fault_set(self) -> FaultSet:
        return FaultSet.of(self.fault) if self.fault is not None else FaultSet.none()

    def describe(self) -> str:
        bug = self.fault.paper_name if self.fault is not None else "correct"
        name = self.label or self.kind.value
        return f"{name} vs {bug} (seed {self.seed})"


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one shard plus the coverage it observed."""

    spec: CampaignSpec
    result: CampaignResult
    coverage: CoverageCollector


def _campaign_for(spec: CampaignSpec,
                  verdict_cache: VerdictCache | None = None) -> "Campaign":
    if spec.kind is GeneratorKind.REPLAY:
        # Lazy import: the bridge depends on this module for sweeps,
        # so the harness must not import it at module load.
        from repro.bridge.replay import ReplayCampaign
        if not spec.trace_paths:
            raise ValueError(
                "a replay spec needs trace_paths; build specs with "
                "repro.bridge.replay.replay_specs")
        return ReplayCampaign(spec.trace_paths, seed=spec.seed,
                              verdict_cache=verdict_cache)
    return Campaign(kind=spec.kind,
                    generator_config=spec.generator_config,
                    system_config=spec.system_config,
                    faults=spec.fault_set(),
                    seed=spec.seed,
                    chromosome=spec.chromosome,
                    verdict_cache=verdict_cache)


def run_shard(spec: CampaignSpec,
              verdict_cache: VerdictCache | None = None) -> ShardResult:
    """Run one shard to completion in the current process."""
    campaign = _campaign_for(spec, verdict_cache)
    result = campaign.run(spec.max_evaluations, spec.time_limit_seconds)
    return ShardResult(spec=spec, result=result, coverage=campaign.coverage)


def run_shard_chunk(spec: CampaignSpec,
                    checkpoint: "CampaignCheckpoint | ChunkPayload | None" = None,
                    pause_after: int | None = None,
                    verdict_cache: VerdictCache | None = None,
                    ) -> tuple[ShardResult | None, CampaignCheckpoint | None]:
    """Run (a chunk of) one shard in the current process.

    The work-stealing worker entry point: resumes the shard from
    ``checkpoint`` (if any), runs at most ``pause_after`` evaluations, and
    returns either ``(ShardResult, None)`` on completion or
    ``(None, checkpoint)`` if budget remains — the checkpoint is picklable
    and can continue on any worker.  A :class:`ChunkPayload` checkpoint
    (pre-serialized bytes off a transport) is materialized here, at the
    moment of resumption — the single ``loads`` of its life.
    """
    if isinstance(checkpoint, ChunkPayload):
        checkpoint = checkpoint.load()
    campaign = _campaign_for(spec, verdict_cache)
    result, new_checkpoint = campaign.run_chunk(
        spec.max_evaluations, spec.time_limit_seconds,
        checkpoint=checkpoint, pause_after=pause_after)
    if result is None:
        return None, new_checkpoint
    return ShardResult(spec=spec, result=result,
                       coverage=campaign.coverage), None


# ----------------------------------------------------------------------
# Scheduling core (task source / result sink)


@dataclass(frozen=True)
class ChunkPayload:
    """A resume checkpoint, pre-serialized on the worker that paused it.

    ``data`` is ``pickle.dumps(checkpoint)`` taken *once* by
    :func:`execute_chunk_task`; every later hop (multiprocessing queue,
    TCP frame, scheduler re-queue) forwards these bytes verbatim, because
    pickling a ``bytes`` field copies it without traversing the checkpoint
    object graph.  The checkpoint is materialized again only by
    :meth:`load`, on the worker that resumes the chunk — so a paused chunk
    costs one ``dumps`` and one ``loads`` per pause/resume cycle, however
    many transports it crosses in between.
    """

    data: bytes

    @classmethod
    def of(cls, checkpoint: CampaignCheckpoint) -> "ChunkPayload":
        """Serialize ``checkpoint`` (the single ``dumps`` of its life)."""
        return cls(data=pickle.dumps(checkpoint,
                                     protocol=pickle.HIGHEST_PROTOCOL))

    def load(self) -> CampaignCheckpoint:
        """Materialize the checkpoint (on the worker resuming the chunk)."""
        return pickle.loads(self.data)

    @property
    def nbytes(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class ChunkTask:
    """One schedulable unit of work: resume shard ``index`` and run a chunk.

    Fully self-contained and picklable — a :class:`ChunkTask` can travel to
    a worker process over a :mod:`multiprocessing` queue or to a remote
    host over a socket and be executed there without any other context.
    ``checkpoint`` is either a materialized
    :class:`~repro.core.campaign.CampaignCheckpoint` (in-process paths) or
    a :class:`ChunkPayload` of pre-serialized bytes (transport paths);
    :func:`run_shard_chunk` resolves whichever it receives.
    """

    index: int
    spec: CampaignSpec
    checkpoint: CampaignCheckpoint | ChunkPayload | None = None
    pause_after: int | None = None
    #: Sweep-wide verdict-cache shipment (a pickled
    #: :class:`~repro.consistency.memo.VerdictCacheState`), stamped at
    #: dispatch.  Presence is what switches
    #: memoization on worker-side — an empty-but-present state means
    #: "memoize, nothing known yet".  Pre-serialized for the same reason
    #: as :class:`ChunkPayload`: the bytes ride every hop verbatim.
    cache: bytes | None = None


@dataclass(frozen=True)
class ChunkTelemetry:
    """Per-chunk cost measurements, taken on the worker that ran the chunk.

    Attached to every successful :class:`ChunkOutcome` so the scheduling
    side (the in-process pool and the service alike) can see what
    each chunk actually cost: how many evaluations it completed, how long
    they took on the worker's wall clock, and what pausing cost on top
    (serializing the resume checkpoint).  The :class:`ChunkScheduler`
    sums these into the live telemetry shown by
    :mod:`repro.harness.reporting`.
    """

    #: Evaluations completed in this chunk (not cumulative for the shard).
    evaluations: int
    #: Worker-side wall-clock seconds spent running the chunk.
    wall_seconds: float
    #: Pickled size of the resume checkpoint (0 when the shard completed).
    checkpoint_bytes: int = 0
    #: Seconds spent serializing the resume checkpoint (0 on completion).
    checkpoint_seconds: float = 0.0


@dataclass(frozen=True)
class ChunkOutcome:
    """What a worker reports back after executing one :class:`ChunkTask`.

    Exactly one of three shapes: a completed shard (``shard`` set), a
    paused chunk with budget remaining (``payload`` set to the
    pre-serialized checkpoint bytes) or a failure (``error`` set to a
    stringified exception, so the failure crosses process/host
    boundaries without needing the exception to be picklable).
    Successful outcomes additionally carry the chunk's
    :class:`ChunkTelemetry`.
    """

    index: int
    shard: ShardResult | None = None
    error: str | None = None
    telemetry: ChunkTelemetry | None = None
    payload: ChunkPayload | None = None
    #: Verdict-cache entries this chunk discovered plus its hit/miss
    #: counters — the scheduler folds these into the sweep-wide cache.
    cache_delta: VerdictCacheDelta | None = None


def _run_chunk_instrumented(
        task: ChunkTask, verdict_cache: VerdictCache | None = None
) -> tuple[ShardResult | None, "CampaignCheckpoint | None", ChunkTelemetry,
           "VerdictCacheDelta | None"]:
    """Run one chunk and measure what it cost (exceptions propagate).

    The measured evaluation count is the chunk's *delta* (resumed
    checkpoints carry the cumulative count).  The telemetry reports no
    checkpoint cost: only :func:`execute_chunk_task` serializes a
    paused checkpoint, and it adds the cost of doing so.
    """
    resume_from = task.checkpoint
    if isinstance(resume_from, ChunkPayload):
        resume_from = resume_from.load()
    already_done = resume_from.evaluations if resume_from is not None else 0
    cache_mark = verdict_cache.mark() if verdict_cache is not None else None
    started = time.perf_counter()
    shard, checkpoint = run_shard_chunk(task.spec, resume_from,
                                        task.pause_after,
                                        verdict_cache=verdict_cache)
    wall_seconds = time.perf_counter() - started
    cache_delta = (verdict_cache.delta(cache_mark)
                   if verdict_cache is not None else None)
    done = (checkpoint.evaluations if checkpoint is not None
            else shard.result.evaluations)
    return shard, checkpoint, ChunkTelemetry(
        evaluations=done - already_done,
        wall_seconds=wall_seconds), cache_delta


def execute_chunk_task(task: ChunkTask,
                       verdict_cache: VerdictCache | None = None
                       ) -> ChunkOutcome:
    """Run one :class:`ChunkTask` in the current process (worker side).

    Shared by every worker: the multiprocessing worker loop and the
    service worker client both funnel their tasks through here, so
    worker behaviour is identical whatever carried the task.  A pause
    serializes the resume checkpoint exactly once, into the outcome's :class:`ChunkPayload`
    (also the source of the telemetry's checkpoint cost); failures are
    stringified so they cross process/host boundaries without needing the
    exception itself to be picklable.

    This is also the one place a worker folds a cache shipment.  With
    ``task.cache`` set, the shipped state is merged into *verdict_cache*
    (the worker's per-sweep or per-job cache, so it keeps accruing the
    entries other workers found) or, when that is ``None``, into a new
    cache for just this chunk, and the chunk runs memoized.  Merges are
    idempotent, so re-deliveries and overlapping shipments are harmless.
    A task without a shipment belongs to an unmemoized sweep and runs
    without a cache.
    """
    cache = None
    if task.cache is not None:
        cache = verdict_cache if verdict_cache is not None else VerdictCache()
        cache.merge(pickle.loads(task.cache))
    try:
        shard, checkpoint, telemetry, cache_delta = (
            _run_chunk_instrumented(task, verdict_cache=cache))
        payload = None
        if checkpoint is not None:
            # Ship only the bytes: the materialized checkpoint would
            # hand the transport an object graph to re-pickle.
            started = time.perf_counter()
            payload = ChunkPayload.of(checkpoint)
            telemetry = replace(
                telemetry, checkpoint_bytes=payload.nbytes,
                checkpoint_seconds=time.perf_counter() - started)
    except Exception as error:
        return ChunkOutcome(index=task.index,
                            error=f"{type(error).__name__}: {error}")
    return ChunkOutcome(index=task.index, shard=shard, payload=payload,
                        telemetry=telemetry, cache_delta=cache_delta)


class ShardFailure(RuntimeError):
    """A shard raised inside a worker; carries the stringified cause."""


def _telemetry_view(total_evaluations: int,
                    total_seconds: float,
                    checkpoint_bytes: int = 0,
                    verdict_cache: dict | None = None) -> dict[str, object]:
    """The ``telemetry_out`` shape every execution path publishes.

    Single point of truth for the live-telemetry mapping consumed by
    :func:`repro.harness.reporting.format_telemetry`: the sweep-wide
    aggregate rate, when checkpoints actually crossed a transport the
    serialized checkpoint bytes, and — with memoization on — the
    sweep-wide verdict-cache view under ``"verdict_cache"``, so the
    serial and pooled paths can never drift apart.
    """
    view: dict[str, object] = {}
    if total_seconds > 0.0:
        view["evals_per_second"] = round(total_evaluations / total_seconds, 2)
    if checkpoint_bytes:
        view["checkpoint"] = {"bytes": checkpoint_bytes}
    if verdict_cache is not None:
        view["verdict_cache"] = verdict_cache
    return view


def _cache_counters_view(entries: int, hits: int, misses: int,
                         failed_refreshes: int, evictions: int,
                         seconds_saved: float) -> dict[str, object]:
    """The ``"verdict_cache"`` telemetry mapping, from raw counters."""
    lookups = hits + misses + failed_refreshes
    return {
        "entries": entries,
        "hits": hits,
        "misses": misses,
        "failed_refreshes": failed_refreshes,
        "evictions": evictions,
        "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        "seconds_saved": round(seconds_saved, 6),
    }


@guarded_by("_lock", "_queue", "_completed", "_queued", "_outstanding",
            "_cache_shipment", "_cache_shipment_inserts", "stale_pauses",
            "total_chunk_evaluations", "total_chunk_seconds",
            "total_checkpoint_bytes", "cache_hits", "cache_misses",
            "cache_failed_refreshes", "cache_evictions",
            "cache_seconds_saved")
class ChunkScheduler:
    """The task source / result sink of one sweep.

    Owns the chunked task queue the work-stealing pool and the
    verification service both drain: :meth:`next_task` hands out the next
    :class:`ChunkTask` (task-source side), :meth:`record` folds a
    :class:`ChunkOutcome` back in (result-sink side) — re-queuing paused
    chunks at the tail and returning completed shards — and
    :meth:`requeue` puts a task a worker *lost* (died or stalled holding
    it) back in the queue.  Re-queue is idempotent because every task is a
    resumable checkpoint: re-running it reproduces the identical outcome,
    and :meth:`record` drops duplicate completions of an already-finished
    shard, so a result can never be lost *or* double-counted.

    The scheduler additionally tracks where each live shard *is* — queued
    here or outstanding on some worker — so a late *paused* outcome from a
    worker whose chunk was already re-queued (presumed dead, then heard
    from after all) is recognized as stale and dropped instead of
    enqueuing a second task for the same shard (which would double-run
    and double-count it).  Continuations are re-queued *lazily*: a paused
    outcome's pre-serialized :class:`ChunkPayload` bytes are carried on
    the continuation task untouched, deserialized only by the worker that
    eventually resumes it.

    Every task, first chunk or continuation, pauses after
    ``chunk_evaluations`` evaluations (``None``: never), whichever
    worker runs it.

    Thread-safe: the verification service drives it from many
    connection threads, so every queue/bookkeeping access goes through
    ``_lock`` (a :class:`~repro.locking.TracedLock`; acquired after the
    service lock and before the verdict-cache lock in the sanctioned
    hierarchy).  The single-threaded multiprocessing pool pays one
    uncontended acquire per call.
    """

    def __init__(self, specs: list[CampaignSpec],
                 chunk_evaluations: int | None = None,
                 verdict_memo: bool = False,
                 max_cache_bytes: int | None = None) -> None:
        self.specs = specs
        self.chunk_evaluations = chunk_evaluations
        self._lock = TracedLock("chunk_scheduler")
        #: Sweep-wide verdict cache (collective checking): outcomes'
        #: deltas fold in via :meth:`record`, and :meth:`next_task` stamps
        #: the current state onto every dispatched task so each worker
        #: benefits from what every other worker already checked.
        self.verdict_cache = VerdictCache() if verdict_memo else None
        #: Byte budget for one pickled cache shipment (``None``: uncapped;
        #: the service sets a fraction of its ``max_frame_bytes``).
        #: Over-budget shipments drop oldest entries until they fit —
        #: a trimmed shipment only costs re-checks on the worker.
        self.max_cache_bytes = max_cache_bytes
        self._cache_shipment: bytes | None = None
        self._cache_shipment_inserts = -1
        # Sweep-wide counter aggregation over every recorded delta (the
        # scheduler-side cache object never performs lookups itself).
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_failed_refreshes = 0
        self.cache_evictions = 0
        self.cache_seconds_saved = 0.0
        self._queue: deque[ChunkTask] = deque(
            ChunkTask(index=index, spec=spec, checkpoint=None,
                      pause_after=chunk_evaluations)
            for index, spec in enumerate(specs))
        self._completed: set[int] = set()
        #: Indices currently sitting in the queue / held by a worker.
        self._queued: set[int] = set(range(len(specs)))
        self._outstanding: set[int] = set()
        #: Late paused outcomes dropped because their chunk had already
        #: been re-queued (observability; see :meth:`record`).
        self.stale_pauses = 0
        #: Aggregate over every recorded chunk (all cells, all workers).
        self.total_chunk_evaluations = 0
        self.total_chunk_seconds = 0.0
        self.total_checkpoint_bytes = 0

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def pending(self) -> int:
        """Shards not yet completed (queued or outstanding on workers)."""
        with self._lock:
            return len(self.specs) - len(self._completed)

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def done(self) -> bool:
        # Inlines ``pending == 0`` rather than reading the locking
        # property: the lock is not reentrant.
        with self._lock:
            return len(self._completed) == len(self.specs)

    def next_task(self) -> ChunkTask | None:
        """The next task to hand to an idle worker (``None``: none queued).

        On memoized sweeps the task carries the sweep-wide verdict cache
        as it stands at dispatch.
        """
        with self._lock:
            while self._queue:
                task = self._queue.popleft()
                self._queued.discard(task.index)
                if task.index in self._completed:
                    # A stale continuation left behind when its shard's
                    # completion arrived from another worker: skip it.
                    continue
                self._outstanding.add(task.index)
                if self.verdict_cache is not None:
                    # Stamped at dispatch with the *current* state,
                    # pickled lazily (re-serialized only after new
                    # entries arrived).
                    task = replace(task, cache=self._shipment_bytes())
                return task
            return None

    @requires_lock("_lock")
    def _shipment_bytes(self) -> bytes:
        """The pickled sweep-cache state to stamp on a dispatch.

        Cached between dispatches and rebuilt only when the cache gained
        entries; trimmed (oldest entries first) until it fits
        ``max_cache_bytes``.
        """
        cache = self.verdict_cache
        if (self._cache_shipment is None
                or self._cache_shipment_inserts != cache.inserts):
            state = cache.snapshot()
            data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            while (self.max_cache_bytes is not None
                   and len(data) > self.max_cache_bytes and state.entries):
                state = replace(state,
                                entries=state.entries[len(state.entries) // 2
                                                      + 1:])
                data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            self._cache_shipment = data
            self._cache_shipment_inserts = cache.inserts
        return self._cache_shipment

    def requeue(self, task: ChunkTask) -> None:
        """Put back a task whose worker died or stalled while holding it.

        Idempotent: a task whose shard already completed, or whose index
        is already queued (a duplicate forfeit), is dropped.
        """
        with self._lock:
            if task.index in self._completed \
                    or task.index in self._queued:
                return
            self._outstanding.discard(task.index)
            self._queued.add(task.index)
            self._queue.append(task)

    def record(self, outcome: ChunkOutcome) -> tuple[int, ShardResult] | None:
        """Fold one worker outcome back in.

        Returns ``(index, shard)`` when the outcome completed a shard,
        ``None`` when it paused (the continuation is re-queued at the
        tail, carrying the outcome's pre-serialized payload bytes
        verbatim) or was stale.  Stale means either a duplicate
        completion of an already-finished shard *or* a late pause from a
        worker whose chunk was already re-queued after presumed death —
        both dropped, since re-runs are bit-identical and the re-queued
        task already represents the shard.  Raises :class:`ShardFailure`
        on a worker-side error.  The outcome's :class:`ChunkTelemetry`
        (if any) is added to the scheduler's aggregate counters before
        the dedup checks: a stale-but-successful replay still did the
        work it reports.
        """
        if outcome.error is not None:
            raise ShardFailure(
                f"shard {outcome.index} "
                f"({self.specs[outcome.index].describe()}) failed in a "
                f"worker: {outcome.error}")
        with self._lock:
            if outcome.telemetry is not None:
                self.total_chunk_evaluations += \
                    outcome.telemetry.evaluations
                self.total_chunk_seconds += outcome.telemetry.wall_seconds
                self.total_checkpoint_bytes += \
                    outcome.telemetry.checkpoint_bytes
            if outcome.cache_delta is not None \
                    and self.verdict_cache is not None:
                # Folded before the dedup checks, like the telemetry:
                # entry merges are idempotent and the counters are
                # telemetry-only, so even a stale replay's delta is safe
                # to absorb.
                delta = outcome.cache_delta
                self.verdict_cache.merge(delta)
                self.cache_hits += delta.hits
                self.cache_misses += delta.misses
                self.cache_failed_refreshes += delta.failed_refreshes
                self.cache_evictions += delta.evictions
                self.cache_seconds_saved += delta.seconds_saved
            if outcome.index in self._completed:
                return None
            if outcome.shard is None:
                if outcome.index not in self._outstanding:
                    # The chunk was re-queued (its worker presumed dead)
                    # and now the original worker reports the pause
                    # after all: enqueuing this continuation too would
                    # double-run the shard.  The re-queued task replays
                    # to the same point.
                    self.stale_pauses += 1
                    return None
                self._outstanding.discard(outcome.index)
                self._queued.add(outcome.index)
                self._queue.append(ChunkTask(
                    index=outcome.index, spec=self.specs[outcome.index],
                    checkpoint=outcome.payload,
                    pause_after=self.chunk_evaluations))
                return None
            self._outstanding.discard(outcome.index)
            self._completed.add(outcome.index)
            return outcome.index, outcome.shard

    def telemetry_snapshot(self) -> dict[str, object]:
        """Live telemetry for progress displays.

        ``"evals_per_second"`` is the sweep-wide aggregate rate over
        every recorded chunk; ``"checkpoint"`` aggregates serialized
        checkpoint bytes; ``"verdict_cache"`` (memoized sweeps)
        aggregates hit/miss counters and checker-seconds saved across
        every worker's deltas.
        """
        with self._lock:
            return _telemetry_view(
                self.total_chunk_evaluations, self.total_chunk_seconds,
                checkpoint_bytes=self.total_checkpoint_bytes,
                verdict_cache=self._cache_telemetry_locked())

    def cache_telemetry(self) -> dict[str, object] | None:
        """Sweep-wide verdict-cache counters (``None`` when memo is off)."""
        with self._lock:
            return self._cache_telemetry_locked()

    @requires_lock("_lock")
    def _cache_telemetry_locked(self) -> dict[str, object] | None:
        if self.verdict_cache is None:
            return None
        return _cache_counters_view(
            entries=len(self.verdict_cache), hits=self.cache_hits,
            misses=self.cache_misses,
            failed_refreshes=self.cache_failed_refreshes,
            evictions=self.cache_evictions,
            seconds_saved=self.cache_seconds_saved)

    # -- durable restore -----------------------------------------------

    def restore_progress(self, completed: Iterable[int],
                         checkpoints: Mapping[int, bytes],
                         cache_state: VerdictCacheState | None = None
                         ) -> None:
        """Rebuild mid-sweep progress on a *fresh* scheduler.

        The durable-store recovery path: ``completed`` shards are marked
        done (their queued fresh tasks dropped), every index in
        ``checkpoints`` resumes from its :class:`ChunkPayload` bytes
        verbatim, and ``cache_state`` (the job's last committed
        :class:`~repro.consistency.memo.VerdictCacheState`) re-seeds the
        sweep-wide verdict cache.  A ``completed`` index wins over a
        stale checkpoint for the same shard.  Calling this after any
        dispatch or record raises: recovery happens before the
        scheduler is ever offered to workers.
        """
        with self._lock:
            if (self._completed or self._outstanding
                    or len(self._queue) != len(self.specs)):
                raise RuntimeError("restore_progress() needs a fresh "
                                   "scheduler: no dispatches or records "
                                   "yet")
            completed_set = set(completed)
            unknown = (completed_set | set(checkpoints)) \
                - set(range(len(self.specs)))
            if unknown:
                raise ValueError(f"restore_progress() got shard indices "
                                 f"{sorted(unknown)} outside the sweep's "
                                 f"0..{len(self.specs) - 1}")
            rebuilt: deque[ChunkTask] = deque()
            for task in self._queue:
                if task.index in completed_set:
                    self._queued.discard(task.index)
                    continue
                data = checkpoints.get(task.index)
                if data is not None:
                    task = replace(task, checkpoint=ChunkPayload(data))
                rebuilt.append(task)
            self._queue = rebuilt
            self._completed = completed_set
            if cache_state is not None and self.verdict_cache is not None:
                self.verdict_cache.merge(cache_state)


#: A verdict-cache shipment is capped at this fraction of the service's
#: ``max_frame_bytes``: the task frame carries the spec and the resume
#: checkpoint on top of it.
CHECKPOINT_FRAME_FRACTION = 4


def build_chunk_scheduler(specs: list[CampaignSpec], config: SweepConfig,
                          max_frame_bytes: int | None = None
                          ) -> ChunkScheduler:
    """Build the :class:`ChunkScheduler` a :class:`SweepConfig` describes.

    The single mapping point for the verification service
    (:mod:`repro.harness.service`), which runs every TCP sweep: the
    cache-shipment byte cap is derived from the service's frame cap
    (``max_frame_bytes``; ``None``: uncapped), so a sweep recovered from
    a durable store re-derives the identical scheduler.
    """
    max_cache_bytes = (max(1, max_frame_bytes // CHECKPOINT_FRAME_FRACTION)
                       if max_frame_bytes is not None else None)
    return ChunkScheduler(specs, config.chunk_evaluations,
                          verdict_memo=config.verdict_memo,
                          max_cache_bytes=max_cache_bytes)


# ----------------------------------------------------------------------
# Matrix construction


def system_for_fault(fault: Fault | None, base: SystemConfig) -> SystemConfig:
    """The system configuration a fault applies to.

    Faults tied to a specific coherence protocol switch the base
    configuration to that protocol; protocol-agnostic faults (and ``None``,
    the correct system) leave it unchanged.
    """
    if fault is None or fault.protocol == "ANY":
        return base
    return base.with_protocol(fault.protocol)


def campaign_matrix(kinds: list[GeneratorKind],
                    faults: list[Fault | None],
                    generator_config: GeneratorConfig,
                    system_config: SystemConfig,
                    max_evaluations: int,
                    seeds_per_cell: int = 1,
                    base_seed: int = 1,
                    time_limit_seconds: float | None = None
                    ) -> list[CampaignSpec]:
    """Build the (kind x fault x seed) shard matrix of a Table-4-style sweep.

    Each (kind, fault) cell gets ``seeds_per_cell`` shards whose seeds are
    derived from ``base_seed`` and the shard's global matrix index, so the
    matrix is identical however it is later scheduled.  A fault of ``None``
    means the correct system (coverage sweeps).  Faults tied to a specific
    protocol switch the system configuration to that protocol, mirroring
    :class:`repro.harness.experiment.BugCoverageExperiment`.
    """
    specs: list[CampaignSpec] = []
    index = 0
    for kind in kinds:
        for fault in faults:
            config = system_for_fault(fault, system_config)
            for _ in range(seeds_per_cell):
                specs.append(CampaignSpec(
                    kind=kind, generator_config=generator_config,
                    system_config=config, fault=fault,
                    seed=derive_shard_seed(base_seed, index),
                    max_evaluations=max_evaluations,
                    time_limit_seconds=time_limit_seconds))
                index += 1
    return specs


# ----------------------------------------------------------------------
# Aggregation (Table-4-style summaries)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sorted list."""
    if not sorted_values:
        raise ValueError("quantile of empty list")
    rank = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass
class CampaignSummary:
    """Aggregate of all shards of one (kind, memory size, fault) cell."""

    kind: GeneratorKind
    fault: Fault | None
    memory_kib: int = 0
    protocol: str = ""
    results: list[CampaignResult] = field(default_factory=list)

    @property
    def generator_label(self) -> str:
        if self.memory_kib:
            return f"{self.kind.value} ({self.memory_kib}KB)"
        return self.kind.value

    @property
    def bug_label(self) -> str:
        if self.fault is not None:
            return self.fault.paper_name
        return f"correct ({self.protocol})" if self.protocol else "correct"

    @property
    def samples(self) -> int:
        return len(self.results)

    @property
    def found_count(self) -> int:
        return sum(1 for result in self.results if result.found)

    @property
    def consistent(self) -> bool:
        """Found in every sample (the bold entries of Table 4)."""
        return self.samples > 0 and self.found_count == self.samples

    def evaluations_to_find(self) -> list[int]:
        return sorted(result.evaluations_to_find for result in self.results
                      if result.evaluations_to_find is not None)

    def evaluations_quantile(self, q: float) -> float | None:
        values = self.evaluations_to_find()
        if not values:
            return None
        return _quantile([float(value) for value in values], q)

    @property
    def mean_evaluations_to_find(self) -> float | None:
        values = self.evaluations_to_find()
        return mean(values) if values else None

    @property
    def sim_seconds(self) -> float:
        return sum(result.sim_seconds for result in self.results)

    @property
    def check_seconds(self) -> float:
        return sum(result.check_seconds for result in self.results)

    @property
    def wall_seconds(self) -> float:
        return sum(result.wall_seconds for result in self.results)

    def label(self) -> str:
        """Table-4-style cell label: found count and mean evaluations."""
        if self.found_count == 0:
            return "NF"
        return f"{self.found_count}/{self.samples} ({self.mean_evaluations_to_find:.1f})"


@dataclass
class SweepReport:
    """Everything an orchestrated sweep produced."""

    shards: list[ShardResult]
    workers: int
    wall_seconds: float
    coverage: CoverageCollector
    #: Sweep-wide verdict-cache telemetry (hit/miss counters, hit-rate,
    #: checker-seconds saved) when memoization was on; ``None`` otherwise.
    #: Telemetry-only, like the timing fields: excluded from the
    #: determinism contract.
    verdict_cache: dict | None = None

    @property
    def results(self) -> list[CampaignResult]:
        return [shard.result for shard in self.shards]

    @property
    def found_count(self) -> int:
        return sum(1 for shard in self.shards if shard.result.found)

    # -- replay (trace-ingestion) views --------------------------------
    #
    # Replay shards attach a ``stats`` object (see
    # :class:`repro.bridge.replay.ReplayShardStats`) to their results.
    # Discovery is duck-typed off that attribute so this module never
    # imports the bridge.

    def _replay_stats(self) -> list:
        return [stats for shard in self.shards
                if (stats := getattr(shard.result, "stats", None))
                is not None]

    @property
    def corrupt_traces(self) -> int:
        """Traces that were unreadable or internally inconsistent."""
        return sum(stats.corrupt for stats in self._replay_stats())

    def replay_sources(self) -> dict[str, dict[str, int]]:
        """Per-source verdict counters, summed across replay shards."""
        merged: dict[str, dict[str, int]] = {}
        for stats in self._replay_stats():
            for source, counters in sorted(stats.sources.items()):
                into = merged.setdefault(
                    source, {"traces": 0, "passed": 0, "failed": 0,
                             "corrupt": 0})
                for key, count in counters.items():
                    into[key] = into.get(key, 0) + count
        return merged

    def replay_verdicts(self) -> dict[str, str]:
        """``file name -> verdict`` over every replayed trace."""
        verdicts: dict[str, str] = {}
        for stats in self._replay_stats():
            verdicts.update(stats.verdicts)
        return verdicts

    def summaries(self) -> list[CampaignSummary]:
        """One Table-4-style summary per (kind, memory, protocol, fault)
        cell, in matrix order.  Test-memory size and coherence protocol are
        part of the key because Table 4 distinguishes 1KB from 8KB
        configurations and Table 6 sweeps the same generator over several
        protocols."""
        cells: dict[tuple[GeneratorKind, int, str, Fault | None],
                    CampaignSummary] = {}
        for shard in self.shards:
            memory_kib = shard.spec.generator_config.memory.size_bytes // 1024
            protocol = shard.spec.system_config.protocol
            key = (shard.spec.kind, memory_kib, protocol, shard.spec.fault)
            summary = cells.get(key)
            if summary is None:
                summary = cells[key] = CampaignSummary(kind=shard.spec.kind,
                                                       fault=shard.spec.fault,
                                                       memory_kib=memory_kib,
                                                       protocol=protocol)
            summary.results.append(shard.result)
        return list(cells.values())

    def table_headers(self) -> list[str]:
        return ["Generator", "Bug", "Found", "Evals p50", "Evals p90",
                "Sim s", "Check s"]

    def table_rows(self) -> list[list[str]]:
        rows = []
        for summary in self.summaries():
            p50 = summary.evaluations_quantile(0.5)
            p90 = summary.evaluations_quantile(0.9)
            rows.append([
                summary.generator_label,
                summary.bug_label,
                summary.label(),
                f"{p50:.0f}" if p50 is not None else "-",
                f"{p90:.0f}" if p90 is not None else "-",
                f"{summary.sim_seconds:.2f}",
                f"{summary.check_seconds:.2f}",
            ])
        return rows


# ----------------------------------------------------------------------
# Orchestration


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` if set, capped at available CPUs.

    The environment override lets deployments (and the service worker
    CLI) pin the worker count without threading a flag through every entry
    point; it is still capped at the CPUs the process may use, because
    oversubscribing pure-Python simulation workers only adds scheduling
    noise.  An unset/empty variable falls back to the CPU count.
    """
    cpus = available_cpus()
    override = os.environ.get("REPRO_WORKERS", "").strip()
    if not override:
        return cpus
    try:
        value = int(override)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be a positive integer, got {override!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"REPRO_WORKERS must be a positive integer, got {override!r}")
    return min(value, cpus)


@dataclass(frozen=True)
class SweepConfig:
    """How a sweep runs: every shared orchestration knob, in one place.

    The one way to configure :func:`iter_campaigns`,
    :func:`run_campaigns`, the scenario and replay drivers,
    :class:`~repro.harness.experiment.ExperimentSettings` and a service
    job.  Construction validates every rule that depends on the fields
    alone, so a bad config fails here (or in :meth:`from_json_dict`)
    rather than when a sweep starts.  Per-shard results never depend on
    any field: only wall-clock time, checker time and telemetry change.

    ``chunk_evaluations`` splits long campaigns into resumable chunks of
    that many evaluations (``None``: each shard runs in one piece).
    The size only moves pause points.

    ``verdict_memo=True`` turns on collective checking: checker verdicts
    are memoized by exact execution graph in a sweep-wide
    :class:`~repro.consistency.memo.VerdictCache` (shared in-process on
    the serial path; folded from per-chunk deltas and re-shipped on
    dispatch on the pooled and service paths).  The report's
    ``verdict_cache`` field records the hit-rate and checker-seconds
    saved.

    Where a sweep runs is not a config field: a sweep on TCP workers is
    a job on a verification service, whose ``serve`` flags set the bind
    address, lease timeout and frame cap (see
    :mod:`repro.harness.service`).
    """

    chunk_evaluations: int | None = None
    verdict_memo: bool = False

    def __post_init__(self) -> None:
        if self.chunk_evaluations is not None and self.chunk_evaluations < 1:
            raise ValueError("chunk_evaluations must be at least 1")

    def to_json_dict(self) -> dict:
        """A JSON-portable image of this config (service job API)."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SweepConfig":
        """Rebuild a config from :meth:`to_json_dict` output.

        Unknown keys raise ``ValueError`` (a client speaking a newer
        config schema should fail loudly, not silently drop knobs).
        """
        known = {entry.name for entry in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SweepConfig field(s) {sorted(unknown)}")
        return cls(**dict(data))


def _worker_loop(task_queue, result_queue) -> None:
    """Work-stealing worker: pull :class:`ChunkTask` items until sentinel.

    Runs one chunk per item and reports a :class:`ChunkOutcome` back to
    the host; a ``None`` item is the shutdown sentinel.  Errors are
    stringified (inside :func:`execute_chunk_task`) rather than re-raised
    so a failing shard takes down the sweep with a diagnosable exception,
    not a hung queue.  KeyboardInterrupt / SystemExit deliberately
    propagate: on Ctrl-C the worker must exit promptly, not keep draining
    the queue.

    The worker keeps one :class:`~repro.consistency.memo.VerdictCache`
    across all the tasks it runs; on memoized sweeps
    :func:`execute_chunk_task` folds each task's sweep-wide shipment into
    it, so it hits both on its own history and on what other workers
    discovered.
    """
    verdict_cache = VerdictCache()
    while True:
        task = task_queue.get()
        if task is None:
            return
        result_queue.put(execute_chunk_task(task, verdict_cache=verdict_cache))


def _iter_serial(specs: list[CampaignSpec],
                 chunk_evaluations: int | None,
                 telemetry_out: dict | None = None,
                 verdict_memo: bool = False
                 ) -> Iterator[tuple[int, ShardResult]]:
    """In-process execution in matrix order (the workers=1 fallback).

    Honours ``chunk_evaluations`` so the checkpoint/resume and telemetry
    paths are exercised — and therefore debuggable — without any
    multiprocessing.  A paused chunk resumes from the checkpoint object
    itself: no transport is crossed, so nothing is serialized.
    Exceptions propagate directly, with their original type, because no
    process boundary forces them to be stringified.  With
    ``verdict_memo`` one in-process sweep-wide
    :class:`~repro.consistency.memo.VerdictCache` is shared by every
    shard directly — no shipments, no deltas to fold.
    """
    verdict_cache = VerdictCache() if verdict_memo else None
    total_evaluations, total_seconds = 0, 0.0
    for index, spec in enumerate(specs):
        checkpoint = None
        while True:
            task = ChunkTask(index=index, spec=spec, checkpoint=checkpoint,
                             pause_after=chunk_evaluations)
            shard, checkpoint, telemetry, _ = _run_chunk_instrumented(
                task, verdict_cache=verdict_cache)
            total_evaluations += telemetry.evaluations
            total_seconds += telemetry.wall_seconds
            if telemetry_out is not None:
                telemetry_out.update(_telemetry_view(
                    total_evaluations, total_seconds,
                    verdict_cache=(verdict_cache.stats()
                                   if verdict_cache is not None else None)))
            if shard is not None:
                yield index, shard
                break


def _iter_work_stealing(specs: list[CampaignSpec], workers: int,
                        chunk_evaluations: int | None,
                        telemetry_out: dict | None = None,
                        verdict_memo: bool = False
                        ) -> Iterator[tuple[int, ShardResult]]:
    """Pull-based scheduling: a shared queue workers drain as they finish.

    Paused chunks come back to the host with their checkpoint and are
    re-queued at the tail, so every idle worker always has something to
    steal while long campaigns make round-robin progress.  Results are
    yielded in completion order, as soon as each shard finishes.
    """
    processes = min(workers, len(specs))
    scheduler = ChunkScheduler(specs, chunk_evaluations,
                               verdict_memo=verdict_memo)
    task_queue = multiprocessing.Queue()
    result_queue = multiprocessing.Queue()
    pool = [multiprocessing.Process(target=_worker_loop,
                                    args=(task_queue, result_queue),
                                    daemon=True)
            for _ in range(processes)]
    for process in pool:
        process.start()
    try:
        while (task := scheduler.next_task()) is not None:
            task_queue.put(task)
        while not scheduler.done:
            try:
                outcome = result_queue.get(timeout=1.0)
            except queue.Empty:
                # A worker killed outside Python (OOM, segfault) can never
                # report the task it held; fail loudly instead of blocking
                # on the queue forever.
                dead = [process for process in pool
                        if not process.is_alive()]
                if dead:
                    codes = sorted({process.exitcode for process in dead})
                    raise RuntimeError(
                        f"{len(dead)} worker process(es) died with exit "
                        f"code(s) {codes} while {scheduler.pending} "
                        "shard(s) were still pending") from None
                continue
            completed = scheduler.record(outcome)
            if telemetry_out is not None:
                telemetry_out.update(scheduler.telemetry_snapshot())
            if completed is None:
                # Chunk paused with budget left: re-queue for any worker.
                while (task := scheduler.next_task()) is not None:
                    task_queue.put(task)
            else:
                yield completed
    finally:
        for _ in pool:
            task_queue.put(None)
        for process in pool:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
        task_queue.close()
        result_queue.close()


def iter_campaigns(specs: list[CampaignSpec], workers: int = 1,
                   config: SweepConfig | None = None,
                   telemetry_out: dict | None = None
                   ) -> Iterator[tuple[int, ShardResult]]:
    """Stream ``(shard_index, ShardResult)`` pairs as shards complete.

    The iterator mode of the orchestrator: results arrive in completion
    order (matrix order for the serial path), each tagged with its matrix
    index so consumers can reassemble deterministic reports.  Arguments
    are validated eagerly (at call time), not when the returned iterator
    is first advanced.

    ``config`` describes the sweep (see :class:`SweepConfig`; ``None``
    means ``SweepConfig()``).  ``workers`` and ``telemetry_out`` are
    per-call arguments: they describe this process's resources, not the
    sweep.  ``telemetry_out`` (any mutable mapping) is updated in place
    with live telemetry — sweep-wide throughput and checkpoint bytes
    moved — for progress displays.
    """
    config = config if config is not None else SweepConfig()
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1 or len(specs) <= 1:
        return _iter_serial(specs, config.chunk_evaluations,
                            telemetry_out=telemetry_out,
                            verdict_memo=config.verdict_memo)
    return _iter_work_stealing(specs, workers, config.chunk_evaluations,
                               telemetry_out=telemetry_out,
                               verdict_memo=config.verdict_memo)


class SweepAccumulator:
    """Folds streamed shard results into (partial) :class:`SweepReport`\\ s.

    Feed it ``(index, shard)`` pairs in any order via :meth:`add`;
    :meth:`partial_report` gives a matrix-ordered report over the shards
    completed so far (for incremental tables), and :meth:`finalize` the
    complete report.  Coverage is merged incrementally, so partial reports
    are cheap even for large sweeps.
    """

    def __init__(self, total: int, workers: int = 1) -> None:
        self.total = total
        self.workers = workers
        self.completed = 0
        self.found_count = 0
        self.coverage = CoverageCollector()
        self._slots: list[ShardResult | None] = [None] * total
        self._started = time.perf_counter()

    def add(self, index: int, shard: ShardResult) -> None:
        if self._slots[index] is not None:
            raise ValueError(f"shard {index} was already recorded")
        self._slots[index] = shard
        self.completed += 1
        if shard.result.found:
            self.found_count += 1
        self.coverage.merge(shard.coverage)

    @property
    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._started

    def partial_report(self) -> SweepReport:
        """A report over the completed shards, in matrix order."""
        coverage = CoverageCollector()
        coverage.merge(self.coverage)
        return SweepReport(
            shards=[shard for shard in self._slots if shard is not None],
            workers=self.workers, wall_seconds=self.elapsed_seconds,
            coverage=coverage)

    def finalize(self, wall_seconds: float | None = None) -> SweepReport:
        if self.completed != self.total:
            raise RuntimeError(f"sweep incomplete: {self.completed}/"
                               f"{self.total} shards finished")
        return SweepReport(
            shards=list(self._slots), workers=self.workers,
            wall_seconds=(wall_seconds if wall_seconds is not None
                          else self.elapsed_seconds),
            coverage=self.coverage)


def run_campaigns(specs: list[CampaignSpec], workers: int = 1,
                  config: SweepConfig | None = None,
                  on_result: Callable[[ShardResult], None] | None = None,
                  progress: bool = False,
                  progress_stream: TextIO | None = None) -> SweepReport:
    """Run a shard matrix, optionally across a worker pool.

    ``workers=1`` executes every shard in-process, in matrix order, with no
    multiprocessing machinery at all — the reproducible serial fallback.
    ``workers>1`` schedules the matrix on the work-stealing pool (see the
    module docstring).  ``config`` describes the sweep (see
    :class:`SweepConfig` and :func:`iter_campaigns`); per-shard results
    are bit-identical for every config and worker count.

    ``on_result`` is invoked on the host with each :class:`ShardResult` in
    completion order, while other shards are still running; ``progress=True``
    additionally maintains a live one-line progress display (stderr by
    default) including live telemetry (sweep-wide evaluations/second
    and checkpoint bytes) when chunking is enabled.  The returned report always lists shards in
    matrix order, so downstream tables are independent of completion order.
    """
    config = config if config is not None else SweepConfig()
    started = time.perf_counter()
    accumulator = SweepAccumulator(total=len(specs), workers=workers)
    printer = None
    telemetry: dict | None = (
        {} if (progress and config.chunk_evaluations is not None)
        or config.verdict_memo else None)
    if progress:
        from repro.harness.reporting import ProgressPrinter

        printer = ProgressPrinter(total=len(specs), stream=progress_stream)
    for index, shard in iter_campaigns(specs, workers=workers,
                                       config=config,
                                       telemetry_out=telemetry):
        accumulator.add(index, shard)
        if on_result is not None:
            on_result(shard)
        if printer is not None:
            printer.update(completed=accumulator.completed,
                           found=accumulator.found_count,
                           elapsed_seconds=accumulator.elapsed_seconds,
                           telemetry=telemetry)
    if printer is not None:
        printer.finish()
    report = accumulator.finalize(time.perf_counter() - started)
    if telemetry is not None and "verdict_cache" in telemetry:
        report.verdict_cache = dict(telemetry["verdict_cache"])
    return report
