"""The MCM checker: verify a candidate execution against a model.

Checks performed (all polynomial, per paper §2.1 and §4.1):

1. **Coherence / uniproc**: ``acyclic(po-loc | rf | co | fr)`` - the
   per-location SC requirement every model shares.
2. **Atomicity**: for every RMW pair (r, w), no other write to the same
   address is coherence-ordered between the write r read from and w.
3. **Global happens-before**: ``acyclic(ppo+fences | rf(e) | co | fr)``
   where the model decides whether internal rf participates.

Both cycle checks range over program events only.  In a trace-built
execution every edge of either graph ends at a program event (rf at a
read, co and fr at a program write, po-loc and ppo between program
events), so an init write has in-degree 0 and can lie on no cycle; the
checks leave init writes out (``ExecutionGraph.cycle_size``).

Any inconsistency in the observed trace itself (a read returning a value no
write produced, a branching coherence order, i.e. a lost update) is also
reported as a violation - these indicate memory-system data corruption.

When handed a :class:`~repro.consistency.memo.VerdictCache`, the checker
runs MTraceCheck-style collective checking: each execution is keyed by a
digest of its exact graph
(:func:`~repro.consistency.signature.execution_signature`) and a cached
*passing* verdict for the same graph skips the three cycle checks
outright — the returned ``CheckResult.ok(execution)`` is byte-identical
to what a full check of this execution would produce, so memoization
never changes what is reported.  Cached *failing* verdicts never
short-circuit: the check re-runs so violation descriptions name the
events of the execution actually at hand (a failing check ends a
campaign, so this path stays rare and cheap).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.consistency.execution import (CandidateExecution, Edges,
                                         ExecutionBuildError, ExecutionGraph,
                                         Program, execution_from_trace,
                                         program_order_edges)
from repro.consistency.memo import CachedVerdict, VerdictCache
from repro.consistency.models import MemoryModel
from repro.consistency.relations import Relation
from repro.consistency.signature import execution_signature
from repro.sim.testprogram import TestThread
from repro.sim.trace import ExecutionTrace

@dataclass(frozen=True)
class Violation:
    """One detected violation of the memory model."""

    kind: str               # "coherence", "atomicity", "ghb", "corruption"
    description: str
    cycle: tuple = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.description}"


@dataclass
class CheckResult:
    """Result of checking one candidate execution.

    ``trace`` is only populated on the corruption path, where no
    ``CandidateExecution`` could be built — it preserves the partial
    context (the raw observed trace) for diagnosis.

    .. deprecated::
        Reaching into ``result.violations[i]`` positionally (tuple
        unpacking the violation fields, or indexing ``.args``) is
        deprecated; use :meth:`violations_summary` for a stable
        reporting/telemetry view.
    """

    passed: bool
    violations: list[Violation] = field(default_factory=list)
    execution: CandidateExecution | None = None
    trace: ExecutionTrace | None = None

    @classmethod
    def ok(cls, execution: CandidateExecution) -> "CheckResult":
        return cls(passed=True, execution=execution)

    def violations_summary(self) -> tuple[str, ...]:
        """Stable ``"kind: description"`` strings, one per violation.

        The supported accessor for reporting and telemetry — it
        insulates callers from the :class:`Violation` field layout.
        """
        return tuple(f"{violation.kind}: {violation.description}"
                     for violation in self.violations)


def is_acyclic(size: int, sources: Sequence[int],
               targets: Sequence[int]) -> bool:
    """True iff no cycle runs through the ``sources[k] -> targets[k]``
    edges over nodes ``0 .. size - 1``.

    Kahn's algorithm over int adjacency lists.  Both graph checks
    (coherence and global happens-before) reduce to this question, asked
    over an execution's ``cycle_size`` nodes (its program events); when
    the answer is no, the checker extracts the diagnostic cycle from the
    event-level relations.
    """
    successors: list[list[int]] = [[] for _ in range(size)]
    in_degree = [0] * size
    for src, dst in zip(sources, targets):
        successors[src].append(dst)
        in_degree[dst] += 1
    # ``ready`` doubles as the queue: iterating a list sees what is
    # appended to it, and every node enters it exactly once.
    ready = [node for node, degree in enumerate(in_degree) if not degree]
    for node in ready:
        for child in successors[node]:
            in_degree[child] -= 1
            if not in_degree[child]:
                ready.append(child)
    return len(ready) == size


def resolve_backend_name(backend: str = "auto") -> str:
    """Always ``"python"``: the checker has a single implementation.

    Kept only because ``perfbench/run.py``'s machine fingerprint imports
    it; the next benchmark change drops the fingerprint's backend entry
    and deletes this function (ROADMAP, "Layer timers and a committed
    end-to-end benchmark").
    """
    return "python"


def external_rf(execution: CandidateExecution,
                model: MemoryModel) -> Relation:
    """The rf edges that participate in *model*'s global ordering.

    Internal reads-from (same-thread, non-init source) only
    participates when the model says so (SC yes, TSO no — store
    forwarding).  The event-level twin of the rf part of
    :func:`check_edges`, walked only for diagnostics.
    """
    relation = Relation()
    for source, read in execution.rf.edges():
        internal = (source.pid == read.pid and not source.is_init)
        if internal and not model.includes_internal_rf:
            continue
        relation.add(source, read)
    return relation


def check_edges(graph: ExecutionGraph, model: MemoryModel,
                ) -> tuple[Edges, Edges]:
    """The (coherence, global happens-before) edge lists of one execution,
    over its nodes ``0 .. graph.cycle_size - 1``.

    Coherence is ``po-loc | rf | co | fr``; global happens-before is
    ``ppo | co | fr | rf`` where internal rf only counts when the model
    says so.  Both share one pass over rf, co and fr, and po-loc and
    the model's ppo come from one walk per thread.  No edge leaves a
    node at or past ``cycle_size``: in a trace-built graph those are
    the init writes, which no edge enters.
    """
    rf_source = graph.rf_source
    co_next = graph.co_next
    co_position = graph.co_position
    pid = graph.pid
    program_size = graph.program_size
    bound = graph.cycle_size
    conflict_sources: list[int] = []
    conflict_targets: list[int] = []
    for write, later in enumerate(co_next[:bound]):
        if later >= 0:
            conflict_sources.append(write)
            conflict_targets.append(later)
    rf_sources: list[int] = []
    rf_targets: list[int] = []
    external_sources: list[int] = []
    external_targets: list[int] = []
    includes_internal = model.includes_internal_rf
    for read in graph.reads:
        source = rf_source[read]
        if source < bound:
            rf_sources.append(source)
            rf_targets.append(read)
            if (includes_internal or source >= program_size
                    or pid[source] != pid[read]):
                external_sources.append(source)
                external_targets.append(read)
        if co_position[source] >= 0 and co_next[source] >= 0:
            conflict_sources.append(read)
            conflict_targets.append(co_next[source])
    ((po_loc_sources, po_loc_targets),
     (ppo_sources, ppo_targets)) = program_order_edges(
         graph, model.orders_write_read)
    return ((po_loc_sources + rf_sources + conflict_sources,
             po_loc_targets + rf_targets + conflict_targets),
            (ppo_sources + external_sources + conflict_sources,
             ppo_targets + external_targets + conflict_targets))


def atomicity_violations(execution: CandidateExecution) -> list[Violation]:
    """RMW-atomicity violations of *execution* (per-address chain walk).

    For every RMW pair (r, w): w must be coherence-ordered directly
    after the write r read from — a reversed pair or any intervening
    write breaks atomicity.  It compares chain positions rather than
    searching a graph.
    """
    graph = execution.graph
    violations = []
    address = graph.address
    co_position = graph.co_position
    for read, write in graph.rmw_pairs:
        source = graph.rf_source[read]
        if source < 0:
            continue
        location = address[read]
        source_index = co_position[source]
        write_index = co_position[write]
        if (source_index < 0 or write_index < 0
                or address[source] != location or address[write] != location):
            continue
        if write_index <= source_index:
            # The RMW's write is coherence-ordered at or before the
            # write its read observed: the pair went backwards in co,
            # which is itself an atomicity violation (the gap count
            # below would not be positive, so it needs its own check).
            violations.append(Violation(
                kind="atomicity",
                description=(f"RMW atomicity violated at {location:#x}: "
                             f"write {graph.eid(write)} is coherence-ordered "
                             f"before its read's source {graph.eid(source)}")))
            continue
        gap = write_index - source_index - 1
        if gap:
            violations.append(Violation(
                kind="atomicity",
                description=(f"RMW atomicity violated at {location:#x}: "
                             f"{gap} write(s) intervene between "
                             f"{graph.eid(source)} and {graph.eid(write)}")))
    return violations


class Checker:
    """Checks candidate executions against a memory model."""

    def __init__(self, model: MemoryModel) -> None:
        self.model = model

    # ------------------------------------------------------------------

    def check_trace(self, program: Program | list[TestThread],
                    trace: ExecutionTrace,
                    cache: VerdictCache | None = None) -> CheckResult:
        """Build the execution from a trace and check it.

        *program* is program rows or ``TestThread``s, as
        :func:`~repro.consistency.execution.execution_from_trace` takes.

        With a *cache*, the check is memoized by the exact execution
        graph (corrupted traces never touch the cache — there is no
        execution to key).
        """
        try:
            execution = execution_from_trace(program, trace)
        except ExecutionBuildError as error:
            return CheckResult(passed=False, violations=[
                Violation(kind="corruption", description=str(error))],
                trace=trace)
        if cache is None:
            return self.check(execution)
        return self.check_memoized(execution, cache)

    def check_memoized(self, execution: CandidateExecution,
                       cache: VerdictCache) -> CheckResult:
        """Check *execution*, skipping the cycle checks on a passing hit."""
        key = execution_signature(execution, self.model)
        cached = cache.lookup(key)
        if cached is not None and cached.passed:
            return CheckResult.ok(execution)
        started = time.perf_counter()
        result = self.check(execution)
        if cached is None:
            cache.store(key, CachedVerdict(passed=result.passed),
                        check_seconds=time.perf_counter() - started)
        return result

    def check(self, execution: CandidateExecution) -> CheckResult:
        graph = execution.graph
        coherence, ghb = check_edges(graph, self.model)
        violations: list[Violation] = []
        if not is_acyclic(graph.cycle_size, *coherence):
            violations.append(self._coherence_violation(execution))
        violations.extend(atomicity_violations(execution))
        if not is_acyclic(graph.cycle_size, *ghb):
            violations.append(self._global_violation(execution))
        if violations:
            return CheckResult(passed=False, violations=violations,
                               execution=execution)
        return CheckResult.ok(execution)

    # ------------------------------------------------------------------
    # Diagnostics: only a cyclic graph gets here.  The cycle is found on
    # the event-level relations, unioned in a fixed order, so the
    # reported path is deterministic.

    def _coherence_violation(self, execution: CandidateExecution) -> Violation:
        cycle = Relation.union(execution.po_loc_edges(), execution.rf,
                               execution.co, execution.fr).find_cycle()
        description = ("per-location coherence (uniproc) violated: " +
                       " -> ".join(str(node) for node in cycle))
        return Violation(kind="coherence", description=description,
                         cycle=tuple(cycle))

    def _global_violation(self, execution: CandidateExecution) -> Violation:
        cycle = Relation.union(
            self.model.preserved_program_order(execution), execution.co,
            execution.fr, external_rf(execution, self.model)).find_cycle()
        description = (f"{self.model.name} global happens-before cycle: " +
                       " -> ".join(str(node) for node in cycle))
        return Violation(kind="ghb", description=description,
                         cycle=tuple(cycle))
