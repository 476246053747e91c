"""Critical-cycle witness executions for the axiomatic checker.

A diy-generated litmus test encodes one *critical cycle*: the candidate
execution in which every program-order edge of the cycle is preserved and
every external edge (rf/co/fr) points the "interesting" way.  This module
reconstructs that witness as a concrete
:class:`repro.consistency.execution.CandidateExecution` — the exact data
structure the checker consumes — so the corpus can be run through
:class:`repro.consistency.checker.Checker` under any axiomatic model:

* every critical cycle is forbidden under SC (the checker must reject the
  witness);
* under TSO the witness is rejected iff no cycle edge is relaxed
  (``LitmusTest.forbidden_under_tso``) — tests whose cycle crosses an
  unfenced write->read pair (SB and friends) must *pass*.

``tests/test_litmus_regression.py`` pins these verdicts against golden
data for the whole corpus, guarding the consistency core (ppo
construction, fence semantics, internal-rf handling, coherence/atomicity
checks) against regressions.
"""

from __future__ import annotations

from repro.consistency.checker import CheckResult, Checker
from repro.consistency.events import (Event, init_write, read_event,
                                      write_event)
from repro.consistency.execution import CandidateExecution
from repro.consistency.models import model_by_name
from repro.litmus.diy import LitmusTest
from repro.sim.testprogram import OpKind


def _static_events(test: LitmusTest) -> tuple[dict[int, list[Event]],
                                              dict[tuple, Event]]:
    """Per-thread event skeletons (read values filled in later)."""
    program_order: dict[int, list[Event]] = {}
    event_by_eid: dict[tuple, Event] = {}
    for thread in test.chromosome.to_threads():
        events: list[Event] = []
        po_index = 0
        for op in thread.ops:
            if op.kind is OpKind.READ:
                events.append(read_event(op.op_id, thread.pid, po_index,
                                         op.address, -1))
                po_index += 1
            elif op.kind is OpKind.WRITE:
                events.append(write_event(op.op_id, thread.pid, po_index,
                                          op.address, op.value))
                po_index += 1
            elif op.kind is OpKind.RMW:
                events.append(read_event(op.op_id, thread.pid, po_index,
                                         op.address, -1, is_atomic=True))
                events.append(write_event(op.op_id, thread.pid, po_index + 1,
                                          op.address, op.value,
                                          is_atomic=True))
                po_index += 2
            else:  # pragma: no cover - litmus programs only use R/W/RMW
                raise ValueError(f"unexpected op kind {op.kind} in litmus "
                                 f"test {test.name}")
        program_order[thread.pid] = events
        for event in events:
            event_by_eid[event.eid] = event
    return program_order, event_by_eid


def _with_value(event: Event, value: int) -> Event:
    return Event(eid=event.eid, pid=event.pid, kind=event.kind,
                 address=event.address, value=value,
                 po_index=event.po_index, is_atomic=event.is_atomic)


def _ordered_writes(writes: list[Event],
                    before: list[tuple[Event, Event]]) -> list[Event]:
    """Stable topological order of same-address writes under Wse constraints.

    ``writes`` arrives in cycle order; most addresses have at most two
    writes and at most one constraint, so a simple Kahn walk with the
    incoming order as the tie-break is plenty.
    """
    remaining = list(writes)
    ordered: list[Event] = []
    while remaining:
        for candidate in remaining:
            if not any(successor is candidate and predecessor in remaining
                       for predecessor, successor in before):
                ordered.append(candidate)
                remaining.remove(candidate)
                break
        else:  # pragma: no cover - corpus cycles never contradict
            raise ValueError("contradictory write-serialisation constraints")
    return ordered


def cycle_witness_execution(test: LitmusTest) -> CandidateExecution:
    """The candidate execution observing *test*'s critical cycle.

    Event ``i`` of the cycle is the source of ``test.cycle[i]`` (and the
    destination of edge ``i-1``, wrapping).  External edges fix the
    conflict relations: ``Rfe`` edges become rf (the destination read
    observes the source write), ``Wse`` edges become co constraints, and
    ``Fre`` sources read the initial value so they are from-read-ordered
    before every write at their address.  Fence RMWs (not cycle events)
    are serialised on their scratch location in program order, each
    reading its co-predecessor, so atomicity holds trivially.
    """
    if not test.cycle_op_ids:
        raise ValueError(f"litmus test {test.name} carries no cycle event "
                         "mapping (regenerate it with the current diy "
                         "module)")
    program_order, event_by_eid = _static_events(test)
    edges = list(test.cycle)

    def cycle_event(position: int) -> Event:
        edge = edges[position]
        return event_by_eid[(test.cycle_op_ids[position], edge.src_type)]

    # rf targets and co constraints prescribed by the external edges.
    rf_source_for: dict[tuple, Event] = {}
    co_before: list[tuple[Event, Event]] = []
    for position, edge in enumerate(edges):
        destination = (position + 1) % len(edges)
        if edge.name == "Rfe":
            dst_edge = edges[destination]
            dst = event_by_eid[(test.cycle_op_ids[destination],
                               dst_edge.src_type)]
            rf_source_for[dst.eid] = cycle_event(position)
        elif edge.name == "Wse":
            dst_edge = edges[destination]
            dst = event_by_eid[(test.cycle_op_ids[destination],
                               dst_edge.src_type)]
            co_before.append((cycle_event(position), dst))

    # Fence RMWs: serialise on the scratch address in (pid, po) order.
    rmw_writes = [event for events in program_order.values()
                  for event in events if event.is_write and event.is_atomic]
    rmw_writes.sort(key=lambda event: (event.pid, event.po_index))
    previous_value = 0
    for write in rmw_writes:
        rf_source_for[(write.eid[0], "R")] = ("scratch", previous_value)
        previous_value = write.value

    execution = CandidateExecution()
    init_writes: dict[int, Event] = {}

    def init_for(address: int) -> Event:
        return init_writes.setdefault(address, init_write(address))

    # Fill in read values (rf determines what each read observed).
    events: list[Event] = []
    for pid, thread_events in program_order.items():
        refreshed: list[Event] = []
        for event in thread_events:
            if event.is_read:
                source = rf_source_for.get(event.eid)
                if isinstance(source, Event):
                    event = _with_value(event, source.value)
                elif isinstance(source, tuple):      # scratch RMW read
                    event = _with_value(event, source[1])
                else:                                # Fre source: reads init
                    event = _with_value(event, 0)
            refreshed.append(event)
            events.append(event)
        program_order[pid] = refreshed
    execution.events = events
    execution.program_order = program_order
    event_by_eid = {event.eid: event for event in events}

    # rf / rf_sources.
    for event in events:
        if not event.is_read:
            continue
        source = rf_source_for.get(event.eid)
        if isinstance(source, Event):
            source = event_by_eid[source.eid]
        elif isinstance(source, tuple):
            source = (init_for(event.address) if source[1] == 0 else
                      next(write for write in rmw_writes
                           if write.value == source[1]))
            source = event_by_eid.get(source.eid, source)
        else:
            source = init_for(event.address)
        execution.rf.add(source, event)
        execution.rf_sources[event] = source

    # Coherence chains: init first, then the (Wse-constrained) writes.
    writes_by_address: dict[int, list[Event]] = {}
    cycle_order = {test.cycle_op_ids[i]: i for i in range(len(edges))}
    all_writes = [event for event in events if event.is_write]
    all_writes.sort(key=lambda event: (
        cycle_order.get(event.eid[0], len(edges)), event.pid, event.po_index))
    for write in all_writes:
        writes_by_address.setdefault(write.address, []).append(write)
    for address in sorted({event.address for event in events}):
        chain = [init_for(address)]
        chain.extend(_ordered_writes(writes_by_address.get(address, []),
                                     co_before))
        execution.co_chains[address] = chain
        for first, second in zip(chain, chain[1:]):
            execution.co.add(first, second)

    # Derived from-reads: each read precedes every write newer than its
    # rf source.
    for read, source in execution.rf_sources.items():
        chain = execution.co_chains.get(read.address, [])
        if source in chain:
            for write in chain[chain.index(source) + 1:]:
                execution.fr.add(read, write)
    return execution


def check_witness(test: LitmusTest, model_name: str) -> CheckResult:
    """Run the critical-cycle witness through the axiomatic checker."""
    return Checker(model_by_name(model_name)).check(
        cycle_witness_execution(test))


def cycle_verdict(test: LitmusTest, model_name: str) -> str:
    """``"allowed"`` or ``"forbidden"``: the model's verdict on the cycle."""
    return ("allowed" if check_witness(test, model_name).passed
            else "forbidden")
