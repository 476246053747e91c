"""The integer form of candidate executions and its event-level view.

A trace-built execution is born as an :class:`ExecutionGraph` and
materialises its events and relations only when asked.  These tests pin
that the materialised fields equal what an eager, event-by-event build
produces *including insertion order* (relation walks, and with them the
reported violation cycles, depend on it), and that a hand-built litmus
witness derives the same integer form as a trace-built execution of the
same graph.
"""

import pytest
from test_consistency_golden import _random_trace as random_trace
from test_sim_golden import CASES as SIM_CASES
from test_sim_golden import _system_and_threads

from repro.consistency.events import (Event, init_write, read_event,
                                      write_event)
from repro.consistency.execution import (ExecutionBuildError, ExecutionGraph,
                                         execution_from_trace)
from repro.consistency.relations import Relation
from repro.litmus.corpus import corpus_names, litmus_by_name
from repro.litmus.witness import cycle_witness_execution
from repro.sim.testprogram import OpKind
from repro.sim.trace import ExecutionTrace

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")


def eager_reference(threads, trace) -> dict:
    """Event-level fields built eagerly, one event and edge at a time.

    The straightforward construction: per-thread events in program
    order, rf by read, co by observed overwrite (writes, then RMWs),
    chains from each address's init write, fr to the next write in the
    chain.  Only valid traces are passed in.
    """
    program_order: dict[int, list[Event]] = {}
    write_by_value: dict[int, Event] = {}
    observed = {record.op_id: record.value for record in trace.reads}
    observed.update((record.op_id, record.read_value)
                    for record in trace.rmws)
    for thread in threads:
        events = []
        for op in thread.ops:
            position = len(events)
            if op.kind in (OpKind.READ, OpKind.READ_ADDR_DP):
                events.append(read_event(op.op_id, thread.pid, position,
                                         op.address, observed[op.op_id]))
            elif op.kind is OpKind.WRITE:
                events.append(write_event(op.op_id, thread.pid, position,
                                          op.address, op.value))
            elif op.kind is OpKind.RMW:
                events.append(read_event(op.op_id, thread.pid, position,
                                         op.address, observed[op.op_id],
                                         is_atomic=True))
                events.append(write_event(op.op_id, thread.pid, position + 1,
                                          op.address, op.value,
                                          is_atomic=True))
        program_order[thread.pid] = events
        for event in events:
            if event.is_write:
                write_by_value[event.value] = event
    events = [event for thread in program_order.values() for event in thread]
    by_eid = {event.eid: event for event in events}
    inits: dict[int, Event] = {}

    def source(address, value):
        if value == 0:
            return inits.setdefault(address, init_write(address))
        return write_by_value[value]

    rf, rf_sources = Relation(), {}
    for event in events:
        if event.is_read:
            rf.add(source(event.address, event.value), event)
            rf_sources[event] = source(event.address, event.value)
    co, successor = Relation(), {}
    for record in [*trace.writes, *trace.rmws]:
        previous = source(record.address, record.overwritten)
        successor[previous] = by_eid[(record.op_id, "W")]
        co.add(previous, successor[previous])
    co_chains = {}
    for address in sorted({event.address for event in events}):
        chain = [inits.setdefault(address, init_write(address))]
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
        co_chains[address] = chain
    fr = Relation()
    for read, write in rf_sources.items():
        chain = co_chains[read.address]
        if chain.index(write) + 1 < len(chain):
            fr.add(read, chain[chain.index(write) + 1])
    return {"events": events, "program_order": program_order, "rf": rf,
            "co": co, "fr": fr, "rf_sources": rf_sources,
            "co_chains": co_chains}


def ordered(value):
    """A comparable view that keeps every insertion order."""
    if isinstance(value, Relation):
        return [(src, set(value.successors(src))) for src in
                dict.fromkeys(src for src, _ in value.edges())]
    if isinstance(value, dict):
        return list(value.items())
    return value


def sim_traces():
    for case in SIM_CASES[::3]:
        system, threads = _system_and_threads(case)
        yield threads, system.run_iteration(threads,
                                            case["iteration_seed"]).trace


FIELDS = ("events", "program_order", "rf", "co", "fr", "rf_sources",
          "co_chains")


class TestMaterialisation:
    def test_lazy_fields_equal_eager_build_in_order(self):
        checked = 0
        inputs = [random_trace(seed) for seed in range(30)]
        for threads, trace in [*inputs, *sim_traces()]:
            try:
                execution = execution_from_trace(threads, trace)
            except ExecutionBuildError:
                continue
            expected = eager_reference(threads, trace)
            for name in FIELDS:
                assert ordered(getattr(execution, name)) == ordered(
                    expected[name]), name
            checked += 1
        assert checked >= 40

    def test_fields_are_built_only_on_first_access(self):
        execution = execution_from_trace(*random_trace(1))
        assert execution._rf is None
        assert execution.conflict_edges()
        assert execution._rf is None
        assert execution.rf is execution.rf

    def test_conflict_edges_are_rf_and_co_eids(self):
        for seed in range(10):
            execution = execution_from_trace(*random_trace(seed))
            expected = {(src.eid, dst.eid)
                        for relation in (execution.rf, execution.co)
                        for src, dst in relation.edges()}
            assert execution.conflict_edges() == expected


def trace_of(execution) -> ExecutionTrace:
    """The trace an execution's rf and co chains would be observed as."""
    predecessor = {}
    for chain in execution.co_chains.values():
        for first, second in zip(chain, chain[1:]):
            predecessor[second] = first
    source = execution.rf_sources
    trace = ExecutionTrace()
    for events in execution.program_order.values():
        for event in events:
            op_id = event.eid[0]
            if event.is_read and not event.is_atomic:
                trace.record_read(op_id, event.pid, event.address,
                                  source[event].value)
            elif event.is_write and event.is_atomic:
                read = next(other for other in events
                            if other.eid == (op_id, "R"))
                trace.record_rmw(op_id, event.pid, event.address,
                                 source[read].value, event.value,
                                 predecessor[event].value)
            elif event.is_write:
                trace.record_write(op_id, event.pid, event.address,
                                   event.value, predecessor[event].value)
    return trace


class TestSharedIntegerForm:
    @pytest.mark.parametrize("name", corpus_names())
    def test_witness_and_trace_build_give_the_same_graph(self, name):
        test = litmus_by_name(name)
        witness = cycle_witness_execution(test)
        built = execution_from_trace(test.chromosome.to_threads(),
                                     trace_of(witness))
        assert isinstance(witness.graph, ExecutionGraph)
        assert built.graph == witness.graph

    def test_graph_ignores_the_order_writes_were_observed_in(self):
        threads, trace = random_trace(4)
        shuffled = ExecutionTrace(reads=list(trace.reads),
                                  writes=trace.writes[::-1],
                                  rmws=trace.rmws[::-1])
        assert (execution_from_trace(threads, shuffled).graph
                == execution_from_trace(threads, trace).graph)

    def test_numbering_is_thread_major_then_inits_by_address(self):
        threads, trace = random_trace(2)
        graph = execution_from_trace(threads, trace).graph
        assert [graph.pid[node] for ids in graph.threads
                for node in ids] == graph.pid[:graph.program_size]
        assert graph.pid[:graph.program_size] == sorted(
            graph.pid[:graph.program_size])
        inits = graph.address[graph.program_size:]
        assert inits == sorted(set(graph.address[:graph.program_size]))
        for address, chain in graph.co_chains.items():
            assert chain[0] == graph.init_id[address]
            assert [graph.co_position[node] for node in chain] == list(
                range(len(chain)))
