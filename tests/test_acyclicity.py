"""The checker's acyclicity kernel against the sparse relation code.

Property-based (seeded ``random.Random``) checks of
:func:`~repro.consistency.checker.is_acyclic`, the Kahn pass both graph
checks run on the integer form of an execution:

* a table of small hand-drawn graphs with known answers;
* random digraphs: its answer agrees with ``Relation.is_acyclic`` and
  with ``Relation.find_cycle`` existence, with isolated nodes, duplicate
  edges and self-loops in the input;
* random candidate executions (including RMWs and deliberately stale
  reads that violate coherence): ``Checker.check`` reports exactly the
  violation kinds that the event-level ``Relation`` unions predict;
* the golden litmus corpus (``tests/data/litmus_verdicts.json``): the
  checker reproduces every pinned verdict;
* program events only: ``Checker.check`` leaves init writes out of both
  cycle checks, and its two cycle answers equal those of a full-graph
  reference (the checker's former edge lists over every node, init
  writes included, kept here) on the consistency golden, the litmus
  witnesses, seeded GP runs on MESI and TSO-CC, random executions and
  hand-built executions that point rf or co into an init write.
"""

import json
import random
from pathlib import Path

import pytest
from test_consistency_golden import CASES as GOLDEN_CASES
from test_consistency_golden import _inputs

from repro.consistency.checker import (Checker, atomicity_violations,
                                       external_rf, is_acyclic)
from repro.consistency.events import init_write, read_event, write_event
from repro.consistency.execution import (CandidateExecution,
                                         ExecutionBuildError,
                                         execution_from_trace)
from repro.consistency.models import model_by_name
from repro.consistency.relations import Relation
from repro.core.campaign import Campaign, GeneratorKind
from repro.core.config import GeneratorConfig
from repro.litmus.corpus import corpus_names, litmus_by_name
from repro.litmus.witness import cycle_verdict, cycle_witness_execution
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "litmus_verdicts.json").read_text())


def random_digraph(rng: random.Random, nodes: int,
                   edge_probability: float) -> list[tuple[int, int]]:
    return [(src, dst)
            for src in range(nodes) for dst in range(nodes)
            if src != dst and rng.random() < edge_probability]


def _is_acyclic(nodes: int, edges: list[tuple[int, int]]) -> bool:
    return is_acyclic(nodes, [src for src, _ in edges],
                      [dst for _, dst in edges])


def random_execution(rng: random.Random, n_threads: int = 3,
                     ops_per_thread: int = 8,
                     stale_read_probability: float = 0.0,
                     rmw_probability: float = 0.15):
    """A random candidate execution from an SC interleaving.

    With ``stale_read_probability`` > 0 some reads observe an *older*
    write to their address instead of the latest one: still a buildable
    execution (the value exists), but one that can violate coherence
    and global happens-before, exercising the checker's failure paths.
    """
    addresses = [0x1000 * (slot + 1) for slot in range(4)]
    memory = {address: 0 for address in addresses}
    history: dict[int, list[int]] = {address: [0] for address in addresses}
    next_value = 1
    op_id = 0
    threads = []
    for pid in range(n_threads):
        ops = []
        for _ in range(ops_per_thread):
            address = rng.choice(addresses)
            roll = rng.random()
            if roll < rmw_probability:
                ops.append(TestOp(op_id, OpKind.RMW, address, next_value))
                next_value += 1
            elif roll < 0.55:
                ops.append(TestOp(op_id, OpKind.WRITE, address, next_value))
                next_value += 1
            else:
                ops.append(TestOp(op_id, OpKind.READ, address))
            op_id += 1
        threads.append(TestThread(pid, tuple(ops)))
    trace = ExecutionTrace()
    cursors = [0] * n_threads
    while True:
        live = [pid for pid in range(n_threads)
                if cursors[pid] < ops_per_thread]
        if not live:
            break
        pid = rng.choice(live)
        op = threads[pid].ops[cursors[pid]]
        cursors[pid] += 1
        if op.kind is OpKind.WRITE:
            trace.record_write(op.op_id, pid, op.address, op.value,
                               memory[op.address])
            memory[op.address] = op.value
            history[op.address].append(op.value)
        elif op.kind is OpKind.RMW:
            trace.record_rmw(op.op_id, pid, op.address, memory[op.address],
                             op.value, memory[op.address])
            memory[op.address] = op.value
            history[op.address].append(op.value)
        else:
            value = memory[op.address]
            if rng.random() < stale_read_probability:
                value = rng.choice(history[op.address])
            trace.record_read(op.op_id, pid, op.address, value)
    return execution_from_trace(threads, trace)


#: ``(name, size, edges, acyclic)``: small graphs with known answers.
KNOWN_GRAPHS = [
    ("empty", 0, [], True),
    ("isolated-nodes", 4, [], True),
    ("self-loop", 1, [(0, 0)], False),
    ("two-cycle", 2, [(0, 1), (1, 0)], False),
    ("chain", 4, [(0, 1), (1, 2), (2, 3)], True),
    ("triangle", 3, [(0, 1), (1, 2), (2, 0)], False),
    ("diamond", 4, [(0, 1), (0, 2), (1, 3), (2, 3)], True),
    ("duplicate-edges", 3, [(0, 1), (0, 1), (1, 2), (1, 2)], True),
    ("duplicate-back-edge", 2, [(0, 1), (1, 0), (1, 0)], False),
    ("cycle-in-second-component", 5,
     [(0, 1), (2, 3), (3, 4), (4, 2)], False),
    ("cycle-behind-a-source", 4, [(0, 1), (1, 2), (2, 3), (3, 1)], False),
    ("tail-out-of-a-cycle", 4, [(0, 1), (1, 0), (1, 2), (2, 3)], False),
]


@pytest.mark.parametrize("size, edges, expected",
                         [case[1:] for case in KNOWN_GRAPHS],
                         ids=[case[0] for case in KNOWN_GRAPHS])
def test_known_graph(size, edges, expected):
    assert _is_acyclic(size, edges) is expected


class TestRandomDigraphs:
    def test_acyclicity_agrees_with_sparse_relation(self):
        rng = random.Random(0xD16)
        acyclic_seen = cyclic_seen = 0
        for _ in range(120):
            nodes = rng.randint(2, 40)
            edges = random_digraph(rng, nodes, rng.uniform(0.01, 0.25))
            expected = Relation(edges).is_acyclic()
            assert _is_acyclic(nodes, edges) == expected, edges
            acyclic_seen += expected
            cyclic_seen += not expected
        # The sweep must actually exercise both answers.
        assert acyclic_seen and cyclic_seen

    def test_find_cycle_existence_agrees(self):
        rng = random.Random(0xF1D0)
        for _ in range(60):
            nodes = rng.randint(2, 30)
            edges = random_digraph(rng, nodes, rng.uniform(0.02, 0.3))
            # Isolated nodes, duplicate edges and self-loops are all
            # legal input.
            edges += rng.sample(edges, min(len(edges), 3))
            if rng.random() < 0.2:
                loop = rng.randrange(nodes)
                edges.append((loop, loop))
            has_cycle = Relation(edges).find_cycle() is not None
            assert _is_acyclic(nodes, edges) is not has_cycle, edges


@pytest.mark.parametrize("model_name", ["SC", "TSO"])
def test_checker_violation_kinds_match_relation_reference(model_name):
    """The integer-form checks agree with the event-level relations.

    Coherence is ``acyclic(po-loc | rf | co | fr)`` and global
    happens-before ``acyclic(ppo | co | fr | external rf)``, computed
    here on the sparse ``Relation`` objects instead of the checker's
    int edge lists.
    """
    model = model_by_name(model_name)
    checker = Checker(model)
    rng = random.Random(0xE4EC)
    kinds_seen: set[str] = set()
    passed_seen = 0
    for round_index in range(60):
        execution = random_execution(
            rng, stale_read_probability=(0.0 if round_index < 20 else 0.3))
        coherent = Relation.union(execution.po_loc_edges(), execution.rf,
                                  execution.co, execution.fr).is_acyclic()
        ordered = Relation.union(
            model.preserved_program_order(execution), execution.co,
            execution.fr, external_rf(execution, model)).is_acyclic()
        expected = ((["coherence"] if not coherent else [])
                    + [violation.kind for violation
                       in atomicity_violations(execution)]
                    + (["ghb"] if not ordered else []))
        result = checker.check(execution)
        assert [violation.kind for violation in result.violations] \
            == expected, round_index
        assert result.passed == (not expected)
        passed_seen += result.passed
        kinds_seen.update(expected)
    # The sweep must exercise passing executions and both graph checks.
    assert passed_seen and {"coherence", "ghb"} <= kinds_seen


@pytest.mark.parametrize("model", ["SC", "TSO"])
def test_golden_litmus_verdicts(model):
    """The checker reproduces every pinned litmus verdict."""
    for name in corpus_names():
        verdict = cycle_verdict(litmus_by_name(name), model)
        assert verdict == GOLDEN[name][model], name


# ----------------------------------------------------------------------
# Program events only, against a full-graph reference

MODELS = ("SC", "TSO")
X, Y = 0x1000, 0x2000


def _reference_po_loc(graph) -> tuple[list[int], list[int]]:
    sources, targets = [], []
    for ids in graph.threads:
        last: dict[int, int] = {}
        for node in ids:
            previous = last.get(graph.address[node])
            if previous is not None:
                sources.append(previous)
                targets.append(node)
            last[graph.address[node]] = node
    return sources, targets


def _reference_ppo(graph, model_name: str) -> tuple[list[int], list[int]]:
    sources, targets = [], []
    is_read, is_atomic = graph.is_read, graph.is_atomic
    for ids in graph.threads:
        if model_name == "SC":
            sources += ids[:-1]
            targets += ids[1:]
            continue
        for node in ids[:-1]:
            if (is_read[node] or not is_read[node + 1]
                    or is_atomic[node] or is_atomic[node + 1]):
                sources.append(node)
                targets.append(node + 1)
        for same_kind in ([node for node in ids if is_read[node]],
                          [node for node in ids if not is_read[node]]):
            sources += same_kind[:-1]
            targets += same_kind[1:]
    return sources, targets


def full_graph_answers(execution, model_name: str) -> tuple[bool, bool]:
    """(coherent, ordered) from edge lists over every node of the graph,
    init writes included, as the checker built them before it left init
    writes out."""
    graph = execution.graph
    model = model_by_name(model_name)
    co_next, rf_source = graph.co_next, graph.rf_source
    conflict = [(write, later) for write, later in enumerate(co_next)
                if later >= 0]
    rf, external = [], []
    for read in graph.reads:
        source = rf_source[read]
        rf.append((source, read))
        if (model.includes_internal_rf or source >= graph.program_size
                or graph.pid[source] != graph.pid[read]):
            external.append((source, read))
        if graph.co_position[source] >= 0 and co_next[source] >= 0:
            conflict.append((read, co_next[source]))
    po_loc = list(zip(*_reference_po_loc(graph)))
    ppo = list(zip(*_reference_ppo(graph, model_name)))
    return (_is_acyclic(graph.size, po_loc + rf + conflict),
            _is_acyclic(graph.size, ppo + external + conflict))


def checker_answers(execution, model_name: str) -> tuple[bool, bool]:
    kinds = {violation.kind for violation
             in Checker(model_by_name(model_name)).check(execution).violations}
    return "coherence" not in kinds, "ghb" not in kinds


def assert_program_node_checks(executions) -> set[tuple[bool, bool]]:
    """Both answers agree with the reference for every execution and
    model; returns the answers seen."""
    seen = set()
    for label, execution in executions:
        for model_name in MODELS:
            answers = checker_answers(execution, model_name)
            assert answers == full_graph_answers(execution, model_name), \
                (label, model_name)
            seen.add(answers)
    return seen


def test_no_edge_enters_an_init_write_of_a_trace_built_graph():
    """Every read has a source and every co successor (so every fr
    target) is a program write, so the checks range over the program
    events alone."""
    rng = random.Random(7)
    for index in range(40):
        graph = random_execution(
            rng, stale_read_probability=0.3 if index % 2 else 0.0).graph
        assert graph.cycle_size == graph.program_size < graph.size
        assert all(graph.rf_source[read] >= 0 for read in graph.reads)
        assert all(later < graph.program_size for later in graph.co_next)


def _golden_executions():
    for case in GOLDEN_CASES:
        threads, trace, execution = _inputs(case)
        if execution is None:
            try:
                execution = execution_from_trace(threads, trace)
            except ExecutionBuildError:
                continue
        yield case["id"], execution


def test_consistency_golden_executions():
    seen = assert_program_node_checks(_golden_executions())
    assert {(True, True), (True, False), (False, False)} <= seen


def test_litmus_corpus():
    """The critical-cycle witnesses and one simulated run of each test."""
    seen = assert_program_node_checks(
        (name, cycle_witness_execution(litmus_by_name(name)))
        for name in corpus_names())
    assert (True, False) in seen and (True, True) in seen
    system = System(SystemConfig())
    simulated = []
    for name in corpus_names():
        threads = litmus_by_name(name).chromosome.to_threads()
        trace = system.run_iteration(threads, 3).trace
        simulated.append((name, execution_from_trace(threads, trace)))
    assert assert_program_node_checks(simulated) == {(True, True)}


@pytest.mark.parametrize("protocol", ["MESI", "TSO_CC"])
def test_seeded_gp_runs(protocol):
    captured = []
    config = GeneratorConfig.quick(test_size=48, iterations=2,
                                   population_size=4)
    for seed in range(2):
        Campaign(GeneratorKind.MCVERSI_ALL, config,
                 SystemConfig().with_protocol(protocol), seed=seed,
                 trace_sink=lambda threads, trace: captured.append(
                     (threads, trace))).run(6)
    assert len(captured) >= 12
    assert_program_node_checks(
        (index, execution_from_trace(threads, trace))
        for index, (threads, trace) in enumerate(captured))


def test_random_executions_cyclic_ones_included():
    rng = random.Random(0x1D17)
    seen = assert_program_node_checks(
        (index, random_execution(
            rng, stale_read_probability=0.0 if index < 20 else 0.3))
        for index in range(120))
    assert (True, True) in seen and (False, False) in seen
    assert (True, False) in seen


def _hand_built(events_by_pid, rf=(), co=(), fr=(), chains=None):
    events = [event for thread in events_by_pid.values() for event in thread]
    return CandidateExecution(
        events=events, program_order=events_by_pid,
        rf=Relation(rf), co=Relation(co), fr=Relation(fr),
        rf_sources={read: source for source, read in rf},
        co_chains=chains or {})


def _into_init_executions():
    """Hand-built executions whose rf or co points into an init write:
    no trace builds these."""
    init_x, init_y = init_write(X), init_write(Y)
    w1 = write_event(1, 0, 0, X, 1)
    r2 = read_event(2, 0, 0, X, 0)
    w3 = write_event(3, 0, 1, X, 3)
    r4 = read_event(4, 1, 0, Y, 0)
    yield "co-cycle-through-init", _hand_built(
        {0: [w1]}, co=[(init_x, w1), (w1, init_x)],
        chains={X: [init_x, w1]})
    yield "co-into-init-no-cycle", _hand_built(
        {0: [w1]}, co=[(w1, init_x)], chains={X: [init_x]})
    yield "rf-into-init", _hand_built(
        {0: [w1]}, rf=[(w1, init_x)], co=[(init_x, w1)],
        chains={X: [init_x, w1]})
    # r2 reads the init write, w3 follows it in po-loc and is coherence-
    # ordered before the init write: a cycle only through init_x.
    yield "po-loc-co-rf-through-init", _hand_built(
        {0: [r2, w3]}, rf=[(init_x, r2)], co=[(w3, init_x)],
        chains={X: [init_x]})
    yield "fr-into-init", _hand_built(
        {0: [r2, w3]}, rf=[(w3, r2)], co=[(init_x, w3), (w3, init_x)],
        fr=[(r2, init_x)], chains={X: [init_x, w3]})
    yield "co-into-other-address-init", _hand_built(
        {0: [w3], 1: [r4]}, rf=[(init_y, r4)],
        co=[(init_x, w3), (w3, init_y)], chains={X: [init_x, w3]})


def test_hand_built_executions_pointing_into_init_writes():
    executions = list(_into_init_executions())
    assert all(execution.graph.cycle_size == execution.graph.size
               for _, execution in executions)
    seen = assert_program_node_checks(executions)
    assert (False, False) in seen and (True, True) in seen


def test_hand_built_read_without_source_is_refused():
    """A read with no rf source would be checked as reading node -1."""
    init_x, init_y = init_write(X), init_write(Y)
    r2 = read_event(2, 0, 0, X, 0)
    w3 = write_event(3, 0, 1, X, 3)
    r4 = read_event(4, 1, 0, Y, 0)
    execution = _hand_built(
        {0: [r2, w3], 1: [r4]}, rf=[(init_x, r2)], co=[(init_x, w3)],
        fr=[(r2, w3)], chains={X: [init_x, w3], Y: [init_y]})
    with pytest.raises(ValueError, match=r"read .* has no rf source"):
        execution.graph
