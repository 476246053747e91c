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
  checker reproduces every pinned verdict.
"""

import json
import random
from pathlib import Path

import pytest

from repro.consistency.checker import (Checker, atomicity_violations,
                                       external_rf, is_acyclic)
from repro.consistency.execution import execution_from_trace
from repro.consistency.models import model_by_name
from repro.consistency.relations import Relation
from repro.litmus.corpus import corpus_names, litmus_by_name
from repro.litmus.witness import cycle_verdict
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
