"""Equivalence battery for the vectorized matrix checker kernel.

Property-based (seeded ``random.Random``) equivalence between
:class:`~repro.consistency.matrix.MatrixBackend` and the pure-python
:class:`~repro.consistency.checker.PythonBackend`:

* random digraphs: ``is_acyclic``, ``find_cycle``-existence, transitive
  closure and cycle-node sets agree with the sparse ``Relation`` code;
* random candidate executions (including RMWs and deliberately stale
  reads that violate coherence): full ``Checker.check`` verdicts *and*
  violation summaries agree backend-for-backend, and
  :func:`~repro.consistency.matrix.batch_check_executions` agrees with
  the per-execution python loop;
* the golden litmus corpus (``tests/data/litmus_verdicts.json``): both
  backends reproduce every pinned verdict.

Everything needing numpy skips cleanly without it — the module itself
must import on the no-numpy CI job.
"""

import json
import random
from pathlib import Path

import pytest

from repro.consistency.checker import (BACKENDS, Checker, CheckerBackend,
                                       PythonBackend, resolve_backend,
                                       resolve_backend_name)
from repro.consistency.execution import execution_from_trace
from repro.consistency.matrix import HAVE_NUMPY
from repro.consistency.models import model_by_name
from repro.consistency.relations import Relation
from repro.litmus.corpus import corpus_names, litmus_by_name
from repro.litmus.witness import cycle_verdict
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed")

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "litmus_verdicts.json").read_text())

CHECKER_BACKENDS = ("python", "matrix") if HAVE_NUMPY else ("python",)


def random_digraph(rng: random.Random, nodes: int,
                   edge_probability: float) -> list[tuple[int, int]]:
    return [(src, dst)
            for src in range(nodes) for dst in range(nodes)
            if src != dst and rng.random() < edge_probability]


def random_execution(rng: random.Random, n_threads: int = 3,
                     ops_per_thread: int = 8,
                     stale_read_probability: float = 0.0,
                     rmw_probability: float = 0.15):
    """A random candidate execution from an SC interleaving.

    With ``stale_read_probability`` > 0 some reads observe an *older*
    write to their address instead of the latest one — still a
    buildable execution (the value exists), but one that can violate
    coherence/ghb, exercising the backends' failure paths too.
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


class TestBackendResolution:
    def test_python_always_resolves(self):
        backend = resolve_backend("python")
        assert isinstance(backend, PythonBackend)
        assert backend.name == "python"
        assert isinstance(backend, CheckerBackend)

    def test_auto_resolves_to_an_available_backend(self):
        # The python backend is the faster one per execution, with or
        # without numpy installed.
        assert resolve_backend_name("auto") == "python"

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="bitset"):
            resolve_backend("bitset")

    def test_backend_instance_passes_through(self):
        backend = PythonBackend()
        assert resolve_backend(backend) is backend

    def test_selector_constants(self):
        assert BACKENDS == ("auto", "python", "matrix")

    def test_checker_reports_backend_name(self):
        checker = Checker(model_by_name("TSO"), backend="python")
        assert checker.backend_name == "python"

    @needs_numpy
    def test_matrix_resolves_with_numpy(self):
        assert resolve_backend_name("matrix") == "matrix"


@needs_numpy
class TestRandomDigraphEquivalence:
    def test_acyclicity_agrees_with_sparse_relation(self):
        from repro.consistency.matrix import MatrixRelation

        rng = random.Random(0xD16)
        acyclic_seen = cyclic_seen = 0
        for _ in range(120):
            nodes = rng.randint(2, 40)
            edges = random_digraph(rng, nodes, rng.uniform(0.01, 0.25))
            sparse = Relation(edges)
            sources = [src for src, _ in edges]
            targets = [dst for _, dst in edges]
            dense = MatrixRelation.from_edges(nodes, sources, targets)
            expected = sparse.is_acyclic()
            assert dense.is_acyclic() == expected, edges
            assert PythonBackend().is_acyclic(nodes, sources,
                                              targets) == expected, edges
            closure_diag = dense.cycle_nodes()
            assert bool(closure_diag) == (not expected), edges
            acyclic_seen += expected
            cyclic_seen += not expected
        # The sweep must actually exercise both answers.
        assert acyclic_seen and cyclic_seen

    def test_find_cycle_existence_agrees(self):
        from repro.consistency.matrix import MatrixBackend

        rng = random.Random(0xF1D0)
        backends = (MatrixBackend(), PythonBackend())
        for _ in range(60):
            nodes = rng.randint(2, 30)
            edges = random_digraph(rng, nodes, rng.uniform(0.02, 0.3))
            # Isolated nodes, duplicate edges and self-loops are all
            # legal input to a backend.
            edges += rng.sample(edges, min(len(edges), 3))
            if rng.random() < 0.2:
                loop = rng.randrange(nodes)
                edges.append((loop, loop))
            has_cycle = Relation(edges).find_cycle() is not None
            for backend in backends:
                assert backend.is_acyclic(
                    nodes, [src for src, _ in edges],
                    [dst for _, dst in edges]) is not has_cycle, (
                    backend.name, edges)

    def test_transitive_closure_matches_sparse_closure(self):
        from repro.consistency.matrix import MatrixRelation

        rng = random.Random(0xC105)
        # One graph wider than CLOSURE_BLOCK so the blocked Warshall
        # crosses block boundaries; the rest small and varied.
        sizes = [150, *(rng.randint(2, 60) for _ in range(20))]
        for nodes in sizes:
            edges = random_digraph(rng, nodes, 2.0 / max(nodes, 1))
            sparse_closure = Relation(edges).transitive_closure()
            dense_closure = MatrixRelation.from_edges(
                nodes, [src for src, _ in edges],
                [dst for _, dst in edges]).transitive_closure()
            expected = {(src, dst) for src, dst in sparse_closure.edges()}
            import numpy as np

            found = {(int(src), int(dst))
                     for src, dst in zip(*np.nonzero(dense_closure.adjacency))}
            assert found == expected

    def test_cycle_nodes_are_the_mutually_reachable_nodes(self):
        from repro.consistency.matrix import MatrixRelation

        rng = random.Random(0xCE11)
        for _ in range(30):
            nodes = rng.randint(2, 40)
            edges = random_digraph(rng, nodes, rng.uniform(0.03, 0.2))
            closure = Relation(edges).transitive_closure()
            expected = {node for node in range(nodes)
                        if (node, node) in closure}
            dense = MatrixRelation.from_edges(
                nodes, [src for src, _ in edges], [dst for _, dst in edges])
            assert set(dense.cycle_nodes()) == expected

    def test_batch_is_acyclic_matches_per_graph_answers(self):
        import numpy as np

        from repro.consistency.matrix import MatrixRelation, batch_is_acyclic

        rng = random.Random(0xBA7C)
        nodes = 24
        graphs = [random_digraph(rng, nodes, rng.uniform(0.01, 0.25))
                  for _ in range(40)]
        stack = np.zeros((len(graphs), nodes, nodes), dtype=bool)
        expected = []
        for row, edges in enumerate(graphs):
            dense = MatrixRelation.from_edges(
                nodes, [src for src, _ in edges], [dst for _, dst in edges])
            stack[row] = dense.adjacency
            expected.append(dense.is_acyclic())
        assert list(batch_is_acyclic(stack)) == expected
        assert expected.count(True) and expected.count(False)


@needs_numpy
class TestRandomExecutionEquivalence:
    @pytest.mark.parametrize("model_name", ["SC", "TSO"])
    def test_checker_verdicts_and_violations_agree(self, model_name):
        model = model_by_name(model_name)
        python_checker = Checker(model, backend="python")
        matrix_checker = Checker(model, backend="matrix")
        rng = random.Random(0xE4EC)
        passed_seen = failed_seen = 0
        for round_index in range(60):
            execution = random_execution(
                rng, stale_read_probability=(0.0 if round_index < 20
                                             else 0.3))
            python_result = python_checker.check(execution)
            matrix_result = matrix_checker.check(execution)
            assert matrix_result.passed == python_result.passed
            assert (matrix_result.violations_summary()
                    == python_result.violations_summary())
            assert python_result.backend == "python"
            assert matrix_result.backend == "matrix"
            passed_seen += python_result.passed
            failed_seen += not python_result.passed
        assert passed_seen and failed_seen

    @pytest.mark.parametrize("model_name", ["SC", "TSO"])
    def test_batch_check_agrees_with_python_loop(self, model_name):
        from repro.consistency.matrix import batch_check_executions

        model = model_by_name(model_name)
        python_checker = Checker(model, backend="python")
        rng = random.Random(0xBEC4)
        executions = [
            random_execution(rng, stale_read_probability=probability)
            for probability in (0.0, 0.0, 0.2, 0.4) for _ in range(10)]
        expected = [python_checker.check(execution).passed
                    for execution in executions]
        assert batch_check_executions(executions, model) == expected
        assert expected.count(True) and expected.count(False)


@pytest.mark.parametrize("backend", CHECKER_BACKENDS)
@pytest.mark.parametrize("model", ["SC", "TSO"])
def test_golden_litmus_verdicts_per_backend(backend, model):
    """Both kernels reproduce every pinned litmus verdict."""
    for name in corpus_names():
        verdict = cycle_verdict(litmus_by_name(name), model, backend=backend)
        assert verdict == GOLDEN[name][model], (name, backend)
