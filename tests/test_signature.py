"""Exact-graph execution keys: equal graphs share a key, any change splits it.

The verdict cache keys each verdict on a digest of the execution's
integer form.  Collective checking is sound because equal keys mean
identical graphs under the same model, and it pays off because what no
check reads — op ids, write values, the order a trace was recorded in —
stays out of the key.  Everything a check does read must split it.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.consistency.execution import ExecutionGraph, execution_from_trace
from repro.consistency.models import SequentialConsistency, TotalStoreOrder
from repro.consistency.signature import execution_signature
from repro.litmus.corpus import corpus_names, litmus_by_name
from repro.litmus.witness import cycle_witness_execution
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

SRC = str(Path(__file__).resolve().parents[1] / "src")

X = 0x1000
Y = 0x2000
TSO = TotalStoreOrder()
SC = SequentialConsistency()


def mp_execution(r1: int, r2: int, *, op_ids=(0, 1, 2, 3),
                 record_order="program"):
    """The MP litmus shape; the reader sees ``r1`` at Y, then ``r2`` at X.

    ``op_ids`` renumbers the operations and ``record_order="reversed"``
    records the trace back to front; neither changes the graph.
    """
    w_x, w_y, r_y, r_x = op_ids
    threads = [
        TestThread(0, (TestOp(w_x, OpKind.WRITE, X, 1),
                       TestOp(w_y, OpKind.WRITE, Y, 2))),
        TestThread(1, (TestOp(r_y, OpKind.READ, Y),
                       TestOp(r_x, OpKind.READ, X))),
    ]
    records = [
        lambda t: t.record_write(w_x, 0, X, 1, 0),
        lambda t: t.record_write(w_y, 0, Y, 2, 0),
        lambda t: t.record_read(r_y, 1, Y, r1),
        lambda t: t.record_read(r_x, 1, X, r2),
    ]
    if record_order == "reversed":
        records.reverse()
    trace = ExecutionTrace()
    for record in records:
        record(trace)
    return execution_from_trace(threads, trace)


class TestRenamingInvariance:
    """Op ids and trace record order are not part of the graph."""

    def test_stable_across_recomputation(self):
        execution = mp_execution(2, 1)
        assert (execution_signature(execution, TSO) ==
                execution_signature(execution, TSO))

    def test_op_id_renumbering_invariant(self):
        base = execution_signature(mp_execution(2, 1), TSO)
        renumbered = execution_signature(
            mp_execution(2, 1, op_ids=(40, 17, 9, 23)), TSO)
        assert base == renumbered

    def test_trace_record_order_invariant(self):
        base = execution_signature(mp_execution(2, 1), TSO)
        reversed_records = execution_signature(
            mp_execution(2, 1, record_order="reversed"), TSO)
        assert base == reversed_records


class TestDistinctness:
    def test_different_rf_outcomes_differ(self):
        outcomes = {execution_signature(mp_execution(r1, r2), TSO)
                    for r1, r2 in [(0, 0), (0, 1), (2, 0), (2, 1)]}
        assert len(outcomes) == 4

    def test_model_is_part_of_the_key(self):
        execution = mp_execution(2, 0)
        assert (execution_signature(execution, TSO) !=
                execution_signature(execution, SC))

    def test_different_shapes_differ(self):
        # SB swaps the reader's role onto both threads: structurally a
        # different execution graph, so a different digest.
        threads = [
            TestThread(0, (TestOp(0, OpKind.WRITE, X, 1),
                           TestOp(1, OpKind.READ, Y))),
            TestThread(1, (TestOp(2, OpKind.WRITE, Y, 2),
                           TestOp(3, OpKind.READ, X))),
        ]
        trace = ExecutionTrace()
        trace.record_write(0, 0, X, 1, 0)
        trace.record_read(1, 0, Y, 0)
        trace.record_write(2, 1, Y, 2, 0)
        trace.record_read(3, 1, X, 0)
        sb = execution_from_trace(threads, trace)
        assert (execution_signature(sb, TSO) !=
                execution_signature(mp_execution(0, 0), TSO))


def rmw_execution(*, op_ids=(0, 1, 2, 3), values=(1, 5, 2),
                  record_order="program"):
    """Two writes racing on X, an RMW on Y and a read of X.

    Thread 0 writes X then RMWs Y (reading the init value); thread 1
    writes X co-after thread 0 and reads its own write back.  *values*
    are the three written values; with *op_ids* and *record_order*
    they may change without changing the graph.
    """
    w_x, rmw_y, w_x2, r_x = op_ids
    first, swapped, second = values
    threads = [
        TestThread(0, (TestOp(w_x, OpKind.WRITE, X, first),
                       TestOp(rmw_y, OpKind.RMW, Y, swapped))),
        TestThread(1, (TestOp(w_x2, OpKind.WRITE, X, second),
                       TestOp(r_x, OpKind.READ, X))),
    ]
    records = [
        lambda t: t.record_write(w_x, 0, X, first, 0),
        lambda t: t.record_rmw(rmw_y, 0, Y, 0, swapped, 0),
        lambda t: t.record_write(w_x2, 1, X, second, first),
        lambda t: t.record_read(r_x, 1, X, second),
    ]
    if record_order == "reversed":
        records.reverse()
    trace = ExecutionTrace()
    for record in records:
        record(trace)
    return execution_from_trace(threads, trace)


def with_graph(execution, **changes):
    """A stand-in execution whose graph differs from *execution*'s in
    exactly the given :class:`ExecutionGraph` fields."""
    graph = execution.graph
    fields = {name: getattr(graph, name)
              for name in ExecutionGraph.__slots__ if name != "_eids"}
    fields.update(changes)
    return SimpleNamespace(graph=ExecutionGraph(**fields))


def replaced(values, index, value):
    values = list(values)
    values[index] = value
    return values


#: Events of :func:`rmw_execution`'s graph, by id.
W_X, RMW_READ, RMW_WRITE, W_X2, R_X, INIT_X, INIT_Y = range(7)

EQUAL_GRAPHS = {
    "op-ids": dict(op_ids=(40, 17, 9, 23)),
    "record-order": dict(record_order="reversed"),
    "write-values": dict(values=(7, 3, 9)),
    "all-at-once": dict(op_ids=(8, 6, 4, 2), values=(9, 1, 4),
                        record_order="reversed"),
}

#: One change per thing a check reads; each yields (execution, model).
SINGLE_CHANGES = {
    "rf-source": lambda base: (with_graph(base, rf_source=replaced(
        base.graph.rf_source, R_X, W_X)), TSO),
    "co-order": lambda base: (with_graph(
        base, co_next=replaced(replaced(replaced(
            base.graph.co_next, INIT_X, W_X2), W_X2, W_X), W_X, -1)), TSO),
    "address": lambda base: (with_graph(base, address=[
        0x3000 if address == X else address
        for address in base.graph.address]), TSO),
    "read-write-kind": lambda base: (with_graph(base, is_read=replaced(
        base.graph.is_read, R_X, False)), TSO),
    "atomicity": lambda base: (with_graph(base, is_atomic=replaced(
        base.graph.is_atomic, W_X, True)), TSO),
    "rmw-pairing": lambda base: (with_graph(base, rmw_pairs=[]), TSO),
    "thread-split": lambda base: (with_graph(
        base, threads=[range(0, 2), range(2, 5)]), TSO),
    "model": lambda base: (base, SC),
}


class TestExactGraphKey:
    def test_base_graph_is_as_documented(self):
        graph = rmw_execution().graph
        assert graph.rmw_pairs == [(RMW_READ, RMW_WRITE)]
        assert graph.rf_source[R_X] == W_X2
        assert graph.co_chains[X] == [INIT_X, W_X, W_X2]
        assert graph.init_id == {X: INIT_X, Y: INIT_Y}

    @pytest.mark.parametrize("variant", EQUAL_GRAPHS)
    def test_equal_graphs_give_equal_keys(self, variant):
        base = rmw_execution()
        other = rmw_execution(**EQUAL_GRAPHS[variant])
        assert (execution_signature(other, TSO)
                == execution_signature(base, TSO))

    @pytest.mark.parametrize("change", SINGLE_CHANGES)
    def test_single_change_gives_a_different_key(self, change):
        base = rmw_execution()
        execution, model = SINGLE_CHANGES[change](base)
        assert (execution_signature(execution, model)
                != execution_signature(base, TSO))
        # The stand-in with no change keys like the real execution.
        assert (execution_signature(with_graph(base), TSO)
                == execution_signature(base, TSO))

    def test_key_is_a_sha256_hex_digest(self):
        key = execution_signature(rmw_execution(), TSO)
        assert isinstance(key, str) and len(key) == 64
        int(key, 16)

    def test_unbounded_addresses_are_keyed(self):
        # Bridge traces may carry addresses beyond 64 bits.
        base = rmw_execution()
        far = with_graph(base, address=[2 ** 70 + address
                                        for address in base.graph.address])
        assert (execution_signature(far, TSO)
                != execution_signature(base, TSO))


WITNESS_DIGESTS_SCRIPT = """
from repro.consistency.models import model_by_name
from repro.consistency.signature import execution_signature
from repro.litmus.corpus import corpus_names, litmus_by_name
from repro.litmus.witness import cycle_witness_execution
for name in corpus_names():
    execution = cycle_witness_execution(litmus_by_name(name))
    for model in ("SC", "TSO"):
        print(name, model, execution_signature(execution, model_by_name(model)))
"""


def test_digests_identical_across_hash_seeds():
    # Cache keys travel between worker processes, each with its own
    # string-hash salt; no hash order may leak into the key bytes.
    def run(seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-c", WITNESS_DIGESTS_SCRIPT], env=env,
            capture_output=True, text=True, check=True).stdout

    first = run("1")
    assert first == run("20406")
    lines = []
    for name in corpus_names():
        execution = cycle_witness_execution(litmus_by_name(name))
        for model in (SC, TSO):
            digest = execution_signature(execution, model)
            lines.append(f"{name} {model.name} {digest}\n")
    assert first == "".join(lines)
