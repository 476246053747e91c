"""Program rows and ``TestThread`` lists build the same execution.

:func:`~repro.consistency.execution.execution_from_trace` reads the
static program as rows (:func:`~repro.consistency.execution.program_rows`)
and converts a ``TestThread`` list first.  For the consistency-golden
traces, the simulated litmus corpus and seeded GP programs, both forms
must give equal graphs and equal verdict-cache keys, and every
malformed program or trace must raise the same error text both ways.
"""

from __future__ import annotations

import json
import random

import pytest
from test_consistency_golden import CASES as GOLDEN_CASES
from test_consistency_golden import GOLDEN, _inputs

from repro.consistency.checker import Checker
from repro.consistency.execution import (ExecutionBuildError,
                                         execution_from_trace, program_rows)
from repro.consistency.models import model_by_name
from repro.consistency.signature import execution_signature
from repro.core.config import GeneratorConfig
from repro.core.engine import VerificationEngine
from repro.core.generator import RandomTestGenerator
from repro.litmus.corpus import corpus_names, litmus_by_name
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")

MODELS = [model_by_name(name) for name in ("SC", "TSO")]
GP_SEEDS = range(6)
X, Y = 0x1000, 0x2000


def _outcome(program, trace: ExecutionTrace):
    """The graph and every model's signature, or the build error text."""
    try:
        execution = execution_from_trace(program, trace)
    except ExecutionBuildError as error:
        return str(error)
    return (execution.graph,
            [execution_signature(execution, model) for model in MODELS])


def _assert_equivalent(threads: list[TestThread],
                       trace: ExecutionTrace) -> object:
    rows = program_rows(threads)
    assert [pid for pid, _ in rows] == [thread.pid for thread in threads]
    assert [TestThread(pid, tuple(TestOp(*row) for row in ops))
            for pid, ops in rows] == threads
    outcome = _outcome(threads, trace)
    assert _outcome(rows, trace) == outcome
    return outcome


def _simulated(threads: list[TestThread], seed: int) -> ExecutionTrace:
    result = System(SystemConfig()).run_iteration(threads, seed)
    assert result.protocol_error is None and not result.deadlock
    return result.trace


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


TRACE_CASES = [case for case in GOLDEN_CASES if case["source"] != "litmus"]


@pytest.mark.parametrize("case", TRACE_CASES,
                         ids=[case["id"] for case in TRACE_CASES])
def test_consistency_golden_cases(case, golden):
    threads, trace, _ = _inputs(case)
    outcome = _assert_equivalent(threads, trace)
    build_error = golden[case["id"]]["build_error"]
    assert (outcome if isinstance(outcome, str) else None) == build_error


@pytest.mark.parametrize("name", corpus_names())
def test_litmus_corpus(name):
    threads = litmus_by_name(name).chromosome.to_threads()
    outcome = _assert_equivalent(threads, _simulated(threads, seed=3))
    assert not isinstance(outcome, str)


def test_seeded_gp_programs_cover_every_op_kind():
    kinds = set()
    for seed in GP_SEEDS:
        threads = _gp_threads(seed)
        kinds.update(op.kind for thread in threads for op in thread.ops)
        outcome = _assert_equivalent(threads, _simulated(threads, seed))
        assert not isinstance(outcome, str)
    assert kinds == set(OpKind)


def _gp_threads(seed: int) -> list[TestThread]:
    generator = RandomTestGenerator(GeneratorConfig.quick(test_size=96),
                                    random.Random(seed))
    return generator.generate().to_threads()


def _writes_then_read(*extra_writes: tuple) -> ExecutionTrace:
    trace = ExecutionTrace()
    trace.record_write(1, 0, X, 1, 0)
    trace.record_write(2, 0, X, 2, 1)
    trace.record_read(3, 1, X, 2)
    for write in extra_writes:
        trace.record_write(*write)
    return trace


def _two_threads(*second: TestOp) -> list[TestThread]:
    return [TestThread(0, (TestOp(1, OpKind.WRITE, X, 1),
                           TestOp(2, OpKind.WRITE, X, 2))),
            TestThread(1, (TestOp(3, OpKind.READ, X), *second))]


REUSED = ("op id {} is reused by threads {} and {}; op ids must be "
          "globally unique")
MALFORMED = {
    "duplicate-pid-reused-op": (
        [*_two_threads(), TestThread(1, (TestOp(2, OpKind.READ, Y),))],
        (), REUSED.format(2, 0, 1)),
    "duplicate-pid-replaced-thread": (
        [*_two_threads(), TestThread(0, (TestOp(4, OpKind.DELAY),))],
        (), "read observed value 2 at 0x1000, but no write produces that "
            "value (memory corruption)"),
    "op-reused-by-flush": (
        _two_threads(TestOp(1, OpKind.CACHE_FLUSH, X)),
        (), REUSED.format(1, 0, 1)),
    "missing-observation": (
        _two_threads(TestOp(4, OpKind.READ, Y)),
        (), "no observation for read event (4, 'R') (thread 1 did not "
            "complete?)"),
    "unknown-write-op": (
        _two_threads(TestOp(4, OpKind.DELAY, delay=5)),
        ((9, 1, Y, 7, 0),), "observed write for unknown op 9"),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_programs_raise_the_same_text(name):
    threads, extra_writes, expected = MALFORMED[name]
    trace = _writes_then_read(*extra_writes)
    assert _assert_equivalent(threads, trace) == expected
    checker = Checker(MODELS[1])
    verdicts = [checker.check_trace(program, trace).violations_summary()
                for program in (threads, program_rows(threads))]
    assert verdicts[0] == verdicts[1] == (f"corruption: {expected}",)


def test_engine_converts_the_program_once_per_test_run(monkeypatch):
    config = GeneratorConfig.quick(test_size=24, iterations=3)
    engine = VerificationEngine(config, SystemConfig(), seed=5)
    chromosome = RandomTestGenerator(config, random.Random(5)).generate()
    programs = []
    check_trace = engine.checker.check_trace

    def recording(program, trace, cache=None):
        programs.append(program)
        return check_trace(program, trace, cache=cache)

    monkeypatch.setattr(engine.checker, "check_trace", recording)
    result = engine.run_test(chromosome)
    assert result.iterations_run == len(programs) == config.iterations
    assert all(program is programs[0] for program in programs)
    assert programs[0] == program_rows(chromosome.to_threads())
