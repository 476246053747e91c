"""Golden consistency-layer outputs: exact per-execution results.

``tests/test_sim_golden.py`` pins what the simulator produces; this file
pins what the consistency layer makes of it, so a change meant to make
building, fingerprinting or checking executions faster cannot quietly
change a verdict, a cache key or a diagnostic.  Each case yields one
trace (or one hand-built execution) and records:

* ``build_error``: the ``ExecutionBuildError`` text, or null;
* ``conflict_edges_sha256``: a digest of the sorted ``conflict_edges()``
  (the rf/co union the engine folds into NDT);
* per memory model, the ``execution_signature(...)`` digest (the
  verdict-cache key) and the checker's verdict and
  ``violations_summary()``.

Cases are every simulator-golden iteration checked under SC and TSO,
seeded random executions with stale reads and broken RMWs, hand-built
malformed traces, and the litmus corpus's critical-cycle witnesses.
Regenerate the data file only for a change that is meant to alter
consistency results::

    PYTHONPATH=src python tests/test_consistency_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from test_sim_golden import CASES as SIM_CASES
from test_sim_golden import _system_and_threads

from repro.consistency.checker import Checker
from repro.consistency.execution import ExecutionBuildError, execution_from_trace
from repro.consistency.models import model_by_name
from repro.consistency.signature import execution_signature
from repro.litmus.corpus import corpus_names, litmus_by_name
from repro.litmus.witness import cycle_witness_execution
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")

GOLDEN = Path(__file__).parent / "data" / "consistency_golden.json"

MODELS = ("SC", "TSO")
RANDOM_SEEDS = range(24)
X, Y = 0x1000, 0x2000


def _random_trace(seed: int) -> tuple[list[TestThread], ExecutionTrace]:
    """A random interleaving with some stale reads and stale RMW reads."""
    rng = random.Random(seed)
    addresses = [0x1000 * (slot + 1) for slot in range(3)]
    memory = dict.fromkeys(addresses, 0)
    history = {address: [0] for address in addresses}
    stale = 0.0 if seed < 8 else 0.25
    threads, next_value, op_id = [], 1, 0
    for pid in range(3):
        ops = []
        for _ in range(7):
            address = rng.choice(addresses)
            roll = rng.random()
            if roll < 0.15:
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
    cursors = [0, 0, 0]
    while live := [pid for pid in range(3) if cursors[pid] < 7]:
        pid = rng.choice(live)
        op = threads[pid].ops[cursors[pid]]
        cursors[pid] += 1
        current = memory[op.address]
        observed = (rng.choice(history[op.address])
                    if rng.random() < stale else current)
        if op.kind is OpKind.WRITE:
            trace.record_write(op.op_id, pid, op.address, op.value, current)
        elif op.kind is OpKind.RMW:
            trace.record_rmw(op.op_id, pid, op.address, observed, op.value,
                             current)
        else:
            trace.record_read(op.op_id, pid, op.address, observed)
            continue
        memory[op.address] = op.value
        history[op.address].append(op.value)
    return threads, trace


def _three_writes() -> list[TestThread]:
    return [TestThread(0, (TestOp(1, OpKind.WRITE, X, 1),
                           TestOp(2, OpKind.WRITE, X, 2))),
            TestThread(1, (TestOp(3, OpKind.WRITE, X, 3),
                           TestOp(4, OpKind.READ, X)))]


def _malformed(name: str) -> tuple[list[TestThread], ExecutionTrace]:
    """Hand-built traces that no consistent memory system can produce."""
    threads = _three_writes()
    trace = ExecutionTrace()
    if name == "unknown-value":
        trace.record_write(1, 0, X, 1, 0)
        trace.record_write(2, 0, X, 2, 1)
        trace.record_write(3, 1, X, 3, 2)
        trace.record_read(4, 1, X, 99)
    elif name == "missing-read":
        trace.record_write(1, 0, X, 1, 0)
        trace.record_write(2, 0, X, 2, 1)
        trace.record_write(3, 1, X, 3, 2)
    elif name == "branching-co":
        trace.record_write(1, 0, X, 1, 0)
        trace.record_write(2, 0, X, 2, 1)
        trace.record_write(3, 1, X, 3, 1)
        trace.record_read(4, 1, X, 3)
    elif name == "self-overwrite":
        trace.record_write(1, 0, X, 1, 0)
        trace.record_write(2, 0, X, 2, 2)
        trace.record_write(3, 1, X, 3, 1)
        trace.record_read(4, 1, X, 3)
    elif name == "co-cycle-off-init":
        trace.record_write(1, 0, X, 1, 0)
        trace.record_write(2, 0, X, 2, 3)
        trace.record_write(3, 1, X, 3, 2)
        trace.record_read(4, 1, X, 1)
    elif name == "wrong-address":
        threads = threads + [TestThread(2, (TestOp(5, OpKind.READ, Y),))]
        trace.record_write(1, 0, X, 1, 0)
        trace.record_write(2, 0, X, 2, 1)
        trace.record_write(3, 1, X, 3, 2)
        trace.record_read(4, 1, X, 3)
        trace.record_read(5, 2, Y, 2)
    else:  # pragma: no cover - a typo in the case list
        raise ValueError(name)
    return threads, trace


MALFORMED = ("unknown-value", "missing-read", "branching-co",
             "self-overwrite", "co-cycle-off-init", "wrong-address")


def cases() -> list[dict]:
    """Every golden case, in a fixed order."""
    result = [{"id": f"sim-{case['id']}", "source": "sim", "case": case}
              for case in SIM_CASES]
    result += [{"id": f"random-s{seed}", "source": "random", "seed": seed}
               for seed in RANDOM_SEEDS]
    result += [{"id": f"malformed-{name}", "source": "malformed",
                "name": name} for name in MALFORMED]
    result += [{"id": f"litmus-{name}", "source": "litmus", "name": name}
               for name in corpus_names()]
    return result


def _inputs(case: dict):
    """``(threads, trace, None)`` for trace cases, ``(.., .., execution)``
    for litmus witnesses."""
    if case["source"] == "sim":
        sim_case = case["case"]
        system, threads = _system_and_threads(sim_case)
        result = system.run_iteration(threads, sim_case["iteration_seed"])
        return threads, result.trace, None
    if case["source"] == "random":
        return (*_random_trace(case["seed"]), None)
    if case["source"] == "malformed":
        return (*_malformed(case["name"]), None)
    return None, None, cycle_witness_execution(litmus_by_name(case["name"]))


def _conflict_digest(execution) -> str:
    edges = sorted(execution.conflict_edges(), key=repr)
    return hashlib.sha256(repr(edges).encode()).hexdigest()


def observe(case: dict) -> dict:
    """Build, fingerprint and check the case; return its golden row."""
    threads, trace, execution = _inputs(case)
    build_error = None
    if execution is None:
        try:
            execution = execution_from_trace(threads, trace)
        except ExecutionBuildError as error:
            build_error = str(error)
    row = {"build_error": build_error,
           "conflict_edges_sha256": (None if execution is None
                                     else _conflict_digest(execution))}
    for model_name in MODELS:
        model = model_by_name(model_name)
        checker = Checker(model)
        result = (checker.check_trace(threads, trace) if trace is not None
                  else checker.check(execution))
        row[model_name] = {
            "digest": (None if execution is None else
                       execution_signature(execution, model)),
            "verdict": {"passed": result.passed,
                        "violations": list(result.violations_summary())}}
    return row


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_exactly_the_cases(golden):
    assert list(golden) == [case["id"] for case in CASES]


def test_golden_covers_passes_failures_and_build_errors(golden):
    rows = list(golden.values())
    assert any(row["build_error"] for row in rows)
    for model in MODELS:
        verdicts = [row[model]["verdict"] for row in rows]
        assert any(verdict["passed"] for verdict in verdicts)
        kinds = {violation.split(":")[0] for verdict in verdicts
                 for violation in verdict["violations"]}
        assert kinds == {"coherence", "atomicity", "ghb", "corruption"}


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_execution_matches_golden(case, golden):
    assert observe(case) == golden[case["id"]]


def _regenerate() -> None:
    rows = {case["id"]: observe(case) for case in CASES}
    body = ",\n".join(f" {json.dumps(case_id)}: {json.dumps(row)}"
                      for case_id, row in rows.items())
    GOLDEN.write_text("{\n" + body + "\n}\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    _regenerate()
