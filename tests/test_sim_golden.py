"""Golden simulator outputs: exact per-iteration results, bit for bit.

Every other simulator test checks a property (a bug is found, a system
quiesces, schedulers agree with serial).  This file pins what one
``System.run_iteration`` actually produces, so a change meant to make the
simulator faster cannot quietly make it behave differently.  Each case
runs one iteration on a fresh collector and records:

* ``kernel_events``, ``ticks``, ``messages_sent`` and ``loads_squashed``;
* ``protocol_error`` (the message, or null) and ``deadlock``;
* ``trace_sha256``: a digest of the trace records and commit order, in
  the order they were recorded;
* ``coverage``: the collector's ``global_counts`` items, in insertion
  order (checkpoints serialise them in that order).

Cases cover MESI and TSO-CC, the correct system and every Table-4 fault
on the protocol it applies to, with seeded random tests and the fault's
directed scenario.  Regenerate the data file only for a change that is
meant to alter simulator results::

    PYTHONPATH=src python tests/test_sim_golden.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.core.config import GeneratorConfig
from repro.core.generator import RandomTestGenerator
from repro.harness.scenarios import scenario_for
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.faults import Fault, FaultSet
from repro.sim.system import System
from repro.sim.trace import ExecutionTrace

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"

PROTOCOLS = ("MESI", "TSO_CC")
RANDOM_TEST_SIZE = 48
RANDOM_TEST_SEEDS = (3, 11)
DIRECTED_SEEDS = dict.fromkeys(Fault, (0, 1, 2))
# Seeds 0 and 1 hit the protocol error; seed 3 runs clean.
DIRECTED_SEEDS[Fault.MESI_PUTX_RACE] = (0, 1, 3)
# A 384-op scenario: two seeds under a short tick budget keep it cheap.
DIRECTED_SEEDS[Fault.MESI_REPLACE_RACE] = (0, 1)
DIRECTED_MAX_TICKS = 20_000
DIRECTED_MAX_TICKS_OVERRIDE = {Fault.MESI_REPLACE_RACE: 4_000}


def _protocols_for(fault: Fault | None) -> tuple[str, ...]:
    if fault is None or fault.protocol == "ANY":
        return PROTOCOLS
    return (fault.protocol,)


def cases() -> list[dict]:
    """Every golden case, in a fixed order."""
    result = []
    for fault in (None, *Fault):
        label = fault.name if fault is not None else "correct"
        for protocol in _protocols_for(fault):
            for test_seed in RANDOM_TEST_SEEDS:
                result.append({
                    "id": f"random-{protocol}-{label}-t{test_seed}",
                    "source": "random", "protocol": protocol,
                    "fault": fault and fault.name, "test_seed": test_seed,
                    "iteration_seed": 1000 * test_seed + 7,
                    "max_ticks": 60_000 + 3_000 * RANDOM_TEST_SIZE})
    for fault in Fault:
        max_ticks = DIRECTED_MAX_TICKS_OVERRIDE.get(fault, DIRECTED_MAX_TICKS)
        for seed in DIRECTED_SEEDS[fault]:
            result.append({
                "id": f"directed-{fault.name}-s{seed}",
                "source": "directed",
                "protocol": scenario_for(fault).system_config.protocol,
                "fault": fault.name, "test_seed": None,
                "iteration_seed": seed, "max_ticks": max_ticks})
    return result


def _system_and_threads(case: dict) -> tuple[System, list]:
    fault = Fault[case["fault"]] if case["fault"] else None
    faults = FaultSet.of(fault) if fault is not None else FaultSet.none()
    if case["source"] == "directed":
        scenario = scenario_for(fault)
        config = scenario.system_config
        threads = scenario.chromosome.to_threads()
    else:
        config = SystemConfig(protocol=case["protocol"])
        generator_config = GeneratorConfig.quick(
            memory_kib=8, test_size=RANDOM_TEST_SIZE)
        generator = RandomTestGenerator(generator_config,
                                        random.Random(case["test_seed"]))
        threads = generator.generate().to_threads()
    assert config.protocol == case["protocol"]
    system = System(config=config, faults=faults,
                    coverage=CoverageCollector(),
                    max_ticks=case["max_ticks"])
    return system, threads


def trace_digest(trace: ExecutionTrace) -> str:
    """sha256 of the trace records and commit order, in recorded order."""
    payload = {
        "reads": [dataclasses.astuple(record) for record in trace.reads],
        "writes": [dataclasses.astuple(record) for record in trace.writes],
        "rmws": [dataclasses.astuple(record) for record in trace.rmws],
        "commit_order": [[pid, op_ids]
                         for pid, op_ids in trace.commit_order.items()],
    }
    encoded = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def observe(case: dict) -> dict:
    """Run the case's iteration and return its golden row."""
    system, threads = _system_and_threads(case)
    result = system.run_iteration(threads, case["iteration_seed"])
    return {
        "kernel_events": result.kernel_events,
        "ticks": result.ticks,
        "messages_sent": result.messages_sent,
        "loads_squashed": result.loads_squashed,
        "protocol_error": result.protocol_error,
        "deadlock": result.deadlock,
        "trace_sha256": trace_digest(result.trace),
        "coverage": [[key.controller, key.state, key.event, count]
                     for key, count in system.coverage.global_counts.items()],
    }


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_exactly_the_cases(golden):
    assert list(golden) == [case["id"] for case in CASES]


def test_golden_covers_faults_protocols_and_error_paths(golden):
    faults = {case["fault"] for case in CASES}
    assert faults == {fault.name for fault in Fault} | {None}
    assert {case["protocol"] for case in CASES} == set(PROTOCOLS)
    rows = golden.values()
    assert any(row["protocol_error"] for row in rows)
    assert any(row["deadlock"] for row in rows)
    assert any(row["loads_squashed"] for row in rows)
    assert any(not row["protocol_error"] and not row["deadlock"]
               for row in rows)


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_iteration_matches_golden(case, golden):
    assert observe(case) == golden[case["id"]]


def _format_row(row: dict) -> str:
    """One field per line and one coverage entry per line, for readable diffs."""
    fields = [f"  {json.dumps(name)}: {json.dumps(value)}"
              for name, value in row.items() if name != "coverage"]
    entries = ",\n".join(f"   {json.dumps(entry)}" for entry in row["coverage"])
    fields.append(f'  "coverage": [\n{entries}\n  ]')
    return "{\n" + ",\n".join(fields) + "\n }"


def _regenerate() -> None:
    rows = {case["id"]: observe(case) for case in CASES}
    body = ",\n".join(f" {json.dumps(case_id)}: {_format_row(row)}"
                      for case_id, row in rows.items())
    GOLDEN.write_text("{\n" + body + "\n}\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    _regenerate()
