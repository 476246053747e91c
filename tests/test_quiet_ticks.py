"""Quiet ticks change no simulator result, bit for bit.

A core whose tick found nothing to do polls again 25 ticks later.  Until
a callback calls ``CoreEngine._wake``, that poll only reschedules itself:
its pipeline stages would find exactly what the idle tick found.  This
file runs the same seeded tests on the production engine and on a
reference engine that runs all four stages on every tick, and asserts
that every ``IterationResult`` field, every trace record in order and the
coverage counts in insertion order are equal.  It also asserts that the
production engine runs the issue stage strictly fewer times, so the test
fails if quiet ticks are ever silently disabled.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import repro.sim.system
from repro.core.config import GeneratorConfig
from repro.core.generator import RandomTestGenerator
from repro.harness.scenarios import scenario_for
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.faults import Fault, FaultSet
from repro.sim.pipeline.core import CoreEngine
from repro.sim.system import IterationResult, System

PROTOCOLS = ("MESI", "TSO_CC")
TEST_SEEDS = (5, 17)
ITERATIONS = 3


class CountingCore(CoreEngine):
    """The production engine, counting issue-stage runs.

    Every tick that is not quiet runs the issue stage once.
    """

    issue_stages = 0

    def _tick(self) -> None:
        if not self._quiet:
            type(self).issue_stages += 1
        super()._tick()


class AlwaysPollCore(CountingCore):
    """Runs all four stages on every tick, quiet or not."""

    issue_stages = 0

    def _tick(self) -> None:
        self._quiet = False
        super()._tick()


# Seeded random tests on the correct system and every Table-4 fault, on
# each protocol it applies to; then each fault's directed scenario,
# which also reaches the protocol-error and deadlock paths.
CELLS = [(protocol, fault, seed) for protocol in PROTOCOLS
         for fault in (None, *Fault)
         if fault is None or fault.protocol in ("ANY", protocol)
         for seed in TEST_SEEDS]


def _run(engine: type[CountingCore], config: SystemConfig, threads: list,
         fault: Fault | None, seeds: range, max_ticks: int,
         monkeypatch) -> tuple[list, list, int]:
    """Run one iteration per seed of one test on one collector."""
    monkeypatch.setattr(repro.sim.system, "CoreEngine", engine)
    engine.issue_stages = 0
    faults = FaultSet.of(fault) if fault is not None else FaultSet.none()
    system = System(config=config, faults=faults,
                    coverage=CoverageCollector(), max_ticks=max_ticks)
    results = [system.run_iteration(threads, seed) for seed in seeds]
    return (results, list(system.coverage.global_counts.items()),
            engine.issue_stages)


def _assert_quiet_ticks_change_nothing(*args, monkeypatch) -> None:
    reference, reference_counts, reference_stages = _run(
        AlwaysPollCore, *args, monkeypatch)
    quiet, quiet_counts, quiet_stages = _run(CountingCore, *args,
                                             monkeypatch)
    assert [_rows(result) for result in quiet] == \
        [_rows(result) for result in reference]
    assert quiet_counts == reference_counts
    assert quiet_stages < reference_stages


def _rows(result: IterationResult) -> dict[str, object]:
    trace = result.trace
    row = {field.name: getattr(result, field.name)
           for field in dataclasses.fields(result) if field.name != "trace"}
    row.update(reads=trace.reads, writes=trace.writes, rmws=trace.rmws,
               commit_order=list(trace.commit_order.items()))
    return row


@pytest.mark.parametrize(
    ("protocol", "fault", "test_seed"), CELLS,
    ids=[f"{protocol}-{fault.name if fault else 'correct'}-t{seed}"
         for protocol, fault, seed in CELLS])
def test_random_tests_match_polling_every_stage(protocol, fault, test_seed,
                                                monkeypatch):
    generator = RandomTestGenerator(
        GeneratorConfig.quick(memory_kib=8, test_size=48),
        random.Random(test_seed))
    threads = generator.generate().to_threads()
    seeds = range(1000 * test_seed, 1000 * test_seed + ITERATIONS)
    _assert_quiet_ticks_change_nothing(
        SystemConfig(protocol=protocol), threads, fault, seeds, 200_000,
        monkeypatch=monkeypatch)


@pytest.mark.parametrize("fault", list(Fault), ids=[f.name for f in Fault])
def test_directed_scenarios_match_polling_every_stage(fault, monkeypatch):
    scenario = scenario_for(fault)
    _assert_quiet_ticks_change_nothing(
        scenario.system_config, scenario.chromosome.to_threads(), fault,
        range(ITERATIONS), 4_000, monkeypatch=monkeypatch)
