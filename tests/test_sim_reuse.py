"""A reused simulated machine runs exactly as a new one would.

``System`` builds its machine (kernel, memory, network, directory, L1s
and cores) once per tuple of thread ids and resets it before every
iteration.  Every per-iteration field is assigned in a ``reset`` method,
which each constructor calls last; this file is what enforces that.

* Golden cases, grouped by config, faults and ``max_ticks``, run through
  one ``System`` per group in an order where every case runs right after
  every case of its group, itself included: so after protocol errors,
  tick-limit stops and clean runs.  Every ``IterationResult`` field, the
  trace records, the run's coverage counts and the machine's whole state
  afterwards must equal those of a fresh ``System``.
* Runs cut by the tick limit, followed by clean runs, on both protocols.
* A lost ``WBAck``: the queue drains with the L1 still waiting.  Its
  exact result is pinned, on a fresh machine and on one reused after a
  clean run, and a clean run after it matches a fresh one.
* ``reset`` itself: a machine left dirty by each kind of stop, once
  reset, has the state of a machine that was never run, and a reset
  kernel has that of a new kernel.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import deque
from enum import Enum
from itertools import count

import pytest

from repro.core.config import GeneratorConfig
from repro.core.generator import RandomTestGenerator
from repro.sim.config import SystemConfig, TestMemoryLayout
from repro.sim.coverage import CoverageCollector
from repro.sim.host import GuestSoftwareBarrier
from repro.sim.interconnect import Interconnect
from repro.sim.kernel import SimKernel
from repro.sim.system import IterationResult, System, _Machine
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace
from test_sim_golden import CASES, GOLDEN, _system_and_threads

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")

# Attributes that wire a component to the rest of the machine (or to the
# System): compared once, where they are owned, not through each holder.
_WIRING = frozenset({"kernel", "network", "memory", "coverage", "faults",
                     "config", "l1", "record_transition", "send",
                     "_getrandbits"})


def snapshot(value: object) -> object:
    """A comparable image of *value*'s state, callables by name."""
    if value is None or isinstance(value, (bool, int, float, str, Enum)):
        return value
    if isinstance(value, random.Random):
        return value.getstate()
    if isinstance(value, dict):
        return [(snapshot(key), snapshot(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple, deque)):
        return [snapshot(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(value, key=repr))
    owner = getattr(value, "__self__", None)
    if isinstance(owner, count):
        return repr(owner)  # the kernel's sequence counter
    if callable(value):
        function = getattr(value, "func", value)  # a partial's function
        return ("callable", getattr(function, "__qualname__",
                                    type(function).__qualname__))
    if hasattr(value, "__dict__"):
        names = sorted(vars(value))
    else:
        names = [field.name for field in dataclasses.fields(value)]
    return (type(value).__qualname__,
            [(name, snapshot(getattr(value, name)))
             for name in names if name not in _WIRING])


def machine_state(machine: _Machine) -> list:
    return [snapshot(component) for component in (
        machine.kernel, machine.memory, machine.network, machine.directory,
        *machine.l1s, *machine.cores)] + [machine.running]


def rows(result: IterationResult) -> dict[str, object]:
    trace = result.trace
    row = {field.name: getattr(result, field.name)
           for field in dataclasses.fields(result) if field.name != "trace"}
    row.update(reads=trace.reads, writes=trace.writes, rmws=trace.rmws,
               commit_order=list(trace.commit_order.items()))
    return row


def observe(system: System, threads: list[TestThread], seed: int) -> tuple:
    """One iteration's result rows, coverage counts and end state."""
    before = system.coverage.global_counts
    result = system.run_iteration(threads, seed)
    return (rows(result), system.coverage.global_counts - before,
            machine_state(system._machine))


def every_pair_order(items: list, rng: random.Random) -> list:
    """*items*, shuffled, in an order where each runs right after each.

    A greedy de Bruijn walk: always step to the last unused successor.
    """
    items = list(items)
    rng.shuffle(items)
    order, used = [0], set()
    while True:
        last = order[-1]
        step = next((nxt for nxt in reversed(range(len(items)))
                     if (last, nxt) not in used), None)
        if step is None:
            break
        used.add((last, step))
        order.append(step)
    assert len(used) == len(items) ** 2
    return [items[index] for index in order]


def assert_reuse_matches_fresh(make_system, runs: list[tuple],
                               seed: int) -> list[tuple]:
    """Run each ``(threads, seed)`` on one system, and each on a new one."""
    fresh = {index: observe(make_system(), *run)
             for index, run in enumerate(runs)}
    system = make_system()
    for index in every_pair_order(range(len(runs)), random.Random(seed)):
        assert observe(system, *runs[index]) == fresh[index], runs[index]
    return [fresh[index] for index in range(len(runs))]


def _golden_groups() -> dict[tuple, list[dict]]:
    groups: dict[tuple, list[dict]] = {}
    for case in CASES:
        system, _ = _system_and_threads(case)
        key = (system.config, system.faults, system.max_ticks)
        groups.setdefault(key, []).append(case)
    return groups


GROUPS = list(_golden_groups().values())


@pytest.mark.parametrize(
    "group", GROUPS,
    ids=["+".join(case["id"] for case in group) for group in GROUPS])
def test_golden_cases_on_one_machine_match_fresh(group):
    runs = []
    for case in group:
        _, threads = _system_and_threads(case)
        runs.append((threads, case["iteration_seed"]))
    assert_reuse_matches_fresh(lambda: _system_and_threads(group[0])[0],
                               runs, seed=len(group))


def test_golden_groups_run_errors_and_stops_between_other_runs():
    """A protocol error shares a machine with a clean run; stops do too."""
    golden = json.loads(GOLDEN.read_text())
    assert sum(len(group) for group in GROUPS) == len(CASES)
    kinds = [{("error" if golden[case["id"]]["protocol_error"]
               else "stop" if golden[case["id"]]["deadlock"] else "clean")
              for case in group} for group in GROUPS]
    assert {"error", "clean"} in kinds
    stops = [group for group in GROUPS
             if all(golden[case["id"]]["deadlock"] for case in group)]
    assert stops and all(len(group) >= 2 for group in stops)


def _random_threads(test_size: int, seed: int) -> list[TestThread]:
    config = GeneratorConfig.quick(memory_kib=8, test_size=test_size)
    return RandomTestGenerator(config, random.Random(seed)).generate() \
        .to_threads()


@pytest.mark.parametrize("protocol", ["MESI", "TSO_CC"])
def test_tick_limit_stops_then_clean_runs_match_fresh(protocol):
    """Long tests cut by the limit, short ones that finish, one machine.

    The short test leaves a thread empty, so that core is never ticked
    after a run that cut it mid-flight.
    """
    long_test = _random_threads(48, 3)
    short_test = _random_threads(8, 5)
    short_test[1] = TestThread(1)
    runs = [(long_test, 0), (long_test, 1), (short_test, 2),
            (short_test, 3)]
    fresh = assert_reuse_matches_fresh(
        lambda: System(config=SystemConfig(protocol=protocol),
                       coverage=CoverageCollector(), max_ticks=500),
        runs, seed=11)
    deadlocks = [row["deadlock"] for row, _, _ in fresh]
    assert deadlocks == [True, True, False, False]


def test_staggered_starts_on_one_machine_match_fresh():
    """The guest barrier draws each core's start tick per iteration.

    The pinned ``(ticks, kernel_events)`` are those of a machine built
    per iteration, so the check does not rest on ``reset`` alone.
    """
    threads = _random_threads(24, 9)
    fresh = assert_reuse_matches_fresh(
        lambda: System(coverage=CoverageCollector(),
                       barrier=GuestSoftwareBarrier()),
        [(threads, seed) for seed in range(3)], seed=13)
    assert [(row["ticks"], row["kernel_events"]) for row, _, _ in fresh] \
        == [(1046, 210), (852, 216), (948, 209)]


# -- a lost writeback ack: the queue drains before the L1 quiesces --------

_ADDRESS = TestMemoryLayout.kib(1).slot_address(0)
_WRITE_FLUSH = [TestThread(0, (TestOp(0, OpKind.WRITE, _ADDRESS, 1),
                               TestOp(1, OpKind.CACHE_FLUSH, _ADDRESS)))]
# Exactly what the drained-queue branch of ``run_iteration`` reports for
# ``_WRITE_FLUSH`` at seed 0 when every ``WBAck`` is lost.
_LOST_WBACK = {"deadlock": True, "protocol_error": None, "ticks": 244,
               "kernel_events": 16, "messages_sent": 3, "loads_squashed": 0}


@pytest.fixture
def lose_wbacks(monkeypatch) -> list[bool]:
    """While its one item is true, the network drops every ``WBAck``."""
    losing = [True]
    send = Interconnect.send

    def lossy_send(self, kind, dst, line_address, extra_latency=0, *,
                   src, **payload):
        if kind != "WBAck" or not losing[0]:
            send(self, kind, dst, line_address, extra_latency, src=src,
                 **payload)

    monkeypatch.setattr(Interconnect, "send", lossy_send)
    return losing


def _one_core_system() -> System:
    return System(config=SystemConfig(num_cores=1),
                  coverage=CoverageCollector(), max_ticks=5_000)


def test_lost_wback_between_clean_runs_matches_fresh(lose_wbacks):
    lose_wbacks[0] = False
    clean = observe(_one_core_system(), _WRITE_FLUSH, 1)
    lose_wbacks[0] = True
    lost = observe(_one_core_system(), _WRITE_FLUSH, 0)
    assert {name: lost[0][name] for name in _LOST_WBACK} == _LOST_WBACK

    system = _one_core_system()
    lose_wbacks[0] = False
    assert observe(system, _WRITE_FLUSH, 1) == clean
    assert not clean[0]["deadlock"]
    lose_wbacks[0] = True
    assert observe(system, _WRITE_FLUSH, 0) == lost
    lose_wbacks[0] = False
    assert observe(system, _WRITE_FLUSH, 1) == clean


# -- reset itself ---------------------------------------------------------


def _reset_state(machine: _Machine, threads: list[TestThread]) -> list:
    machine.reset(threads, 99, ExecutionTrace(), [0] * len(threads))
    return machine_state(machine)


_PUTX = next(case for case in CASES
             if case["id"] == "directed-MESI_PUTX_RACE-s0")
_REPLACE = next(case for case in CASES
                if case["id"] == "directed-MESI_REPLACE_RACE-s0")


@pytest.mark.parametrize("case", [_PUTX, _REPLACE],
                         ids=[_PUTX["id"], _REPLACE["id"]])
def test_reset_after_an_interrupted_run_matches_a_new_machine(case):
    system, threads = _system_and_threads(case)
    result = system.run_iteration(threads, case["iteration_seed"])
    assert not result.clean
    new = _Machine(*system._machine.built_for)
    assert _reset_state(system._machine, threads) == _reset_state(new,
                                                                  threads)


@pytest.mark.parametrize("protocol", ["MESI", "TSO_CC"])
def test_reset_after_a_tick_limit_stop_matches_a_new_machine(protocol):
    threads = _random_threads(48, 3)
    system = System(config=SystemConfig(protocol=protocol), max_ticks=300)
    assert system.run_iteration(threads, 0).deadlock
    new = _Machine(*system._machine.built_for)
    assert _reset_state(system._machine, threads) == _reset_state(new,
                                                                  threads)


def test_reset_after_a_drained_queue_matches_a_new_machine(lose_wbacks):
    system = _one_core_system()
    assert system.run_iteration(_WRITE_FLUSH, 0).deadlock
    new = _Machine(*system._machine.built_for)
    assert _reset_state(system._machine, _WRITE_FLUSH) == \
        _reset_state(new, _WRITE_FLUSH)


def test_kernel_reset_matches_a_new_kernel():
    kernel = SimKernel(seed=1, max_ticks=1_000)
    fired = []
    for delay in (5, 1, 9):
        kernel.schedule(delay, lambda delay=delay: fired.append(delay))
    kernel.run(until=lambda: len(fired) == 2)
    kernel.jitter(1, 100)
    assert kernel.queue and kernel.until is not None and kernel.now
    kernel.reset(7)
    new = SimKernel(seed=7, max_ticks=1_000)
    assert snapshot(kernel) == snapshot(new)
    assert [kernel.jitter(1, 1000) for _ in range(20)] == \
        [new.jitter(1, 1000) for _ in range(20)]


# -- when a machine is rebuilt --------------------------------------------


def test_machine_is_kept_per_thread_ids_and_rebuilt_on_change():
    system = System(coverage=CoverageCollector())
    threads = _random_threads(16, 1)
    system.run_iteration(threads, 0)
    machine = system._machine
    system.run_iteration(threads, 1)
    assert system._machine is machine
    # A litmus test on other thread ids gets a machine of its own.
    other = [dataclasses.replace(thread, pid=thread.pid + 1)
             for thread in threads[:2]]
    fresh = System(coverage=CoverageCollector())
    assert rows(system.run_iteration(other, 2)) == \
        rows(fresh.run_iteration(other, 2))
    assert system._machine is not machine
    assert system._machine.built_for[0] == (1, 2)
    # So does a System whose fields changed since the last build.
    machine = system._machine
    system.max_ticks = 100
    assert system.run_iteration(other, 2).deadlock
    assert system._machine is not machine


def test_close_frees_the_machine_and_the_next_run_rebuilds_it():
    system = System(coverage=CoverageCollector())
    threads = _random_threads(16, 1)
    first = rows(system.run_iteration(threads, 0))
    machine = system._machine
    system.close()
    assert system._machine is None
    assert not machine.network._endpoints
    assert all(core.l1 is None and core.on_done is None
               for core in machine.cores)
    system.close()
    assert rows(system.run_iteration(threads, 0)) == first
