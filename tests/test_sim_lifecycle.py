"""An iteration leaves no reference cycles.

``System.run_iteration`` builds a fresh kernel, network, controllers and
cores for every iteration, and its teardown cuts every back-reference
among them before it returns.  Reference counting then frees the whole
graph the moment the result is dropped, and the cyclic garbage collector
never has to: on gp-sweep it used to spend ~8% of a round collecting
iterations.

Each test runs with the collector disabled and asserts that a full
collection afterwards finds nothing.  The cases cover every exit path
of ``run_iteration``: a clean run, a protocol error, the tick limit and
a queue that drains before the system quiesces, plus a small GP
campaign.  A failure lists the leaked objects by type.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.core.generator import RandomTestGenerator
from repro.harness.parallel import SweepConfig, campaign_matrix, run_campaigns
from repro.sim.config import SystemConfig, TestMemoryLayout
from repro.sim.interconnect import Interconnect
from repro.sim.system import System
from repro.sim.testprogram import OpKind, TestOp, TestThread
from test_sim_golden import CASES, _system_and_threads

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")


@contextmanager
def collector_off():
    """Collect now, then keep the cyclic collector off until exit."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def assert_no_cyclic_garbage() -> None:
    """A full collection finds nothing; else list what leaked, by type."""
    flags = gc.get_debug()
    saved = len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        leaked = Counter(type(obj).__qualname__
                         for obj in gc.garbage[saved:])
    finally:
        del gc.garbage[saved:]
        gc.set_debug(flags)
    assert found == 0, (
        f"{found} objects left in reference cycles: "
        + ", ".join(f"{name} x{count}"
                    for name, count in leaked.most_common()))


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_golden_iteration_leaves_no_cycles(case):
    system, threads = _system_and_threads(case)
    with collector_off():
        system.run_iteration(threads, case["iteration_seed"])
        assert_no_cyclic_garbage()


@pytest.mark.parametrize("protocol", ["MESI", "TSO_CC"])
@pytest.mark.parametrize("max_ticks", [200, 500])
def test_run_cut_by_the_tick_limit_leaves_no_cycles(protocol, max_ticks):
    """Requests still in flight in the controllers hold no cycle."""
    generator = RandomTestGenerator(
        GeneratorConfig.quick(memory_kib=8, test_size=48), random.Random(3))
    threads = generator.generate().to_threads()
    system = System(config=SystemConfig(protocol=protocol),
                    max_ticks=max_ticks)
    with collector_off():
        result = system.run_iteration(threads, 0)
        assert result.deadlock and result.ticks > max_ticks
        del result
        assert_no_cyclic_garbage()


def test_drained_queue_deadlock_leaves_no_cycles(monkeypatch):
    """A lost writeback ack: the core is done, the L1 never quiesces."""
    send = Interconnect.send

    def lossy_send(self, kind, dst, line_address, extra_latency=0, *,
                   src, **payload):
        if kind != "WBAck":
            send(self, kind, dst, line_address, extra_latency, src=src,
                 **payload)

    monkeypatch.setattr(Interconnect, "send", lossy_send)
    address = TestMemoryLayout.kib(1).slot_address(0)
    threads = [TestThread(0, (TestOp(0, OpKind.WRITE, address, 1),
                              TestOp(1, OpKind.CACHE_FLUSH, address)))]
    system = System(config=SystemConfig(num_cores=1), max_ticks=5_000)
    with collector_off():
        result = system.run_iteration(threads, 0)
        assert result.deadlock and result.ticks < system.max_ticks
        del result
        assert_no_cyclic_garbage()


def test_campaign_leaves_no_cycles():
    config = GeneratorConfig.quick(test_size=32, iterations=2,
                                   population_size=6)
    specs = []
    for system in (SystemConfig(), SystemConfig().with_protocol("TSO_CC")):
        specs.extend(campaign_matrix([GeneratorKind.MCVERSI_ALL], [None],
                                     config, system, 8, seeds_per_cell=2,
                                     base_seed=1000))
    with collector_off():
        report = run_campaigns(specs, workers=1,
                               config=SweepConfig(verdict_memo=True))
        assert [shard.result.evaluations for shard in report.shards] == [8] * 4
        del report
        assert_no_cyclic_garbage()
