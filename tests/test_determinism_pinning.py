"""Pinning regressions for the determinism-lint fixes (DET004).

The static analyzer bans unsorted set iteration feeding ordered output
on deterministic paths; these tests pin the behaviour of the sites
that were fixed to comply, so a revert fails a test and not just the
lint:

* the codec's coverage frame sorts the ``known`` transition set and
  keeps the run set's first-record order, so encoded bytes are
  identical regardless of declare order or the process's hash seed;
* ``execution_from_trace`` and ``cycle_witness_execution`` build the
  per-address coherence chains in sorted address order, so relation
  iteration (and everything derived from it, e.g. signatures) is
  reproducible.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.consistency.execution import execution_from_trace
from repro.core.config import GeneratorConfig
from repro.core.generator import RandomTestGenerator
from repro.harness.codec import decode, encode
from repro.litmus.diy import generate_from_cycle
from repro.litmus.witness import cycle_witness_execution
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector, TransitionKey
from repro.sim.system import System

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _keys(count: int = 48) -> list[TransitionKey]:
    return [TransitionKey("L1", f"S{index % 7}", f"E{index}")
            for index in range(count)]


def _populated(declare_order: list[TransitionKey]) -> CoverageCollector:
    collector = CoverageCollector()
    collector.declare(declare_order)
    # The record sequence (and with it the Counter's insertion order,
    # which the frame deliberately preserves) is held fixed; only the
    # set-insertion histories vary between collectors.
    for key in _keys()[::3]:
        collector.record(key.controller, key.state, key.event)
    return collector


class TestCoverageFrameStability:
    def test_bytes_identical_across_declare_orders(self):
        keys = _keys()
        one = _populated(keys)
        other = _populated(list(reversed(keys)))
        assert encode(one) == encode(other)

    def test_bytes_identical_after_round_trip(self):
        # decode() repopulates the known set from the (sorted) frame,
        # i.e. with a different insertion history than the original
        # collector — re-encoding must not notice.
        original = _populated(_keys())
        frame = encode(original)
        assert encode(decode(frame)) == frame

    def test_bytes_identical_across_hash_seeds(self):
        # String hashing is salted per process; the frame only stays
        # byte-stable across processes because the known set is sorted.
        script = (
            "from repro.harness.codec import encode\n"
            "from repro.sim.coverage import CoverageCollector\n"
            "c = CoverageCollector()\n"
            "for i in range(40):\n"
            "    c.record('L1', f'S{i % 7}', f'E{i}')\n"
            "c.begin_run()\n"
            "for i in range(0, 40, 3):\n"
            "    c.record('L1', f'S{i % 7}', f'E{i}')\n"
            "print(encode(c).hex())\n")

        def run(seed: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=SRC)
            result = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            return result.stdout.strip()

        assert run("1") == run("20406")


def _simulate(seed: int):
    config = GeneratorConfig.quick(memory_kib=1, test_size=32,
                                   iterations=2)
    generator = RandomTestGenerator(config, random.Random(seed))
    threads = generator.generate().to_threads()
    system = System(config=SystemConfig(num_cores=config.num_threads),
                    coverage=CoverageCollector())
    iteration = system.run_iteration(threads, seed * 7 + 1)
    assert iteration.clean
    return threads, iteration.trace


class TestCoChainOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trace_execution_chains_in_address_order(self, seed):
        threads, trace = _simulate(seed)
        execution = execution_from_trace(threads, trace)
        addresses = list(execution.co_chains)
        assert len(addresses) > 1
        assert addresses == sorted(addresses)

    def test_witness_execution_chains_in_address_order(self):
        test = generate_from_cycle(
            "3.sb", ["PodWW", "Wse", "PodWW", "Wse", "PodWW", "Wse"])
        execution = cycle_witness_execution(test)
        addresses = list(execution.co_chains)
        assert len(addresses) == 3
        assert addresses == sorted(addresses)
