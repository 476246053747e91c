"""Host-speed calibration: a fixed pure-python loop timed between rounds.

The benchmark runs on shared virtual CPUs whose speed shifts by tens of
percent for seconds to minutes at a time, as neighbours load the host.
Wall-clock throughput over a run then says as much about the neighbours
as about the program.  This module times a fixed loop, independent of
the program under test, every quarter second while a round runs and
between rounds; the ratio of its mean time to :data:`REFERENCE_SECONDS`
is the run's *slowdown factor*.  Reported
times are divided by it and rates multiplied by it, so a run reads as if
the host had run the loop in exactly :data:`REFERENCE_SECONDS`.

The loop mixes what the program does most: object allocation and
attribute access, dict updates, heap operations, and random reads over a
table larger than the per-core caches.  On one seed over 200 s, 30 s
windows of the normalised gp-sweep rate spread 2 % (quartile distance
over median) where the raw rate spread 11 % (2 vCPUs, Firecracker VM).
The collector is paused while the loop runs, so a collection triggered
by the program's garbage cannot land in a sample.
"""

from __future__ import annotations

import array
import gc
import heapq
import random
import statistics
import sys
import time

#: Seconds one pass of the loop is normalised to.
REFERENCE_SECONDS = 0.008

_TABLE_ENTRIES = 1 << 19          # 4 MiB of int64


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, when: int, key: int, value: int) -> None:
        self.time = when
        self.key = key
        self.value = value


class Calibration:
    """Times the loop on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = random.Random(0xCA11B)
        self._table = array.array("q", range(_TABLE_ENTRIES))
        self._reads = [rng.randrange(_TABLE_ENTRIES) for _ in range(15000)]
        self._delays = [rng.randrange(1, 64) for _ in range(1024)]
        self.samples: list[float] = []
        #: Wall seconds spent in the loop, to take out of timed rounds.
        self.spent = 0.0

    def _loop(self) -> int:
        table = self._table
        total = 0
        for index in self._reads:
            total += table[index]
        heap: list = []
        state: dict[int, int] = {}
        delays = self._delays
        for step in range(4000):
            heapq.heappush(heap, (delays[step & 1023], step,
                                  _Event(step, step & 127, step)))
            if step & 1:
                _, _, event = heapq.heappop(heap)
                state[event.key] = state.get(event.key, 0) + event.value
        for step in range(15000):
            total += (step * step) % 7
        return total + len(state)

    def __call__(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        # While the loop runs, no other thread may take the interpreter
        # lock from it, or the sample would time their work too.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        started = time.perf_counter()
        try:
            self._loop()
        finally:
            seconds = time.perf_counter() - started
            sys.setswitchinterval(switch_interval)
            if collecting:
                gc.enable()
        self.samples.append(seconds)
        self.spent += seconds

    def slowdown(self) -> float:
        """Mean loop time over the reference: above 1 on a slow host."""
        return statistics.fmean(self.samples) / REFERENCE_SECONDS
