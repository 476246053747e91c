"""Discrete-event simulation kernel.

The kernel maintains a priority queue of timestamped events.  Components
schedule callables at future ticks; the kernel executes them in
(time, sequence) order so that execution is fully deterministic for a given
seed.  Non-determinism between test iterations comes exclusively from the
seeded random number generator used to perturb latencies, mirroring the way
consecutive test executions in a continuously running full-system simulation
are perturbed differently (paper §5.1).

Queue entries are plain ``[time, seq, callback]`` lists, so heap
comparisons run in C.  Every ``seq`` comes from the kernel's one counter,
``next_seq``, so it is unique and two entries never compare their
callbacks; hot callers push ``[time, kernel.next_seq(), callback]`` onto
``kernel.queue`` directly, and same-tick entries run in push order.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count
from typing import Callable


class SimulationLimitError(RuntimeError):
    """Raised when a simulation exceeds its maximum tick or event budget."""


class SimKernel:
    """Event-driven simulation kernel with a deterministic seeded RNG."""

    def __init__(self, seed: int = 0, max_ticks: int = 50_000_000,
                 max_events: int = 20_000_000) -> None:
        # One generator for the kernel's life: ``reset`` reseeds it in
        # place, so the ``getrandbits`` bound here and by the network
        # stays valid.
        self.rng = random.Random(seed)
        self._getrandbits = self.rng.getrandbits
        self.max_ticks = max_ticks
        self.max_events = max_events
        self.reset(seed)

    def reset(self, seed: int) -> None:
        """Start over at tick 0 with an empty queue and the RNG at *seed*.

        ``Random.seed(seed)`` yields the same stream as ``Random(seed)``,
        so a reset kernel runs exactly as a new one would.
        """
        self.rng.seed(seed)
        self.now = 0
        self.queue: list[list] = []
        self.next_seq = count().__next__
        self.until: Callable[[], bool] | None = None  # see ``run``
        self._events_executed = 0

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule *callback* to run ``delay`` ticks from now (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heappush(self.queue, [self.now + int(delay), self.next_seq(),
                              callback])

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule *callback* at an absolute tick (must not be in the past)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self.schedule(time - self.now, callback)

    def jitter(self, low: int, high: int) -> int:
        """Return a random latency in ``[low, high]`` from the kernel RNG."""
        if low > high:
            raise ValueError(f"invalid jitter range [{low}, {high}]")
        # ``self.rng.randint(low, high)`` inlined: the same getrandbits
        # rejection loop as ``Random._randbelow``, so draws and results
        # are bit-identical, minus two Python frames per call.
        width = high - low + 1
        bits = width.bit_length()
        offset = self._getrandbits(bits)
        while offset >= width:
            offset = self._getrandbits(bits)
        return low + offset

    def run(self, until: Callable[[], bool] | None = None) -> int:
        """Run until the queue drains or *until* returns true.

        *until* is evaluated before every event, so the run stops before
        the first event after it turns true.  A callback may arm one
        mid-run by setting :attr:`until`.  Returns the tick at which
        the run stopped: the time of the last executed event.  Raises
        :class:`SimulationLimitError` if the tick or event budget is
        exceeded, which normally indicates a deadlock/livelock in the
        simulated system (itself a reportable verification outcome).
        """
        self.until = until
        queue = self.queue
        max_ticks = self.max_ticks
        max_events = self.max_events
        while queue:
            until = self.until
            if until is not None and until():
                break
            time, _, callback = heappop(queue)
            self.now = time
            self._events_executed += 1
            if time > max_ticks:
                raise SimulationLimitError(
                    f"simulation exceeded {max_ticks} ticks "
                    "(possible deadlock)")
            if self._events_executed > max_events:
                raise SimulationLimitError(
                    f"simulation exceeded {max_events} events "
                    "(possible livelock)")
            callback()
        return self.now

    @property
    def events_executed(self) -> int:
        return self._events_executed
