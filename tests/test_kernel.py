"""Unit tests for the discrete-event simulation kernel."""

import random
from heapq import heappush

import pytest

from repro.sim.kernel import SimKernel, SimulationLimitError


class TestScheduling:
    def test_events_run_in_time_order(self):
        kernel = SimKernel(seed=1)
        order = []
        kernel.schedule(30, lambda: order.append("c"))
        kernel.schedule(10, lambda: order.append("a"))
        kernel.schedule(20, lambda: order.append("b"))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self):
        kernel = SimKernel(seed=1)
        order = []
        for name in "abcde":
            kernel.schedule(5, lambda n=name: order.append(n))
        kernel.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        kernel = SimKernel(seed=1)
        seen = []
        kernel.schedule(7, lambda: seen.append(kernel.now))
        kernel.schedule(19, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [7, 19]

    def test_nested_scheduling_from_callback(self):
        kernel = SimKernel(seed=1)
        order = []

        def first():
            order.append("first")
            kernel.schedule(5, lambda: order.append("second"))

        kernel.schedule(1, first)
        end = kernel.run()
        assert order == ["first", "second"]
        assert end == 6

    def test_same_tick_event_from_a_callback_runs_after_queued_ones(self):
        kernel = SimKernel(seed=1)
        order = []

        def first():
            order.append("a")
            # Scheduled at the same tick from a callback: runs after
            # every event already queued for that tick.
            kernel.schedule(0, lambda: order.append("late"))

        kernel.schedule(5, first)
        for name in "bcd":
            kernel.schedule(5, lambda n=name: order.append(n))
        kernel.run()
        assert order == ["a", "b", "c", "d", "late"]

    def test_schedule_and_direct_pushes_share_one_sequence(self):
        kernel = SimKernel(seed=1)
        order = []

        def push(name):
            heappush(kernel.queue, [5, kernel.next_seq(),
                                    lambda: order.append(name)])

        kernel.schedule(5, lambda: order.append("a"))
        push("b")
        kernel.schedule_at(5, lambda: order.append("c"))
        push("d")
        kernel.schedule(5, lambda: order.append("e"))

        def from_callback():
            # Runs at tick 4; both ways land at tick 5 after "f".
            push("g")
            kernel.schedule(1, lambda: order.append("h"))

        kernel.schedule(4, from_callback)
        push("f")
        kernel.run()
        assert order == list("abcdefgh")

    def test_negative_delay_rejected(self):
        kernel = SimKernel(seed=1)
        with pytest.raises(ValueError):
            kernel.schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self):
        kernel = SimKernel(seed=1)
        seen = []
        kernel.schedule_at(42, lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [42]

    def test_schedule_at_in_the_past_rejected(self):
        kernel = SimKernel(seed=1)
        kernel.schedule(10, lambda: None)
        kernel.run()
        with pytest.raises(ValueError):
            kernel.schedule_at(5, lambda: None)


class TestUntilAndLimits:
    def test_until_predicate_stops_run(self):
        kernel = SimKernel(seed=1)
        done = []
        for delay in range(1, 20):
            kernel.schedule(delay, lambda d=delay: done.append(d))
        kernel.run(until=lambda: len(done) >= 5)
        assert len(done) == 5

    def test_until_stops_before_the_first_event_after_it_turns_true(self):
        kernel = SimKernel(seed=1)
        ran = []
        for time in (10, 20, 20, 30, 40):
            kernel.schedule(time, lambda t=time: ran.append(t))
        checks = []

        def until():
            checks.append(kernel.now)
            return len(ran) >= 2

        stopped = kernel.run(until=until)
        # Evaluated before every event; the run stops at the last
        # executed event's time and leaves the rest queued.
        assert ran == [10, 20]
        assert stopped == kernel.now == 20
        assert checks == [0, 10, 20]
        assert kernel.events_executed == 2
        assert kernel.run() == 40
        assert ran == [10, 20, 20, 30, 40]

    def test_tick_limit_raises(self):
        kernel = SimKernel(seed=1, max_ticks=100)

        def reschedule():
            kernel.schedule(50, reschedule)

        kernel.schedule(1, reschedule)
        with pytest.raises(SimulationLimitError):
            kernel.run()

    def test_event_limit_raises(self):
        kernel = SimKernel(seed=1, max_events=50)

        def reschedule():
            kernel.schedule(1, reschedule)

        kernel.schedule(1, reschedule)
        with pytest.raises(SimulationLimitError):
            kernel.run()


class TestJitter:
    def test_jitter_within_bounds(self):
        kernel = SimKernel(seed=3)
        values = [kernel.jitter(5, 9) for _ in range(200)]
        assert min(values) >= 5
        assert max(values) <= 9

    def test_jitter_deterministic_for_seed(self):
        first = [SimKernel(seed=11).jitter(0, 1000) for _ in range(1)]
        second = [SimKernel(seed=11).jitter(0, 1000) for _ in range(1)]
        assert first == second

    def test_jitter_invalid_range(self):
        with pytest.raises(ValueError):
            SimKernel(seed=1).jitter(5, 4)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_jitter_matches_randint_draw_for_draw(self, seed):
        """Same values *and* the same RNG state after every draw."""
        kernel = SimKernel(seed=seed)
        reference = random.Random(seed)
        ranges = [(5, 5), (0, 0), (0, 1), (1, 2), (3, 10), (2, 40),
                  (0, 63), (0, 64), (7, 200), (100, 1100), (0, 2**20),
                  (-5, 5)]
        shuffler = random.Random(seed + 1)
        for _ in range(400):
            low, high = shuffler.choice(ranges)
            assert kernel.jitter(low, high) == reference.randint(low, high)
            assert kernel.rng.getstate() == reference.getstate()
