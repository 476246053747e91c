"""Unit tests for the cache array, main memory and interconnect."""

import random

import pytest

from repro.sim.cache import CacheArray
from repro.sim.config import CacheConfig
from repro.sim.interconnect import Interconnect, Message
from repro.sim.kernel import SimKernel
from repro.sim.memory import MainMemory


def small_cache() -> CacheArray:
    return CacheArray(CacheConfig(size_bytes=512, line_bytes=64, ways=2,
                                  hit_latency=1))


class TestCacheArray:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0x100) is None
        cache.allocate(0x100, "S", {0x100: 7})
        line = cache.lookup(0x108)
        assert line is not None
        assert line.read_word(0x100) == 7

    def test_allocate_unaligned_rejected(self):
        with pytest.raises(ValueError):
            small_cache().allocate(0x104, "S")

    def test_double_allocate_rejected(self):
        cache = small_cache()
        cache.allocate(0x100, "S")
        with pytest.raises(ValueError):
            cache.allocate(0x100, "M")

    def test_needs_victim_when_set_full(self):
        cache = small_cache()          # 4 sets, 2 ways
        set_span = 4 * 64
        cache.allocate(0x0, "S")
        cache.allocate(set_span, "S")
        assert cache.needs_victim(2 * set_span)
        assert not cache.needs_victim(0x40)

    def test_lru_victim_selection(self):
        cache = small_cache()
        set_span = 4 * 64
        cache.allocate(0x0, "S")
        cache.allocate(set_span, "S")
        cache.lookup(0x0)              # touch -> most recently used
        victim = cache.select_victim(2 * set_span)
        assert victim is not None
        assert victim.line_address == set_span

    def test_victim_selection_respects_exclusions(self):
        cache = small_cache()
        set_span = 4 * 64
        cache.allocate(0x0, "IM_D")
        cache.allocate(set_span, "IS_D")
        assert cache.select_victim(2 * set_span,
                                   exclude_states=("IM_D", "IS_D")) is None

    def test_evict_removes_line(self):
        cache = small_cache()
        cache.allocate(0x100, "M")
        cache.evict(0x100)
        assert cache.lookup(0x100) is None

    def test_evict_missing_line_raises(self):
        with pytest.raises(KeyError):
            small_cache().evict(0x100)

    def test_flush_all(self):
        cache = small_cache()
        cache.allocate(0x0, "S")
        cache.allocate(0x40, "M")
        dropped = cache.flush_all()
        assert len(dropped) == 2
        assert cache.occupancy() == 0

    def test_write_word_returns_overwritten(self):
        cache = small_cache()
        line = cache.allocate(0x100, "M", {0x100: 3})
        assert line.write_word(0x100, 9) == 3
        assert line.read_word(0x100) == 9


class TestMainMemory:
    def test_initial_value_is_zero(self):
        memory = MainMemory(1, 2)
        assert memory.read(0xABC0) == 0

    def test_write_returns_overwritten_value(self):
        memory = MainMemory(1, 2)
        assert memory.write(0x10, 5) == 0
        assert memory.write(0x10, 9) == 5
        assert memory.read(0x10) == 9

    def test_read_line_covers_all_words(self):
        memory = MainMemory(1, 2)
        memory.write(0x40, 1)
        memory.write(0x70, 2)
        words = memory.read_line(0x40, 64, 16)
        assert words[0x40] == 1
        assert words[0x70] == 2
        assert words[0x50] == 0
        assert len(words) == 4

    def test_write_line_and_clear_range(self):
        memory = MainMemory(1, 2)
        memory.write_line({0x40: 1, 0x50: 2})
        memory.clear_range([0x40])
        assert memory.read(0x40) == 0
        assert memory.read(0x50) == 2

    def test_invalid_latency_rejected(self):
        with pytest.raises(ValueError):
            MainMemory(10, 5)


class TestInterconnect:
    def test_delivery_with_latency_bounds(self):
        kernel = SimKernel(seed=4)
        network = Interconnect(kernel, 4, 18)
        arrivals = []
        network.register("dst", lambda msg: arrivals.append((kernel.now, msg)))
        for index in range(20):
            network.send("Ping", "dst", 0x40, src="src", i=index)
        kernel.run()
        assert len(arrivals) == 20
        assert all(4 <= time <= 18 for time, _ in arrivals)

    def test_messages_can_reorder(self):
        """Later-sent messages may overtake earlier ones (the Inv/Data race)."""
        kernel = SimKernel(seed=7)
        network = Interconnect(kernel, 1, 30)
        arrivals = []
        network.register("dst", lambda msg: arrivals.append(msg.payload["i"]))
        for index in range(40):
            network.send("Ping", "dst", 0, src="src", i=index)
        kernel.run()
        assert arrivals != sorted(arrivals)

    def test_unknown_destination_rejected(self):
        kernel = SimKernel(seed=1)
        network = Interconnect(kernel, 1, 2)
        with pytest.raises(KeyError):
            network.send("Ping", "nowhere", 0, src="a")

    def test_duplicate_endpoint_rejected(self):
        kernel = SimKernel(seed=1)
        network = Interconnect(kernel, 1, 2)
        network.register("x", lambda msg: None)
        with pytest.raises(ValueError):
            network.register("x", lambda msg: None)

    def test_extra_latency_added(self):
        kernel = SimKernel(seed=1)
        network = Interconnect(kernel, 1, 1)
        arrivals = []
        network.register("dst", lambda msg: arrivals.append(kernel.now))
        network.send("Ping", "dst", 0, extra_latency=100, src="src")
        kernel.run()
        assert arrivals == [101]

    def test_delivery_times_are_kernel_jitter_draws(self):
        """Each send draws exactly ``jitter(min, max)`` from the kernel RNG."""
        kernel = SimKernel(seed=12)
        twin = SimKernel(seed=12)
        extras = random.Random(3)
        for low, high in ((1, 1), (4, 18), (3, 64), (7, 10)):
            network = Interconnect(kernel, low, high)
            arrivals = []
            network.register("dst", lambda msg: arrivals.append(
                (msg.payload["i"], kernel.now)))
            expected = []
            start = kernel.now
            for index in range(2500):
                extra = extras.choice((0, 0, 1, 5, 40))
                network.send("Ping", "dst", 0, extra, src="src", i=index)
                expected.append(
                    (index, start + twin.jitter(low, high) + extra))
            kernel.run()
            assert sorted(arrivals) == expected
            assert network.messages_sent == 2500
        # Both RNGs took the same draws, so their next draws agree.
        assert kernel.rng.getrandbits(64) == twin.rng.getrandbits(64)

    def test_message_carries_the_send(self):
        kernel = SimKernel(seed=1)
        network = Interconnect(kernel, 1, 2)
        received = []
        network.register("dst", received.append)
        network.send("Data", "dst", 0x40, src="l1_0", words={0x40: 3})
        kernel.run()
        (message,) = received
        assert isinstance(message, Message)
        assert (message.kind, message.src, message.dst,
                message.line_address, message.payload) == (
            "Data", "l1_0", "dst", 0x40, {"words": {0x40: 3}})
