"""Main-memory model.

Memory is value-accurate at word (stride) granularity: each address maps to
the value of the last write that reached memory.  Values are the globally
unique write identifiers assigned by the test engine, so reading memory
tells the observer exactly which write produced the value (paper §4.1:
"each write event is assigned a unique ID - the value to be written").
Unwritten locations read as zero, the initial value.
"""

from __future__ import annotations


class MainMemory:
    """Flat, sparse main memory holding word-granular values."""

    INITIAL_VALUE = 0

    def __init__(self, latency_min: int, latency_max: int) -> None:
        if latency_min > latency_max or latency_min < 0:
            raise ValueError("invalid memory latency range")
        self.latency_min = latency_min
        self.latency_max = latency_max
        self.clear()

    def read(self, address: int) -> int:
        return self._words.get(address, self.INITIAL_VALUE)

    def write(self, address: int, value: int) -> int:
        """Write a word; returns the value that was overwritten."""
        previous = self._words.get(address, self.INITIAL_VALUE)
        self._words[address] = value
        return previous

    def read_line(self, line_address: int, line_bytes: int, stride: int) -> dict[int, int]:
        """Return the word values of one cache line as {address: value}."""
        words = self._words
        initial = self.INITIAL_VALUE
        return {
            address: words.get(address, initial)
            for address in range(line_address, line_address + line_bytes,
                                 stride)
        }

    def write_line(self, words: dict[int, int]) -> None:
        for address, value in words.items():
            self._words[address] = value

    def clear_range(self, addresses: list[int]) -> None:
        """Reset the given addresses to the initial value (reset_test_mem)."""
        for address in addresses:
            self._words.pop(address, None)

    def clear(self) -> None:
        """Reset every word to the initial value."""
        self._words: dict[int, int] = {}

    def snapshot(self) -> dict[int, int]:
        return dict(self._words)
