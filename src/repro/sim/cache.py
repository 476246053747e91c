"""Set-associative cache array with LRU replacement.

The array is protocol-agnostic: each line holds a protocol state string,
word-granular data and arbitrary metadata used by the coherence controllers
(sharer lists, timestamps, access counters...).  Controllers own the state
machine; the array only provides lookup, allocation and LRU victim
selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.sim.config import CacheConfig


@dataclass(slots=True)
class CacheLine:
    """One cache line: tag (line address), protocol state, word data."""

    line_address: int
    state: str
    words: dict[int, int] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)
    last_use: int = 0

    def read_word(self, address: int, default: int = 0) -> int:
        return self.words.get(address, default)

    def write_word(self, address: int, value: int) -> int:
        previous = self.words.get(address, 0)
        self.words[address] = value
        return previous


class CacheArray:
    """Set-associative array of :class:`CacheLine` with LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # The geometry, read once: the per-access paths below inline
        # ``CacheConfig.set_index``/``line_address`` on these.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(self._num_sets)]
        self.reset()

    def reset(self) -> None:
        """Empty every set and restart the LRU clock."""
        for cache_set in self._sets:
            cache_set.clear()
        self._use_counter = 0

    def lookup(self, address: int, touch: bool = True) -> CacheLine | None:
        """Find the line containing *address* (None on miss)."""
        line_bytes = self._line_bytes
        line_address = address - address % line_bytes
        line = self._sets[(line_address // line_bytes)
                          % self._num_sets].get(line_address)
        if line is not None and touch:
            self._use_counter += 1
            line.last_use = self._use_counter
        return line

    def allocate(self, line_address: int, state: str,
                 words: dict[int, int] | None = None) -> CacheLine:
        """Insert a new line.  The set must have a free way (see needs_victim)."""
        line_bytes = self._line_bytes
        if line_address % line_bytes != 0:
            raise ValueError(f"unaligned line address {line_address:#x}")
        cache_set = self._sets[(line_address // line_bytes) % self._num_sets]
        if line_address in cache_set:
            raise ValueError(f"line {line_address:#x} already present")
        if len(cache_set) >= self._ways:
            raise ValueError(
                f"set for {line_address:#x} is full; evict a victim first")
        self._use_counter += 1
        line = CacheLine(line_address=line_address, state=state,
                         words=dict(words) if words else {},
                         last_use=self._use_counter)
        cache_set[line_address] = line
        return line

    def needs_victim(self, line_address: int) -> bool:
        """True when allocating *line_address* requires evicting a line."""
        line_bytes = self._line_bytes
        line_address -= line_address % line_bytes
        cache_set = self._sets[(line_address // line_bytes) % self._num_sets]
        return (line_address not in cache_set
                and len(cache_set) >= self._ways)

    def select_victim(self, line_address: int,
                      exclude_states: tuple[str, ...] = ()) -> CacheLine | None:
        """Pick the LRU line of the target set, skipping excluded states.

        Lines in transient states must not be chosen as victims; callers
        pass those states via *exclude_states*.  Returns None when every
        line in the set is excluded (the requester must retry later).
        """
        line_bytes = self._line_bytes
        line_address -= line_address % line_bytes
        cache_set = self._sets[(line_address // line_bytes) % self._num_sets]
        candidates = [line for line in cache_set.values()
                      if line.state not in exclude_states]
        if not candidates:
            return None
        return min(candidates, key=lambda line: line.last_use)

    def evict(self, line_address: int) -> CacheLine:
        """Remove and return the line (must be present)."""
        cache_set = self._sets[(line_address // self._line_bytes)
                               % self._num_sets]
        try:
            return cache_set.pop(line_address)
        except KeyError:
            raise KeyError(f"line {line_address:#x} not present") from None

    def contains(self, address: int) -> bool:
        return self.lookup(address, touch=False) is not None

    def all_lines(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def flush_all(self) -> list[CacheLine]:
        """Drop every line (used by reset_test_mem); returns dropped lines."""
        dropped: list[CacheLine] = []
        for cache_set in self._sets:
            dropped.extend(cache_set.values())
            cache_set.clear()
        return dropped

    def occupancy(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)
