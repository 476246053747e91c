"""Load-queue squash rule and store buffer used by the core model.

These two pieces are split out of the core engine because they carry the
TSO-critical behaviour (and two of the studied bug sites):

* :class:`LoadQueueRule` implements the rule quoted in paper §5.3: *"if
  there exist any unperformed older reads and an invalidation is received,
  all newer reads are retried"*.  The LQ+no-TSO bug disables it.
* :class:`StoreBuffer` drains committed stores to the memory system in FIFO
  order, which is what yields TSO's write->write ordering.  The SQ+no-FIFO
  bug drains out of order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.sim.faults import Fault, FaultSet
from repro.sim.testprogram import TestOp


@dataclass(slots=True)
class RobEntry:
    """One in-flight operation in the reorder buffer."""

    op: TestOp
    performed: bool = False
    committed: bool = False
    value: int | None = None
    overwritten: int | None = None
    generation: int = 0
    request_outstanding: bool = False
    delay_remaining: int = 0
    rmw_started: bool = False


class LoadQueueRule:
    """Applies the TSO load-queue invalidation/squash rule."""

    def __init__(self, faults: FaultSet) -> None:
        self.faults = faults
        self._no_tso = faults.enabled(Fault.LQ_NO_TSO)
        self.reset()

    def reset(self) -> None:
        self.squashes = 0

    def apply(self, rob: Sequence[RobEntry]) -> list[RobEntry]:
        """Return the entries that must be squashed (retried).

        Called when the L1 notifies the core that a line was invalidated,
        evicted or self-invalidated.  The rule: if an older read is still
        unperformed, every read younger than the oldest unperformed read
        that has already bound a value - or has a request in flight whose
        value was bound before the invalidation - must be retried.
        Including in-flight requests closes the window in which a hit's
        value was read from the cache but the load is not yet marked
        performed when the invalidation is processed.
        """
        if self._no_tso:
            # BUG SITE (LQ+no-TSO): speculative loads are never squashed on
            # a forwarded invalidation.
            return []
        to_squash = []
        found_unperformed = False
        for entry in rob:
            if not entry.op.kind.is_load or entry.committed:
                continue
            if found_unperformed:
                if entry.performed or entry.request_outstanding:
                    to_squash.append(entry)
            elif not entry.performed:
                found_unperformed = True
        self.squashes += len(to_squash)
        return to_squash


@dataclass(slots=True)
class StoreBufferEntry:
    """A committed store (or cache flush) waiting to become globally visible."""

    op: TestOp
    draining: bool = False


class StoreBuffer:
    """Bounded FIFO store buffer (the SQ of the paper)."""

    def __init__(self, capacity: int, faults: FaultSet,
                 rng: random.Random | None) -> None:
        self.capacity = capacity
        self.faults = faults
        self._no_fifo = faults.enabled(Fault.SQ_NO_FIFO)
        self.reset(rng)

    def reset(self, rng: random.Random | None) -> None:
        """Empty the buffer; *rng* feeds the SQ+no-FIFO drain order."""
        self.rng = rng
        self.entries: list[StoreBufferEntry] = []
        # The entry last returned by next_to_drain.  Only such an entry
        # is ever marked draining, and while it drains no other is
        # offered, so it is the only one to check.
        self._offered: StoreBufferEntry | None = None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self.entries

    def push(self, op: TestOp) -> None:
        if self.full:
            raise RuntimeError("store buffer overflow (commit must stall)")
        self.entries.append(StoreBufferEntry(op))

    def forward_value(self, address: int) -> int | None:
        """Youngest not-yet-drained store value for *address* (TSO forwarding)."""
        for entry in reversed(self.entries):
            if entry.op.kind.writes_memory and entry.op.address == address:
                return entry.op.value
        return None

    def next_to_drain(self) -> StoreBufferEntry | None:
        """Pick the entry to drain next (None if busy or empty).

        The caller marks the returned entry ``draining`` when it starts
        draining it; until it completes, nothing else is offered.
        """
        entries = self.entries
        if not entries or (self._offered is not None
                           and self._offered.draining):
            return None
        if self._no_fifo and len(entries) > 1:
            # BUG SITE (SQ+no-FIFO): drain an arbitrary entry instead of the
            # oldest, making writes visible out of program order.
            entry = self.rng.choice(entries)
        else:
            entry = entries[0]
        self._offered = entry
        return entry

    def complete(self, entry: StoreBufferEntry) -> None:
        self.entries.remove(entry)
        if entry is self._offered:
            self._offered = None
