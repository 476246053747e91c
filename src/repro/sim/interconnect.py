"""On-chip interconnect model.

The paper uses GARNET (a 2D mesh).  For MCM verification what matters is
that message delivery latency varies and that messages on different virtual
networks are *not* ordered with respect to each other - in particular an
Invalidation can overtake a Data response that was sent earlier, which is
exactly the race behind the IS-state "Peekaboo" bugs.  This module models a
set of named endpoints exchanging messages whose latency is drawn from a
configurable range using the kernel RNG, with no cross-message ordering
guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappush
from typing import Callable

from repro.sim.kernel import SimKernel


@dataclass(slots=True)
class Message:
    """A coherence/network message."""

    kind: str
    src: str
    dst: str
    line_address: int
    payload: dict[str, object]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.kind} {self.src}->{self.dst} "
                f"line={self.line_address:#x} {self.payload}")


class Interconnect:
    """Delivers messages between registered endpoints with random latency."""

    def __init__(self, kernel: SimKernel, latency_min: int, latency_max: int) -> None:
        if latency_min < 1 or latency_min > latency_max:
            raise ValueError("invalid network latency range")
        self.kernel = kernel
        self.latency_min = latency_min
        self.latency_max = latency_max
        self._endpoints: dict[str, Callable[[Message], None]] = {}
        # ``send`` inlines ``kernel.jitter(latency_min, latency_max)``.
        self._width = latency_max - latency_min + 1
        self._bits = self._width.bit_length()
        self._getrandbits = kernel.rng.getrandbits
        self.reset()

    def reset(self) -> None:
        """Zero the message count; the endpoints stay registered."""
        self.messages_sent = 0

    def register(self, name: str, handler: Callable[[Message], None]) -> None:
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        self._endpoints[name] = handler

    def close(self) -> None:
        """Drop every endpoint: the network delivers nothing more."""
        self._endpoints.clear()

    def send(self, kind: str, dst: str, line_address: int,
             extra_latency: int = 0, *, src: str, **payload: object) -> None:
        """Deliver a message to *dst* after a random latency."""
        try:
            handler = self._endpoints[dst]
        except KeyError:
            raise KeyError(f"unknown endpoint {dst!r}") from None
        self.messages_sent += 1
        offset = self._getrandbits(self._bits)
        while offset >= self._width:
            offset = self._getrandbits(self._bits)
        kernel = self.kernel
        heappush(kernel.queue,
                 [kernel.now + self.latency_min + offset + extra_latency,
                  kernel.next_seq(),
                  partial(handler, Message(kind, src, dst, line_address,
                                           payload))])
