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

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.sim.kernel import SimKernel


@dataclass
class Message:
    """A coherence/network message."""

    kind: str
    src: str
    dst: str
    line_address: int
    payload: dict[str, object] = field(default_factory=dict)

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
        self.messages_sent = 0

    def register(self, name: str, handler: Callable[[Message], None]) -> None:
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        self._endpoints[name] = handler

    def unregister_all(self) -> None:
        self._endpoints.clear()

    def send(self, message: Message, extra_latency: int = 0) -> None:
        """Deliver *message* to its destination after a random latency."""
        if message.dst not in self._endpoints:
            raise KeyError(f"unknown endpoint {message.dst!r}")
        self.messages_sent += 1
        latency = self.kernel.jitter(self.latency_min, self.latency_max)
        self.kernel.schedule(latency + extra_latency,
                             partial(self._endpoints[message.dst], message))

    def endpoints(self) -> tuple[str, ...]:
        return tuple(self._endpoints)
