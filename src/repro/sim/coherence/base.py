"""Shared infrastructure for coherence controllers."""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Callable

from repro.sim.coverage import CoverageCollector
from repro.sim.faults import FaultSet, ProtocolError
from repro.sim.interconnect import Interconnect, Message
from repro.sim.kernel import SimKernel


class InvalidationReason(Enum):
    """Why the L1 notified the load queue that a line went away."""

    INVALIDATION = "invalidation"          # external invalidation / recall
    REPLACEMENT = "replacement"            # local capacity/conflict eviction
    SELF_INVALIDATION = "self_invalidation"  # TSO-CC self-invalidation
    FLUSH = "flush"                        # explicit cache flush (clflush)
    FENCE = "fence"                        # RMW / fence induced invalidation


# Signature of the callback the L1 uses to tell the core's load queue that a
# cache line was invalidated/evicted: (line_address, reason).
InvalidationListener = Callable[[int, InvalidationReason], None]


class CoherenceController:
    """Base class: message plumbing, coverage recording, error reporting."""

    controller_kind = "controller"

    def __init__(self, name: str, kernel: SimKernel, network: Interconnect,
                 coverage: CoverageCollector, faults: FaultSet) -> None:
        self.name = name
        self.kernel = kernel
        self.network = network
        self.coverage = coverage
        self.faults = faults
        # ``record_transition(state, event)`` records one coverage
        # transition.  The partial runs in C, so each transition costs
        # one Python frame (``record``), not two.
        self.record_transition = partial(coverage.record,
                                         self.controller_kind)
        # ``send(kind, dst, line_address, extra_latency=0, **payload)``:
        # the network's one send, with this controller as the source.
        self.send = partial(network.send, src=name)
        network.register(name, self.handle_message)

    # -- coverage / errors -------------------------------------------------

    def invalid_transition(self, state: str, event: str, detail: str = "") -> None:
        raise ProtocolError(self.controller_kind, state, event, detail)

    # -- messaging ---------------------------------------------------------

    def handle_message(self, message: Message) -> None:  # pragma: no cover
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover
        """Drop every line and all in-flight state, as if just built.

        The one place a controller's per-iteration state is assigned:
        each constructor calls it last.
        """
        raise NotImplementedError

    def quiescent(self) -> bool:  # pragma: no cover
        raise NotImplementedError
