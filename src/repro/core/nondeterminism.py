"""Test non-determinism metrics NDT and NDe (paper Definitions 1-3).

During a test-run the simulator records the conflict orders (rf and co) of
every iteration.  ``rfcoRUN`` is their union across iterations; the average
non-determinism of a test (NDT) is ``|rfcoRUN| / n`` where n is the number
of memory events of the test, and the per-event non-determinism (NDe) is the
number of distinct events conflict-ordered before that event across the
test-run.  The set of *fit addresses* - addresses of events whose NDe
exceeds the rounded NDT - is what the selective crossover preserves.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

EventId = tuple
ConflictEdge = tuple[EventId, EventId]


def fit_fraction(addresses: list[int], fit: set[int]) -> float:
    """Fraction of *addresses* that are fit addresses."""
    if not addresses:
        return 0.0
    return sum(1 for address in addresses if address in fit) / len(addresses)


@dataclass
class TestRunStats:
    """Accumulates conflict orders and derives NDT / NDe / fitaddrs."""

    num_events: int
    event_addresses: dict[EventId, int] = field(default_factory=dict)
    rfco_run: set[ConflictEdge] = field(default_factory=set)
    iterations_observed: int = 0

    def add_iteration(self, conflict_edges: set[ConflictEdge]) -> None:
        """Fold one iteration's observed rf and co edges into rfcoRUN."""
        self.rfco_run.update(conflict_edges)
        self.iterations_observed += 1

    # ------------------------------------------------------------------

    def ndt(self) -> float:
        """Average non-determinism of the test (Definition 2)."""
        if self.num_events == 0:
            return 0.0
        return len(self.rfco_run) / self.num_events

    def nde(self) -> dict[EventId, int]:
        """Per-event non-determinism (Definition 3): predecessors in rfcoRUN."""
        predecessors: dict[EventId, set[EventId]] = defaultdict(set)
        for source, target in self.rfco_run:
            predecessors[target].add(source)
        return {event: len(sources) for event, sources in predecessors.items()}

    def fit_addresses(self) -> set[int]:
        """Addresses of events whose NDe exceeds the rounded NDT (paper §3.3)."""
        threshold = round(self.ndt())
        nde = self.nde()
        addresses = set()
        for event, degree in nde.items():
            if degree > threshold:
                address = self.event_addresses.get(event)
                if address is not None:
                    addresses.add(address)
        return addresses

    def fitaddr_fraction(self, memory_op_addresses: list[int]) -> float:
        """Fraction of memory operations whose address is a fit address."""
        return fit_fraction(memory_op_addresses, self.fit_addresses())
