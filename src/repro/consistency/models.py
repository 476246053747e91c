"""Axiomatic memory consistency models (SC and TSO).

A model contributes two ingredients to the checker:

* the *preserved program order* (ppo) plus fence-induced orderings, as a
  sparse generator relation whose transitive closure over each thread equals
  the model's ppo;
* whether internal reads-from edges (a thread reading its own earlier write
  out of its store buffer) participate in the global-happens-before check
  (they do under SC, they do not under TSO).

TSO (x86/SPARC): all program order is preserved except write->read to a
different or same location (the store buffer), and locked RMWs act as full
fences.  SC preserves all of program order.
"""

from __future__ import annotations

from repro.consistency.execution import (CandidateExecution, ExecutionGraph,
                                         po_edges)
from repro.consistency.relations import Relation

Edges = tuple[list[int], list[int]]


class MemoryModel:
    """Base class for axiomatic models.

    A model implements :meth:`preserved_program_order_edges` over the
    execution's integer form; the event-level relation the diagnostics
    walk is derived from it.
    """

    name = "abstract"
    #: include internal (same-thread) rf edges in the global check
    includes_internal_rf = True

    def preserved_program_order_edges(self, graph: ExecutionGraph) -> Edges:
        """ppo (+fences) generator edges as (sources, targets) id lists."""
        raise NotImplementedError

    def preserved_program_order(self, execution: CandidateExecution) -> Relation:
        """ppo as an event-level relation, sources in program order."""
        sources, targets = self.preserved_program_order_edges(execution.graph)
        return execution.relation_of(sorted(zip(sources, targets)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class SequentialConsistency(MemoryModel):
    """SC: nothing is reordered (Lamport 1979)."""

    name = "SC"
    includes_internal_rf = True

    def preserved_program_order_edges(self, graph: ExecutionGraph) -> Edges:
        return po_edges(graph)


class TotalStoreOrder(MemoryModel):
    """TSO: write->read may be reordered; locked RMWs are fences.

    The generator edges emitted per thread are:

    * ``event -> next event`` unless it is a write->read pair,
    * ``read -> next read``  (so reads order with all later events),
    * ``write -> next write`` (so writes order with all later writes),
    * around an atomic (RMW) pair: ``previous event -> rmw read`` and
      ``rmw write -> next event`` unconditionally (fence semantics).

    The transitive closure of these edges over one thread's events is
    exactly TSO's ppo (plus fences); the checker only needs reachability,
    so the sparse generator set suffices.
    """

    name = "TSO"
    includes_internal_rf = False

    def preserved_program_order_edges(self, graph: ExecutionGraph) -> Edges:
        sources: list[int] = []
        targets: list[int] = []
        is_read = graph.is_read
        is_atomic = graph.is_atomic
        for ids in graph.threads:
            for node in ids[:-1]:
                # Drop store->load pairs unless an RMW fences them.
                if (is_read[node] or not is_read[node + 1]
                        or is_atomic[node] or is_atomic[node + 1]):
                    sources.append(node)
                    targets.append(node + 1)
            for same_kind in ([node for node in ids if is_read[node]],
                              [node for node in ids if not is_read[node]]):
                sources += same_kind[:-1]
                targets += same_kind[1:]
        return sources, targets


_MODELS = {
    "SC": SequentialConsistency,
    "TSO": TotalStoreOrder,
}


def model_by_name(name: str) -> MemoryModel:
    try:
        return _MODELS[name.upper()]()
    except KeyError:
        raise ValueError(f"unknown memory model {name!r}; "
                         f"available: {sorted(_MODELS)}") from None
