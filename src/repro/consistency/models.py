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

Both models differ from full program order in one pair kind, so a model
states its ppo as one flag, ``orders_write_read``, and
:func:`~repro.consistency.execution.program_order_edges` builds that ppo
together with po-loc in one walk per thread.  The checker's edges and
the diagnostic relation both come from that walk.
"""

from __future__ import annotations

from repro.consistency.execution import (CandidateExecution,
                                         program_order_edges)
from repro.consistency.relations import Relation


class MemoryModel:
    """Base class for axiomatic models.

    A model sets :attr:`orders_write_read` (its ppo) and
    :attr:`includes_internal_rf`; the checker's integer edges and the
    event-level relation the diagnostics walk both derive from them.
    """

    name = "abstract"
    #: include internal (same-thread) rf edges in the global check
    includes_internal_rf = True
    #: ppo keeps a write before a later read of the same thread
    orders_write_read = True

    def preserved_program_order(self, execution: CandidateExecution) -> Relation:
        """ppo as an event-level relation, sources in program order."""
        _, (sources, targets) = program_order_edges(execution.graph,
                                                    self.orders_write_read)
        return execution.relation_of(sorted(zip(sources, targets)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class SequentialConsistency(MemoryModel):
    """SC: nothing is reordered (Lamport 1979); ppo is program order."""

    name = "SC"
    includes_internal_rf = True
    orders_write_read = True


class TotalStoreOrder(MemoryModel):
    """TSO: write->read may be reordered; locked RMWs are fences.

    With ``orders_write_read`` off, the generator edges
    :func:`~repro.consistency.execution.program_order_edges` emits per
    thread are:

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
    orders_write_read = False


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
