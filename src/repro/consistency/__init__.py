"""Axiomatic memory consistency model framework and checker.

The framework follows the structure of Alglave et al.'s "herding cats"
formalisation (the same framework the paper's mc2lib checker implements):
candidate executions are sets of events related by program order (po),
reads-from (rf), coherence order (co) and the derived from-reads (fr)
relation; a memory model contributes the preserved program order (ppo) and
fence orderings; constraints are acyclicity/irreflexivity requirements over
unions of these relations.

Because the simulator observes all conflict orders, checking is a
polynomial-time graph search (paper §2.1, §4.1): no candidate-execution
enumeration is needed.
"""

from repro.consistency.events import Event, EventKind, init_write
from repro.consistency.execution import (CandidateExecution, ExecutionGraph,
                                         execution_from_trace)
from repro.consistency.models import (MemoryModel, SequentialConsistency,
                                      TotalStoreOrder, model_by_name)
from repro.consistency.checker import (CheckResult, Checker, Violation,
                                       is_acyclic)
from repro.consistency.memo import (CachedVerdict, VerdictCache,
                                    VerdictCacheDelta, VerdictCacheState)
from repro.consistency.signature import execution_signature

__all__ = [
    "Event",
    "EventKind",
    "init_write",
    "CandidateExecution",
    "ExecutionGraph",
    "execution_from_trace",
    "MemoryModel",
    "SequentialConsistency",
    "TotalStoreOrder",
    "model_by_name",
    "CheckResult",
    "Checker",
    "is_acyclic",
    "Violation",
    "CachedVerdict",
    "VerdictCache",
    "VerdictCacheDelta",
    "VerdictCacheState",
    "execution_signature",
]
