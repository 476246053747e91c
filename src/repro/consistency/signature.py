"""Exact execution-graph keys for collective checking (MTraceCheck).

Iterations of one test keep producing the very same execution — the
same events, the same reads-from and the same coherence order — and
litmus campaigns re-run a handful of programs.  The verdict cache
(:mod:`repro.consistency.memo`) therefore keys each verdict on the exact
integer form of the execution
(:class:`~repro.consistency.execution.ExecutionGraph`), so the checker
pays full cost only on graphs it has not seen yet (MTraceCheck's
collective checking; see SNIPPETS.md §2).

Soundness is immediate: equal keys mean identical graphs under the same
model, and the checker's verdict is a function of exactly that.  Op ids
and write values are left out, because no check reads them, and so is
``cycle_size``, which follows from ``rf_source`` and ``co_next``.
"""

from __future__ import annotations

import hashlib
import pickle

from repro.consistency.execution import CandidateExecution
from repro.consistency.models import MemoryModel


def _exact_key(execution: CandidateExecution, model: MemoryModel) -> tuple:
    """A flat tuple equal exactly when two executions have the same graph.

    The sizes and thread lengths come first, so every per-event list
    below has a known length and the RMW pairs take up the rest.
    """
    graph = execution.graph
    return (model.name, graph.program_size, graph.size, len(graph.threads),
            *[len(ids) for ids in graph.threads], *graph.address,
            *graph.is_read, *graph.is_atomic, *graph.po_index,
            *graph.rf_source, *graph.co_next,
            *[node for pair in graph.rmw_pairs for node in pair])


def execution_signature(execution: CandidateExecution,
                        model: MemoryModel) -> str:
    """The SHA-256 hex digest of *execution*'s exact graph under *model*.

    The key is hashed as its protocol-4 pickle.  For a tuple of one
    ``str`` and ints that byte stream depends only on the values: the
    string is length-prefixed, every int is written in a fixed
    little-endian opcode (unbounded bridge addresses included) and no
    hash order enters, so digests agree across processes, hosts and
    ``PYTHONHASHSEED`` values — cache keys travel between workers.
    """
    key = pickle.dumps(_exact_key(execution, model), protocol=4)
    return hashlib.sha256(key).hexdigest()
