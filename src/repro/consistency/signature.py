"""Canonical execution signatures for collective checking (MTraceCheck).

A campaign rediscovers the same interleavings constantly: two executions
that differ only in thread numbering, op ids or concrete addresses have
the same axiomatic verdict, because the three acyclicity checks in
:class:`~repro.consistency.checker.Checker` depend only on the *shape*
of the event graph — which events exist per thread, which addresses they
share, and the po/rf/co/fr (+RMW-pair) edge structure.  This module
compresses a :class:`~repro.consistency.execution.CandidateExecution`
into a canonical, renaming-invariant fingerprint of exactly that shape so
the checker pays full cost only on *novel* behaviours (MTraceCheck's
collective checking; see SNIPPETS.md §2).

Soundness is the one property everything downstream leans on: equal
canonical forms imply isomorphic execution graphs, which imply identical
verdicts (acyclicity is isomorphism-invariant and the serialized form
reconstructs every input of the verdict — thread shapes, per-execution
injective address ids, the rf/co edge sets, RMW pairs and the model
name; po is positional in the thread shapes, and fr and ppo are pure
functions of what the form already pins down).
The converse need not hold: an imperfect tie-break may *split* one
isomorphism class into several signatures, which costs a cache miss but
never merges distinct behaviours.  Canonicalization quality therefore
only affects hit-rate, never correctness.

Canonical renumbering orders threads by a renaming-invariant key: each
thread's shape vector (per-event kind/atomicity/address-profile, in
program order) refined by the sorted descriptors of every tagged
rf/co/RMW edge touching the thread.  That is one refinement pass
at thread granularity — deliberately cheaper than per-event
Weisfeiler-Leman color rounds, because this function runs on *every
checked iteration* and must stay well under the cost of the three cycle
checks it lets the checker skip.  Everything that touches an ordering is
sorted explicitly — set/dict hash order never leaks into the form, so
signatures are stable across processes and hosts (``PYTHONHASHSEED``
randomizes ``str`` hashes per process, and cache keys travel between
worker processes).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.consistency.execution import CandidateExecution
from repro.consistency.models import MemoryModel


@dataclass(frozen=True)
class ExecutionSignature:
    """A canonical fingerprint of one candidate execution.

    ``digest`` is a SHA-256 over the serialized canonical form — compact
    and collision-resistant, the default cache key.  ``form`` optionally
    retains the full canonical form (``keep_form=True``): keying on it is
    collision-*safe* by construction, which the signature tests and the
    cache's ``canonical`` keying mode use to prove the digest never has
    to be trusted blindly.
    """

    digest: str
    form: tuple | None = None

    @property
    def key(self):
        """The cache key: the full form when retained, else the digest."""
        return self.form if self.form is not None else self.digest


#: Integer relation tags of the refinement edges (ints hash and sort a
#: lot faster than the relation-name strings on this hot path).
_RF, _CO, _RMW = range(3)


def canonical_form(execution: CandidateExecution,
                   model: MemoryModel) -> tuple:
    """The canonical, renaming-invariant form of *execution* under *model*.

    The returned nested tuple of ints/strings/bools fully describes the
    execution graph up to renaming of threads, op ids and addresses:
    per-thread event shapes (kind, canonical address id, atomicity) plus
    the rf/co edge sets and RMW pairs over canonically renumbered
    events.  Two executions with equal forms are isomorphic and get
    identical verdicts under *model*.

    Everything runs on the execution's integer form
    (:class:`~repro.consistency.execution.ExecutionGraph`), and all sorts
    compare homogeneous all-int tuples directly — the checker calls this
    on every single iteration, so nothing here may hash an ``Event`` or
    sort with a ``repr`` key.  Canonical event names are
    ``(thread_rank, po_index)`` int pairs with init writes at thread rank
    ``-1``.
    """
    graph = execution.graph
    program_size = graph.program_size
    address = graph.address
    is_read = graph.is_read
    is_atomic = graph.is_atomic
    po_index = graph.po_index

    # Renaming-invariant profile of each address: its sorted access
    # multiset, each access coded 0..3 in (kind, atomicity) order.
    accesses: dict[int, list[int]] = {}
    for node in range(program_size):
        code = (0 if is_read[node] else 2) + is_atomic[node]
        accesses.setdefault(address[node], []).append(code)
    profiles = {location: tuple(sorted(codes))
                for location, codes in accesses.items()}
    profile_rank = {profile: rank
                    for rank, profile in
                    enumerate(sorted(set(profiles.values())))}

    # Every ordering below compares plain ints.  Each tuple the
    # refinement orders by — an event's (is_read, is_atomic, profile
    # rank), an endpoint's (thread shape rank, po index) descriptor, an
    # edge's (tag, direction, po index, descriptor) — is packed into one
    # int in base ``radix``, larger than every component, so the packed
    # ints sort exactly like the tuples would: the ranks, the thread
    # order and so the form (and its digest) do not depend on the
    # packing.
    radix = graph.size + 2
    event_code = [
        (is_read[node] * 2 + is_atomic[node]) * radix
        + profile_rank[profiles[address[node]]]
        for node in range(program_size)]

    # Only the *informative* cross-thread edges drive the refinement: po
    # is fully implied by each thread's own shape vector (a po edge says
    # "slot i precedes slot i+1 in the same thread" — zero discriminating
    # power), and fr is a pure function of rf and co (fr = rf⁻¹ ; co), so
    # both would only add cost, never separate threads.
    rf_source = graph.rf_source
    rf_edges = [(rf_source[read], read) for read in graph.reads]
    co_edges = [(write, later) for write, later in enumerate(graph.co_next)
                if later >= 0]

    # Thread shape vectors: the per-event local structure in program
    # order (position in the tuple *is* the po index, so op ids never
    # enter; addresses enter only through their invariant profile).
    shapes = [tuple(event_code[ids.start:ids.stop]) for ids in graph.threads]
    shape_rank = {shape: rank
                  for rank, shape in enumerate(sorted(set(shapes)))}

    # One refinement pass at thread granularity: every endpoint is
    # described invariantly as (thread shape rank, po index) — init
    # writes as (-1, address profile rank) — and each thread's key is
    # its shape plus the sorted descriptors of all edges touching it.
    # Threads left tied by this key are structurally interchangeable up
    # to deeper symmetry; their relative order falls back to input
    # order, which at worst splits an isomorphism class (a cache miss,
    # never a wrong verdict).
    thread_of = [0] * program_size
    descs: list[int] = []
    for thread, ids in enumerate(graph.threads):
        rank = (shape_rank[shapes[thread]] + 1) * radix
        for node in ids:
            thread_of[node] = thread
            descs.append(rank + po_index[node] + 1)
    for location in address[program_size:]:
        profile = profiles.get(location)
        descs.append(0 if profile is None else profile_rank[profile] + 1)
    touching: list[list[int]] = [[] for _ in graph.threads]
    span = radix * radix
    for tag, edges in ((_RF, rf_edges), (_CO, co_edges),
                       (_RMW, graph.rmw_pairs)):
        outgoing = tag * 2 * radix
        incoming = outgoing + radix
        for src, dst in edges:
            if src < program_size:
                touching[thread_of[src]].append(
                    (outgoing + po_index[src]) * span + descs[dst])
            if dst < program_size:
                touching[thread_of[dst]].append(
                    (incoming + po_index[dst]) * span + descs[src])
    thread_keys = [(shapes[thread], sorted(touching[thread]))
                   for thread in range(len(shapes))]
    ordered = sorted(range(len(shapes)), key=thread_keys.__getitem__)

    # Canonical names: program events become (thread_rank, po_index) and
    # init writes (-1, address_id); addresses get *injective* ids by
    # first occurrence in canonical traversal order (collapsing addresses
    # to profile classes alone would lose which events share a
    # location — unsound).
    names: list[tuple[int, int]] = [(0, 0)] * graph.size
    address_ids: dict[int, int] = {}
    for thread_rank, thread in enumerate(ordered):
        for node in graph.threads[thread]:
            names[node] = (thread_rank, po_index[node])
            if address[node] not in address_ids:
                address_ids[address[node]] = len(address_ids)
    for node in range(program_size, graph.size):
        if address[node] not in address_ids:
            address_ids[address[node]] = len(address_ids)
        names[node] = (-1, address_ids[address[node]])

    def edge_list(edges: list[tuple[int, int]]) -> tuple:
        return tuple(sorted((names[src], names[dst]) for src, dst in edges))

    threads_form = tuple(
        tuple(("R" if is_read[node] else "W", address_ids[address[node]],
               is_atomic[node])
              for node in graph.threads[thread])
        for thread in ordered)
    # No ppo or fr edge lists: ppo (+fences) is, for every model here, a
    # pure function of the per-thread (kind, atomicity) sequences that
    # threads_form captures completely, and fr is derived as rf⁻¹ ; co —
    # equal forms already imply both are isomorphic, so serializing them
    # would only re-derive what the form pins down, at signature cost.
    return (model.name, threads_form,
            ("rf", edge_list(rf_edges)),
            ("co", edge_list(co_edges)),
            ("rmw", edge_list(graph.rmw_pairs)))


#: Entries of the exact-graph digest memo before it is emptied.  A key
#: is a few hundred ints, so the memo stays within a few MB.
DIGEST_MEMO_LIMIT = 1024
_digest_memo: dict[tuple, str] = {}


def _exact_key(execution: CandidateExecution, model: MemoryModel) -> tuple:
    """A key equal exactly when two executions have the identical graph.

    Iterations of one test keep producing the very same execution (same
    events, same rf and co), and litmus campaigns re-run a handful of
    programs.  This flat tuple of the integer form is much cheaper to
    build and hash than the canonical form, so it fronts the canonical
    digest in a memo.  Equal keys mean equal graphs, hence equal forms.
    """
    graph = execution.graph
    return (model.name, graph.program_size, graph.size, len(graph.threads),
            *[len(ids) for ids in graph.threads], *graph.address,
            *graph.is_read, *graph.is_atomic, *graph.po_index,
            *graph.rf_source, *graph.co_next,
            *[node for pair in graph.rmw_pairs for node in pair])


def execution_signature(execution: CandidateExecution, model: MemoryModel,
                        keep_form: bool = False) -> ExecutionSignature:
    """Fingerprint *execution* under *model*.

    The digest hashes the repr of the canonical form — nested tuples of
    ints/strings/bools, so the byte stream is identical across processes
    and hosts.  ``keep_form=True`` additionally retains the form itself
    for collision-safe keying.  Digests are memoized per process by an
    exact-graph key, so an execution seen before skips
    canonicalization; the memo is a pure cache (emptied when it reaches
    :data:`DIGEST_MEMO_LIMIT`) and never changes a digest.
    """
    if keep_form:
        form = canonical_form(execution, model)
        return ExecutionSignature(digest=_digest(form), form=form)
    key = _exact_key(execution, model)
    digest = _digest_memo.get(key)
    if digest is None:
        digest = _digest(canonical_form(execution, model))
        if len(_digest_memo) >= DIGEST_MEMO_LIMIT:
            _digest_memo.clear()
        _digest_memo[key] = digest
    return ExecutionSignature(digest=digest)


def _digest(form: tuple) -> str:
    return hashlib.sha256(repr(form).encode("utf-8")).hexdigest()
