"""Candidate executions: events plus observed conflict orders.

A candidate execution is built from (a) the static test program, which gives
each thread's program order and the event each operation maps to, and (b)
the dynamic observations of one iteration (:class:`repro.sim.trace.ExecutionTrace`),
which give reads-from (rf) and coherence order (co).  From-reads (fr) is
derived.  Because write values are globally unique identifiers, the mapping
from an observed value to the producing write event is exact (value 0 maps
to the per-address init write).

The builder reads the program as :data:`Program` rows: each thread is a
``(pid, rows)`` pair and each row a :class:`~repro.sim.testprogram.TestOp`'s
fields in order, ``(op_id, kind, address, value, delay)``.
:func:`program_rows` converts ``TestThread`` lists to that form, so the
engine converts its program once per test-run and trace ingest fills
rows without building a ``TestOp`` per event.

Every execution has one dense integer form, :class:`ExecutionGraph`, and
the whole checking hot path (signature, acyclicity checks, atomicity, NDT
conflict edges) runs on it without hashing an :class:`Event`.  A
trace-built execution is born in that form; its ``events`` and relation
fields are materialised only on first access (diagnostics, tests).  A
hand-built execution fills in the relation fields and derives the same
integer form from them on first use.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from repro.consistency.events import Event, init_write, read_event, write_event
from repro.consistency.relations import Relation
from repro.sim.testprogram import OpKind, TestThread
from repro.sim.trace import ExecutionTrace

_RMW = OpKind.RMW
_WRITE_OP = OpKind.WRITE

#: A static test program as rows: each thread's ``(pid, rows)`` in
#: order, each row ``(op_id, kind, address, value, delay)``.
Program = list[tuple[int, tuple[tuple, ...]]]


class ExecutionBuildError(ValueError):
    """Raised when the observed trace is internally inconsistent.

    This is itself a verification outcome: for example, a read observing a
    value that no write ever produced, or two writes claiming to have
    overwritten the same value (a branching coherence order), indicate data
    corruption in the simulated memory system.
    """


class ExecutionGraph:
    """The dense integer form of one candidate execution.

    Events are numbered once: program events ``0 .. program_size - 1``
    thread-major in program order, then one init write per address in
    ascending address order (``init_id``), then — only for malformed
    traces — init writes of addresses no program event touches.  Every
    per-event list is indexed by that number:

    * ``pid``, ``po_index``, ``address``, ``is_read``, ``is_atomic``,
      ``value`` and ``op_id`` describe the event (init writes have pid
      -1, po index -1, value 0 and op id None);
    * ``rf_source`` is the write a read reads from (-1 for writes);
    * ``co_next`` is a write's coherence successor (-1 if none);
    * ``co_position`` is a write's place in its own address's co chain
      (-1 for reads and for writes that chain never reaches).

    ``cycle_size`` bounds the nodes the cycle checks range over.  A
    trace-built graph points rf and co only at program events and gives
    every read a source, so no edge of either check ends at an init
    write: init writes have in-degree 0, lie on no cycle, and
    ``cycle_size`` is ``program_size``.  Only a hand-built execution
    can break that, and then ``cycle_size`` is ``size``.

    ``threads`` holds each thread's id range (``pids`` its pid),
    ``reads`` every read id in order, ``co_chains`` each address's
    chain of ids starting at its init write (ascending address order),
    and ``rmw_pairs`` the (read, write) ids of every read-modify-write.
    From-reads is not stored: it is ``read -> co_next[rf_source[read]]``.
    """

    __slots__ = ("program_size", "size", "cycle_size", "threads", "pids",
                 "pid", "po_index", "address", "is_read", "is_atomic",
                 "value", "op_id", "reads", "rf_source", "co_next",
                 "co_position", "co_chains", "init_id", "rmw_pairs", "_eids")

    def __init__(self, program_size: int, size: int, cycle_size: int,
                 threads: list[range], pids: list[int], pid: list[int],
                 po_index: list[int], address: list[int], is_read: list[bool],
                 is_atomic: list[bool], value: list[int],
                 op_id: list[int | None], reads: list[int],
                 rf_source: list[int], co_next: list[int],
                 co_position: list[int], co_chains: dict[int, list[int]],
                 init_id: dict[int, int],
                 rmw_pairs: list[tuple[int, int]]) -> None:
        self.program_size = program_size
        self.size = size
        self.cycle_size = cycle_size
        self.threads = threads
        self.pids = pids
        self.pid = pid
        self.po_index = po_index
        self.address = address
        self.is_read = is_read
        self.is_atomic = is_atomic
        self.value = value
        self.op_id = op_id
        self.reads = reads
        self.rf_source = rf_source
        self.co_next = co_next
        self.co_position = co_position
        self.co_chains = co_chains
        self.init_id = init_id
        self.rmw_pairs = rmw_pairs
        self._eids = None

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionGraph):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # mutable lists inside

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExecutionGraph(size={self.size}, "
                f"program_size={self.program_size}, pids={self.pids})")

    def eids(self) -> list[tuple]:
        """The :attr:`Event.eid` of every event, by id (built once)."""
        if self._eids is None:
            eids: list[tuple] = [
                (op_id, "R" if read else "W")
                for op_id, read in zip(self.op_id, self.is_read)]
            eids[self.program_size:] = [
                ("init", address)
                for address in self.address[self.program_size:]]
            self._eids = eids
        return self._eids

    def eid(self, node: int) -> tuple:
        return self.eids()[node]


class _Materialised:
    """An execution field a trace-built execution builds on first access."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, execution, owner=None):
        if execution is None:
            return self
        value = getattr(execution, self.slot)
        if value is None:
            execution._materialise()
            value = getattr(execution, self.slot)
        return value

    def __set__(self, execution, value) -> None:
        setattr(execution, self.slot, value)


class CandidateExecution:
    """One candidate execution: events and its po/rf/co/fr relations.

    ``events``, ``program_order``, ``rf`` (write -> read), ``co`` (write
    -> next write), ``fr`` (read -> later write), ``rf_sources`` and
    ``co_chains`` are the event-level view.  :attr:`graph` is the integer
    form every check runs on.  A hand-built execution (all fields default
    to empty) derives its graph from these fields on first use, so build
    it completely before checking it.
    """

    events = _Materialised()
    program_order = _Materialised()
    rf = _Materialised()
    co = _Materialised()
    fr = _Materialised()
    rf_sources = _Materialised()
    co_chains = _Materialised()

    def __init__(self, events: list[Event] | None = None,
                 program_order: dict[int, list[Event]] | None = None,
                 rf: Relation | None = None, co: Relation | None = None,
                 fr: Relation | None = None,
                 rf_sources: dict[Event, Event] | None = None,
                 co_chains: dict[int, list[Event]] | None = None) -> None:
        self._graph: ExecutionGraph | None = None
        self._co_pairs: list[tuple[int, int]] = []
        self._events = [] if events is None else events
        self._program_order = {} if program_order is None else program_order
        self._rf = Relation() if rf is None else rf
        self._co = Relation() if co is None else co
        self._fr = Relation() if fr is None else fr
        self._rf_sources = {} if rf_sources is None else rf_sources
        self._co_chains = {} if co_chains is None else co_chains

    @classmethod
    def from_graph(cls, graph: ExecutionGraph,
                   co_pairs: list[tuple[int, int]]) -> "CandidateExecution":
        """A trace-built execution; *co_pairs* are the observed co edges
        in observation order (the ``co`` relation's insertion order)."""
        execution = cls.__new__(cls)
        execution._graph = graph
        execution._co_pairs = co_pairs
        execution._events = execution._program_order = None
        execution._rf = execution._co = execution._fr = None
        execution._rf_sources = execution._co_chains = None
        return execution

    @property
    def graph(self) -> ExecutionGraph:
        """The integer form (derived from the relations if hand-built)."""
        if self._graph is None:
            self._graph = _graph_from_relations(self)
        return self._graph

    def nodes(self) -> list[Event]:
        """Every event by integer id: program events, then init writes."""
        graph = self.graph
        return self.events + [init_write(address) for address
                              in graph.address[graph.program_size:]]

    def _materialise(self) -> None:
        """Build the event-level fields from the graph.

        Insertion order is the build order: events thread-major, rf and
        fr by read, co edges in observation order, chains by ascending
        address.  Relation walks, and with them the diagnostic cycles,
        depend on that order.
        """
        graph = self.graph
        events: list[Event] = []
        for node in range(graph.program_size):
            make = read_event if graph.is_read[node] else write_event
            events.append(make(graph.op_id[node], graph.pid[node],
                               graph.po_index[node], graph.address[node],
                               graph.value[node],
                               is_atomic=graph.is_atomic[node]))
        self._events = events
        nodes = self.nodes()
        self._program_order = {pid: events[ids.start:ids.stop]
                               for pid, ids in zip(graph.pids, graph.threads)}
        rf, rf_sources, fr = Relation(), {}, Relation()
        for read in graph.reads:
            source = graph.rf_source[read]
            rf.add(nodes[source], nodes[read])
            rf_sources[nodes[read]] = nodes[source]
        for read in graph.reads:
            source = graph.rf_source[read]
            if graph.co_position[source] >= 0 and graph.co_next[source] >= 0:
                fr.add(nodes[read], nodes[graph.co_next[source]])
        self._rf, self._rf_sources, self._fr = rf, rf_sources, fr
        self._co = Relation((nodes[first], nodes[second])
                            for first, second in self._co_pairs)
        self._co_chains = {address: [nodes[node] for node in chain]
                           for address, chain in graph.co_chains.items()}

    # -- convenience accessors -------------------------------------------

    @property
    def reads(self) -> list[Event]:
        return [event for event in self.events if event.is_read]

    @property
    def writes(self) -> list[Event]:
        return [event for event in self.events if event.is_write]

    def events_of_thread(self, pid: int) -> list[Event]:
        return list(self.program_order.get(pid, []))

    def relation_of(self, id_edges: Iterable[tuple[int, int]]) -> Relation:
        """The event-level relation of (source, target) id pairs, added
        in the order given."""
        nodes = self.nodes()
        return Relation((nodes[src], nodes[dst]) for src, dst in id_edges)

    def po_loc_edges(self) -> Relation:
        """Per-thread, per-address program order successor edges."""
        po_loc, _ = program_order_edges(self.graph)
        return self.relation_of(zip(*po_loc))

    def conflict_edges(self) -> set[tuple[tuple, tuple]]:
        """(rf union co) as pairs of event ids - the paper's rf/co union.

        This is what the engine accumulates across iterations to compute the
        test's non-determinism (NDT, paper Definition 1).
        """
        graph = self.graph
        eids = graph.eids()
        rf_source = graph.rf_source
        pairs = {(eids[rf_source[read]], eids[read]) for read in graph.reads}
        pairs.update((eids[write], eids[later])
                     for write, later in enumerate(graph.co_next)
                     if later >= 0)
        return pairs

    def atomic_pairs(self) -> list[tuple[Event, Event]]:
        """(read, write) event pairs originating from the same RMW."""
        events = self.events
        return [(events[read], events[write])
                for read, write in self.graph.rmw_pairs]


Edges = tuple[list[int], list[int]]


def program_order_edges(graph: ExecutionGraph, orders_write_read: bool = True,
                        ) -> tuple[Edges, Edges]:
    """The (po-loc, ppo) edges of *graph*, in one walk per thread.

    po-loc joins each event to its thread's previous event at the same
    address.  ppo is a generator set whose closure over each thread is
    the preserved program order: with *orders_write_read* it is every
    immediate program-order pair.  Without it (a store buffer), a read
    may pass an earlier write: a write followed by a read stays ordered
    only when either is half of an RMW (locked RMWs fence), every
    other immediate pair is kept, and each thread's reads and its
    writes are chained, so the closure still orders every read before
    all later events and every write before all later writes.
    """
    loc_sources: list[int] = []
    loc_targets: list[int] = []
    ppo_sources: list[int] = []
    ppo_targets: list[int] = []
    add_loc_source, add_loc_target = loc_sources.append, loc_targets.append
    add_ppo_source, add_ppo_target = ppo_sources.append, ppo_targets.append
    address = graph.address
    is_read = graph.is_read
    is_atomic = graph.is_atomic
    # One map for every thread: an entry below a thread's first id was
    # left by an earlier thread.
    last: dict[int, int] = {}
    for ids in graph.threads:
        start = ids.start
        if orders_write_read:
            ppo_sources += ids[:-1]
            ppo_targets += ids[1:]
        last_read = last_write = -1
        for node in ids:
            location = address[node]
            previous = last.get(location, -1)
            if previous >= start:
                add_loc_source(previous)
                add_loc_target(node)
            last[location] = node
            if orders_write_read:
                continue
            if is_read[node]:
                if last_read >= 0:
                    add_ppo_source(last_read)
                    add_ppo_target(node)
                if (node > start and not is_read[node - 1]
                        and (is_atomic[node] or is_atomic[node - 1])):
                    add_ppo_source(node - 1)
                    add_ppo_target(node)
                last_read = node
            else:
                if last_write >= 0:
                    add_ppo_source(last_write)
                    add_ppo_target(node)
                if node > start and is_read[node - 1]:
                    add_ppo_source(node - 1)
                    add_ppo_target(node)
                last_write = node
    return (loc_sources, loc_targets), (ppo_sources, ppo_targets)


_op_row = attrgetter("op_id", "kind", "address", "value", "delay")


def program_rows(threads: list[TestThread]) -> Program:
    """*threads* as program rows, the form :func:`execution_from_trace`
    reads: each thread's pid and its ops' fields in order.

    A row is a :class:`~repro.sim.testprogram.TestOp`'s fields in
    declaration order, so ``TestOp(*row)`` rebuilds the op; trace
    ingest writes its rows in the same order.
    """
    return [(thread.pid, tuple(map(_op_row, thread.ops)))
            for thread in threads]


def _check_unique_op_ids(program: Program) -> None:
    # atomic_pairs() and event lookups key events by bare op id, so an
    # op-id collision silently aliases events.  Generated programs
    # number ops globally and trace ingest rejects reuse with its own
    # error, so this guards hand-built programs.
    op_owner: dict[int, int] = {}
    for pid, ops in program:
        for op_id, kind, *_ in ops:
            if not kind.is_memory:
                continue
            if op_id in op_owner:
                raise ExecutionBuildError(
                    f"op id {op_id} is reused by threads "
                    f"{op_owner[op_id]} and {pid}; op ids "
                    "must be globally unique")
            op_owner[op_id] = pid


def execution_from_trace(program: Program | list[TestThread],
                         trace: ExecutionTrace) -> CandidateExecution:
    """Combine the static program with one iteration's observations.

    *program* is :data:`Program` rows; a ``TestThread`` list is
    converted with :func:`program_rows` first.
    """
    if program and isinstance(program[0], TestThread):
        program = program_rows(program)
    # A later thread with a repeated pid replaces the earlier one's
    # events but keeps its place, as a pid-keyed dict does.
    by_pid: dict[int, tuple[tuple, ...]] = dict(program)

    # One row per event: (op id, address, value, is_read, is_atomic);
    # reads get value None until the observations fill it in.
    rows: list[tuple] = []
    pids: list[int] = []
    ranges: list[range] = []
    pid_of: list[int] = []
    po_index: list[int] = []
    reads: list[int] = []
    read_op_ids: list[int] = []
    rmw_pairs: list[tuple[int, int]] = []
    flush_op_ids: list[int] = []
    write_of_op: dict[int, int] = {}
    write_by_value: dict[int, int] = {}
    add_row, add_read, add_read_op = (rows.append, reads.append,
                                      read_op_ids.append)
    for pid, ops in by_pid.items():
        start = node = len(rows)
        for op, kind, location, written, _ in ops:
            if kind.is_load:
                add_read(node)
                add_read_op(op)
                add_row((op, location, None, True, False))
                node += 1
            elif kind is _WRITE_OP:
                write_of_op[op] = write_by_value[written] = node
                add_row((op, location, written, False, False))
                node += 1
            elif kind is _RMW:
                add_read(node)
                add_read_op(op)
                rmw_pairs.append((node, node + 1))
                write_of_op[op] = write_by_value[written] = node + 1
                add_row((op, location, None, True, True))
                add_row((op, location, written, False, True))
                node += 2
            elif kind.is_memory:
                # CACHE_FLUSH produces no event (nor does DELAY), but
                # its op id still counts towards uniqueness.
                flush_op_ids.append(op)
        count = node - start
        pids.append(pid)
        ranges.append(range(start, start + count))
        pid_of += [pid] * count
        po_index += range(count)
    program_size = len(rows)
    op_id, address, value, is_read, is_atomic = (
        map(list, zip(*rows)) if rows else ([], [], [], [], []))
    distinct_op_ids = set(op_id)
    distinct_op_ids.update(flush_op_ids)
    if (len(by_pid) != len(program) or len(distinct_op_ids)
            != program_size - len(rmw_pairs) + len(flush_op_ids)):
        _check_unique_op_ids(program)

    # Init writes: one per address, ascending.
    addresses = sorted(set(address))
    inits = len(addresses)
    init_id = dict(zip(addresses, range(program_size,
                                        program_size + inits)))
    op_id += [None] * inits
    address += addresses
    value += [0] * inits
    is_read += [False] * inits
    is_atomic += [False] * inits
    pid_of += [-1] * inits
    po_index += [-1] * inits
    rf_source = [-1] * len(address)
    co_next = [-1] * len(address)

    def eid(node: int) -> tuple:
        if node >= program_size:
            return ("init", address[node])
        return (op_id[node], "R" if is_read[node] else "W")

    def source_write(location: int, observed: int) -> int:
        """The write that produced *observed* at *location*, or raise."""
        if observed == 0:
            node = init_id.get(location)
            if node is None:
                # Only a malformed trace overwrites the initial value of
                # an address no program event touches.
                node = init_id[location] = len(address)
                for column, entry in ((address, location), (pid_of, -1),
                                      (po_index, -1), (is_read, False),
                                      (is_atomic, False), (value, 0),
                                      (op_id, None), (rf_source, -1),
                                      (co_next, -1)):
                    column.append(entry)
            return node
        node = write_by_value.get(observed)
        if node is None:
            raise ExecutionBuildError(
                f"read observed value {observed} at {location:#x}, but no "
                "write produces that value (memory corruption)")
        if address[node] != location:
            raise ExecutionBuildError(
                f"read at {location:#x} observed value {observed} written "
                f"to {address[node]:#x} (memory corruption)")
        return node

    # Fill in read values, then rf.  Read and RMW rows both hold the
    # op id first and the observed value fourth.
    observed_reads = {row[0]: row[3]
                      for rows in (trace.read_rows, trace.rmw_rows)
                      for row in rows}
    observed = list(map(observed_reads.get, read_op_ids))
    if None in observed:
        read = reads[observed.index(None)]
        raise ExecutionBuildError(
            f"no observation for read event {eid(read)} "
            f"(thread {pid_of[read]} did not complete?)")
    for read, seen in zip(reads, observed):
        value[read] = seen
        location = address[read]
        if seen == 0:
            rf_source[read] = init_id[location]
            continue
        source = write_by_value.get(seen)
        if source is None or address[source] != location:
            source = source_write(location, seen)
        rf_source[read] = source

    # Coherence order from observed overwrites.  Write and RMW rows
    # both hold the op id first, the address third and the overwritten
    # value last.
    co_pairs: list[tuple[int, int]] = []
    for kind_rows in (trace.write_rows, trace.rmw_rows):
        for row in kind_rows:
            write = write_of_op.get(row[0])
            if write is None:
                raise ExecutionBuildError(
                    f"observed write for unknown op {row[0]}")
            location, overwritten = row[2], row[-1]
            previous = (init_id.get(location) if overwritten == 0
                        else write_by_value.get(overwritten))
            if previous is None or address[previous] != location:
                previous = source_write(location, overwritten)
            if previous == write:
                raise ExecutionBuildError(
                    f"write {eid(write)} observed to overwrite itself")
            existing = co_next[previous]
            if existing >= 0 and existing != write:
                raise ExecutionBuildError(
                    f"coherence order branches at {eid(previous)}: both "
                    f"{eid(existing)} and {eid(write)} overwrote value "
                    f"{value[previous]} (lost update)")
            co_next[previous] = write
            co_pairs.append((previous, write))

    # Per-address co chains, each from its init write (``init_id``).
    size = len(address)
    co_position = [-1] * size
    co_position[program_size:program_size + inits] = [0] * inits
    walked = [-1] * size
    co_chains: dict[int, list[int]] = {}
    for rank, location in enumerate(addresses):
        walker = program_size + rank
        chain = co_chains[location] = [walker]
        if co_next[walker] < 0:
            continue
        walked[walker] = rank
        while (walker := co_next[walker]) >= 0:
            if walked[walker] == rank:
                raise ExecutionBuildError(
                    f"coherence order at {location:#x} contains a cycle")
            walked[walker] = rank
            if address[walker] == location:
                co_position[walker] = len(chain)
            chain.append(walker)
    # Every serialised write must be coherence-ordered after its
    # address's initial value; one its chain never reaches sits on a
    # cycle of overwrites (or hangs off another address's chain).
    for _, write in co_pairs:
        if co_position[write] < 0:
            raise ExecutionBuildError(
                f"coherence order at {address[write]:#x} never reaches "
                f"write {eid(write)} from the initial value (its "
                "overwrites form a cycle off the init chain)")

    graph = ExecutionGraph(
        program_size, size, program_size, ranges, pids, pid_of, po_index,
        address, is_read, is_atomic, value, op_id, reads, rf_source,
        co_next, co_position, co_chains, init_id, rmw_pairs)
    return CandidateExecution.from_graph(graph, co_pairs)


def _graph_from_relations(execution: CandidateExecution) -> ExecutionGraph:
    """The integer form of a hand-built execution.

    Program events are numbered from ``program_order`` exactly as the
    trace builder numbers them and init writes by ascending address, so
    a hand-built execution and a trace-built one of the same graph get
    equal forms.  rf sources come from ``rf``, coherence successors from
    ``co`` and chain positions from ``co_chains``.  Relations may point
    rf or co into an init write, which no trace builds; such a graph's
    cycle checks range over every node.  A read without an rf source is
    refused, as is one with two.
    """
    program_order = execution.program_order
    pids: list[int] = []
    ranges: list[range] = []
    program: list[Event] = []
    for pid, thread_events in program_order.items():
        pids.append(pid)
        ranges.append(range(len(program), len(program) + len(thread_events)))
        program.extend(thread_events)
    program_size = len(program)
    index: dict[Event, int] = {event: node
                               for node, event in enumerate(program)}
    addresses = sorted({event.address for event in program})
    nodes = program + [init_write(location) for location in addresses]
    init_id: dict[int, int] = {}
    for node in range(program_size, len(nodes)):
        index[nodes[node]] = node
        init_id[nodes[node].address] = node

    def locate(event: Event) -> int:
        node = index.get(event)
        if node is None:
            if not event.is_init:
                raise ValueError(f"relation names {event.eid}, which is "
                                 "not in the execution's program order")
            node = index[event] = init_id[event.address] = len(nodes)
            nodes.append(event)
        return node

    rf_pairs = [(locate(src), locate(dst))
                for src, dst in execution.rf.edges()]
    co_pairs = [(locate(src), locate(dst))
                for src, dst in execution.co.edges()]
    size = len(nodes)
    rf_source = [-1] * size
    for source, read in rf_pairs:
        if rf_source[read] >= 0:
            raise ValueError(f"read {nodes[read].eid} has two rf sources")
        rf_source[read] = source
    reads = [node for node in range(program_size) if nodes[node].is_read]
    for read in reads:
        if rf_source[read] < 0:
            raise ValueError(f"read {nodes[read].eid} has no rf source")
    co_next = [-1] * size
    for write, later in co_pairs:
        if co_next[write] >= 0:
            raise ValueError(f"write {nodes[write].eid} has two co "
                             "successors")
        co_next[write] = later
    co_position = [-1] * size
    co_chains: dict[int, list[int]] = {}
    for location, chain in execution.co_chains.items():
        ids = [locate(event) for event in chain]
        for position, node in enumerate(ids):
            if nodes[node].address == location:
                co_position[node] = position
        co_chains[location] = ids
    closed = all(target < program_size for _, target in rf_pairs + co_pairs)
    writes_by_op = {event.eid[0]: node for node, event in enumerate(program)
                    if event.is_write and event.is_atomic}
    rmw_pairs = [(node, writes_by_op[event.eid[0]])
                 for node, event in enumerate(program)
                 if event.is_read and event.is_atomic
                 and event.eid[0] in writes_by_op]
    return ExecutionGraph(
        program_size=program_size, size=size,
        cycle_size=program_size if closed else size, threads=ranges,
        pids=pids, pid=[event.pid for event in nodes],
        po_index=[event.po_index for event in nodes],
        address=[event.address for event in nodes],
        is_read=[event.is_read for event in nodes],
        is_atomic=[event.is_atomic for event in nodes],
        value=[event.value for event in nodes],
        op_id=[event.eid[0] for event in program] + [None] * (
            size - program_size),
        reads=reads, rf_source=rf_source, co_next=co_next,
        co_position=co_position, co_chains=co_chains, init_id=init_id,
        rmw_pairs=rmw_pairs)
