"""Observation of conflict orders during execution (paper §4.1).

Because we are in simulation (pre-silicon), all conflict orders are visible:
every committed read records which write produced its value (rf), and every
write serialisation records which value it overwrote (co).  Values are the
globally unique write identifiers assigned at test construction time, so the
mapping from an observed value back to the producing write event is exact.
Value ``0`` denotes the initial value of memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, init=False)
class ReadRecord:
    """One committed read: which value (write id) it observed.

    The simulator and trace ingest build one per event, so ``__init__``
    is hand-written: one ``__dict__`` update instead of an
    ``object.__setattr__`` per field.  A new field must be added to it
    too (``tests/test_record_init.py`` fails otherwise).
    """

    op_id: int
    pid: int
    address: int
    value: int

    def __init__(self, op_id: int, pid: int, address: int,
                 value: int) -> None:
        self.__dict__.update(op_id=op_id, pid=pid, address=address,
                             value=value)


@dataclass(frozen=True, init=False)
class WriteRecord:
    """One serialised write: its value and the value it overwrote.

    The simulator and trace ingest build one per event, so ``__init__``
    is hand-written: one ``__dict__`` update instead of an
    ``object.__setattr__`` per field.  A new field must be added to it
    too (``tests/test_record_init.py`` fails otherwise).
    """

    op_id: int
    pid: int
    address: int
    value: int
    overwritten: int

    def __init__(self, op_id: int, pid: int, address: int, value: int,
                 overwritten: int) -> None:
        self.__dict__.update(op_id=op_id, pid=pid, address=address,
                             value=value, overwritten=overwritten)


@dataclass(frozen=True, init=False)
class RmwRecord:
    """One atomic read-modify-write (maps to a read and a write event).

    The simulator and trace ingest build one per event, so ``__init__``
    is hand-written: one ``__dict__`` update instead of an
    ``object.__setattr__`` per field.  A new field must be added to it
    too (``tests/test_record_init.py`` fails otherwise).
    """

    op_id: int
    pid: int
    address: int
    read_value: int
    written_value: int
    overwritten: int

    def __init__(self, op_id: int, pid: int, address: int, read_value: int,
                 written_value: int, overwritten: int) -> None:
        self.__dict__.update(op_id=op_id, pid=pid, address=address,
                             read_value=read_value,
                             written_value=written_value,
                             overwritten=overwritten)


@dataclass
class ExecutionTrace:
    """Everything observed during one test iteration."""

    reads: list[ReadRecord] = field(default_factory=list)
    writes: list[WriteRecord] = field(default_factory=list)
    rmws: list[RmwRecord] = field(default_factory=list)
    commit_order: dict[int, list[int]] = field(default_factory=dict)

    def record_read(self, op_id: int, pid: int, address: int, value: int) -> None:
        self.reads.append(ReadRecord(op_id, pid, address, value))
        self.commit_order.setdefault(pid, []).append(op_id)

    def record_write(self, op_id: int, pid: int, address: int, value: int,
                     overwritten: int, commit: bool = True) -> None:
        """Record one serialised write.

        ``commit=False`` is the two-phase simulator path: the pipeline
        commits a write into its store buffer (appearing in
        ``commit_order`` via :meth:`record_commit`) long before the
        cache serialises it and this method runs.  Every other caller
        — ingestion bridges in particular — records commit and
        serialisation as one event, so committing here is the default:
        the three ``record_*`` methods then behave uniformly.
        """
        self.writes.append(WriteRecord(op_id, pid, address, value, overwritten))
        if commit:
            self.commit_order.setdefault(pid, []).append(op_id)

    def record_commit(self, op_id: int, pid: int) -> None:
        """Record the commit of a non-read operation (for program order)."""
        self.commit_order.setdefault(pid, []).append(op_id)

    def record_rmw(self, op_id: int, pid: int, address: int, read_value: int,
                   written_value: int, overwritten: int) -> None:
        self.rmws.append(RmwRecord(op_id, pid, address, read_value,
                                   written_value, overwritten))
        self.commit_order.setdefault(pid, []).append(op_id)

    def validate(self) -> None:
        """Reject traces whose recorded ops are missing from commit order.

        Guards the historical asymmetry this module shipped with:
        ``record_write`` did not append to ``commit_order`` while
        ``record_read``/``record_rmw`` did, so a caller treating the
        three methods uniformly silently dropped writes from program
        order.  Raises :class:`ValueError` naming the missing ops.
        """
        committed = {(pid, op_id)
                     for pid, op_ids in self.commit_order.items()
                     for op_id in op_ids}
        missing = [(record.pid, record.op_id)
                   for records in (self.reads, self.writes, self.rmws)
                   for record in records
                   if (record.pid, record.op_id) not in committed]
        if missing:
            listing = ", ".join(f"op {op_id} (thread {pid})"
                                for pid, op_id in sorted(missing))
            raise ValueError(
                f"trace records ops absent from commit_order: {listing}")

    @property
    def num_events(self) -> int:
        """Total memory events (RMWs count as two: a read and a write)."""
        return len(self.reads) + len(self.writes) + 2 * len(self.rmws)

    def observed_value_sources(self) -> set[int]:
        """The set of write values observed by reads (0 = initial value)."""
        sources = {read.value for read in self.reads}
        sources.update(rmw.read_value for rmw in self.rmws)
        return sources
