"""Observation of conflict orders during execution (paper §4.1).

Because we are in simulation (pre-silicon), all conflict orders are visible:
every committed read records which write produced its value (rf), and every
write serialisation records which value it overwrote (co).  Values are the
globally unique write identifiers assigned at test construction time, so the
mapping from an observed value back to the producing write event is exact.
Value ``0`` denotes the initial value of memory.

:class:`ExecutionTrace` keeps those observations as flat rows, one tuple
per ``record_*`` call, and the execution builder
(:func:`repro.consistency.execution.execution_from_trace`) reads the
rows directly.  The simulator and trace ingest fill traces through the
same ``record_*`` methods, so one trace type serves both.  The record
classes below (:class:`ReadRecord`, :class:`WriteRecord`,
:class:`RmwRecord`) are the rows' named view, built only when something
asks for ``reads``/``writes``/``rmws``: export, tests, diagnostics.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterable


@dataclass(frozen=True, init=False)
class ReadRecord:
    """One committed read: which value (write id) it observed.

    :class:`ExecutionTrace` builds one per row when its record list is
    asked for, so ``__init__`` is hand-written: one ``__dict__`` update
    instead of an ``object.__setattr__`` per field.  A new field must
    be added to it and to the row ``record_*`` appends too
    (``tests/test_record_init.py`` fails otherwise).
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

    :class:`ExecutionTrace` builds one per row when its record list is
    asked for, so ``__init__`` is hand-written: one ``__dict__`` update
    instead of an ``object.__setattr__`` per field.  A new field must
    be added to it and to the row ``record_*`` appends too
    (``tests/test_record_init.py`` fails otherwise).
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

    :class:`ExecutionTrace` builds one per row when its record list is
    asked for, so ``__init__`` is hand-written: one ``__dict__`` update
    instead of an ``object.__setattr__`` per field.  A new field must
    be added to it and to the row ``record_*`` appends too
    (``tests/test_record_init.py`` fails otherwise).
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


@dataclass(init=False)
class ExecutionTrace:
    """Everything observed during one test iteration, as flat rows.

    Each ``record_*`` call appends one plain tuple, the fields of the
    matching record class in order: ``read_rows`` holds
    ``(op_id, pid, address, value)``, ``write_rows``
    ``(op_id, pid, address, value, overwritten)`` and ``rmw_rows``
    ``(op_id, pid, address, read_value, written_value, overwritten)``,
    each in observation order.  The execution builder reads these rows;
    :attr:`reads`, :attr:`writes` and :attr:`rmws` build record objects
    from them on each access, for export, tests and diagnostics; the
    constructor takes record lists too.
    """

    read_rows: list[tuple[int, int, int, int]]
    write_rows: list[tuple[int, int, int, int, int]]
    rmw_rows: list[tuple[int, int, int, int, int, int]]
    commit_order: dict[int, list[int]]

    def __init__(self, reads: Iterable[ReadRecord] = (),
                 writes: Iterable[WriteRecord] = (),
                 rmws: Iterable[RmwRecord] = (),
                 commit_order: dict[int, list[int]] | None = None) -> None:
        self.read_rows = [astuple(record) for record in reads]
        self.write_rows = [astuple(record) for record in writes]
        self.rmw_rows = [astuple(record) for record in rmws]
        self.commit_order = {} if commit_order is None else commit_order

    @property
    def reads(self) -> list[ReadRecord]:
        return [ReadRecord(*row) for row in self.read_rows]

    @property
    def writes(self) -> list[WriteRecord]:
        return [WriteRecord(*row) for row in self.write_rows]

    @property
    def rmws(self) -> list[RmwRecord]:
        return [RmwRecord(*row) for row in self.rmw_rows]

    def record_read(self, op_id: int, pid: int, address: int, value: int) -> None:
        self.read_rows.append((op_id, pid, address, value))
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
        self.write_rows.append((op_id, pid, address, value, overwritten))
        if commit:
            self.commit_order.setdefault(pid, []).append(op_id)

    def record_commit(self, op_id: int, pid: int) -> None:
        """Record the commit of a non-read operation (for program order)."""
        self.commit_order.setdefault(pid, []).append(op_id)

    def record_rmw(self, op_id: int, pid: int, address: int, read_value: int,
                   written_value: int, overwritten: int) -> None:
        self.rmw_rows.append((op_id, pid, address, read_value,
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
        committed = {pid: set(op_ids)
                     for pid, op_ids in self.commit_order.items()}
        none: set[int] = set()
        missing = [(row[1], row[0])
                   for rows in (self.read_rows, self.write_rows,
                                self.rmw_rows)
                   for row in rows
                   if row[0] not in committed.get(row[1], none)]
        if missing:
            listing = ", ".join(f"op {op_id} (thread {pid})"
                                for pid, op_id in sorted(missing))
            raise ValueError(
                f"trace records ops absent from commit_order: {listing}")

    @property
    def num_events(self) -> int:
        """Total memory events (RMWs count as two: a read and a write)."""
        return (len(self.read_rows) + len(self.write_rows)
                + 2 * len(self.rmw_rows))

    def observed_value_sources(self) -> set[int]:
        """The set of write values observed by reads (0 = initial value)."""
        return {row[3] for rows in (self.read_rows, self.rmw_rows)
                for row in rows}
