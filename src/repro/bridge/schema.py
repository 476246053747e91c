"""The versioned abstract-event trace schema (JSON-lines on disk).

A trace file describes one observed execution of one multi-threaded test
as a sequence of *performed* memory events, in the spirit of M3's
abstract-event API: every committed load reports the value it observed
(``ld_perform``), every globally performed store reports its value and
the value it overwrote (``st_globally_perform``), and every atomic
read-modify-write reports both (``rmw_perform``).  From exactly these
observations the existing execution builder reconstructs po/rf/co/fr —
values are the globally unique write identifiers of
:mod:`repro.sim.trace` (``0`` denotes the initial memory value), so the
mapping from an observed value to the producing write is exact.

On disk a trace is JSON-lines: one header object followed by one event
object per line, events in per-thread program order (interleaving
between threads is irrelevant — program order is the per-``tid``
subsequence)::

    {"schema": "repro.bridge/trace", "version": 1,
     "source": "gem5:mp-litmus", "threads": 2}
    {"event": "st_globally_perform", "tid": 0, "op": 0,
     "addr": 64, "value": 1, "overwritten": 0}
    {"event": "ld_perform", "tid": 1, "op": 2, "addr": 64, "value": 1}
    {"event": "rmw_perform", "tid": 1, "op": 3, "addr": 128,
     "read_value": 0, "value": 2, "overwritten": 0}

A load whose value was never observed (the external run truncated, the
thread never committed it) carries ``"value": null``: the operation
stays in the program so the checker reports the missing observation as
a corruption verdict instead of silently shrinking the test.

Everything that violates the schema raises :class:`TraceFormatError`
(never a bare ``KeyError``/``TypeError``), so corpus replay can isolate
a malformed file as one failing verdict rather than a crashed sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from repro.consistency.execution import Program
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

#: Value of the header's ``"schema"`` field.
SCHEMA_NAME = "repro.bridge/trace"
#: Highest schema version this reader/writer understands.
SCHEMA_VERSION = 1

LD_PERFORM = "ld_perform"
ST_GLOBALLY_PERFORM = "st_globally_perform"
RMW_PERFORM = "rmw_perform"
EVENT_KINDS = (LD_PERFORM, ST_GLOBALLY_PERFORM, RMW_PERFORM)


class TraceFormatError(ValueError):
    """A trace file (or event stream) violates the bridge schema.

    Raised for malformed JSON, unknown schema/version, missing or
    mistyped fields, op-id reuse across threads, duplicate write
    values, and out-of-range thread ids.  Corpus replay treats it as a
    per-file verdict (``corrupt``), never as a sweep-fatal error.
    """


@dataclass(frozen=True, init=False)
class TraceEvent:
    """One abstract memory event, decoded from any supported format.

    ``value`` is the observed (load) or produced (store/rmw) write id;
    ``None`` on a load means the observation is missing.
    ``read_value``/``overwritten`` are only meaningful for RMW and
    store/RMW events respectively.

    Ingest keeps each event as a plain row, a tuple of these fields in
    this order, and :attr:`TraceDocument.events` builds one per row on
    first access; export builds one per event.  ``__init__`` is
    written by hand: it fills the instance ``__dict__`` in one call
    instead of one ``object.__setattr__`` per field, at about half the
    cost.  A new field must be added to it too
    (``tests/test_record_init.py`` fails otherwise), and to the rows
    :func:`event_row` returns.
    """

    kind: str
    tid: int
    op_id: int
    address: int
    value: int | None = None
    read_value: int | None = None
    overwritten: int = 0

    def __init__(self, kind: str, tid: int, op_id: int, address: int,
                 value: int | None = None, read_value: int | None = None,
                 overwritten: int = 0) -> None:
        self.__dict__.update(kind=kind, tid=tid, op_id=op_id,
                             address=address, value=value,
                             read_value=read_value, overwritten=overwritten)


@dataclass
class TraceDocument:
    """A fully validated ingested trace, ready for the checker.

    ``program``/``trace`` are exactly the objects
    :meth:`repro.consistency.checker.Checker.check_trace` consumes —
    the signature/memoization and coverage machinery downstream need no
    changes to handle ingested executions.  ``program`` holds each
    thread's pid and program rows (see
    :func:`repro.consistency.execution.program_rows`); :attr:`threads`
    builds the validated :class:`TestThread` list on first access.
    ``event_rows`` holds one row per event in input order, the
    :class:`TraceEvent` fields as a tuple; :attr:`events` builds the
    event objects on first access.
    """

    source: str
    num_threads: int
    program: Program
    trace: ExecutionTrace
    event_rows: list[tuple] = field(default_factory=list, repr=False)
    path: str | None = None

    @cached_property
    def threads(self) -> list[TestThread]:
        return [TestThread(pid=pid, ops=tuple(TestOp(*row) for row in rows))
                for pid, rows in self.program]

    @cached_property
    def events(self) -> list[TraceEvent]:
        return [TraceEvent(*row) for row in self.event_rows]


def header_dict(source: str, num_threads: int) -> dict:
    """The native-format header object for one trace file."""
    return {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
            "source": source, "threads": num_threads}


def event_dict(event: TraceEvent) -> dict:
    """The native-format JSON object for one event (stable key order)."""
    record: dict = {"event": event.kind, "tid": event.tid,
                    "op": event.op_id, "addr": event.address}
    if event.kind == RMW_PERFORM:
        record["read_value"] = event.read_value
    record["value"] = event.value
    if event.kind in (ST_GLOBALLY_PERFORM, RMW_PERFORM):
        record["overwritten"] = event.overwritten
    return record


def _require_int(record: dict, key: str, context: str,
                 minimum: int = 0) -> int:
    value = record.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise TraceFormatError(
            f"{context}: field {key!r} must be an integer, "
            f"got {value!r}")
    if value < minimum:
        raise TraceFormatError(
            f"{context}: field {key!r} must be >= {minimum}, got {value}")
    return value


def _optional_value(record: dict, key: str, context: str) -> int | None:
    value = record.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise TraceFormatError(
            f"{context}: field {key!r} must be an integer or null, "
            f"got {value!r}")
    if value < 0:
        raise TraceFormatError(
            f"{context}: field {key!r} must be >= 0, got {value}")
    return value


def event_row(record: dict, context: str) -> tuple:
    """Decode and validate one native-format event object into a row.

    The row is the :class:`TraceEvent` fields in order.  Each field is
    first tested with a condition that is sufficient on its own (an
    exact ``int`` in range, or ``None`` where allowed); a value that
    fails it goes to :func:`_require_int` / :func:`_optional_value`, in
    field order, which accept an ``int`` subclass or word the error.
    New validation belongs in those helpers, never in the fast test.
    """
    if not isinstance(record, dict):
        raise TraceFormatError(f"{context}: expected a JSON object, "
                               f"got {type(record).__name__}")
    get = record.get
    kind = get("event")
    if kind not in EVENT_KINDS:
        raise TraceFormatError(
            f"{context}: unknown event kind {kind!r}; expected one of "
            f"{', '.join(EVENT_KINDS)}")
    tid = get("tid")
    if type(tid) is not int or tid < 0:
        tid = _require_int(record, "tid", context)
    op_id = get("op")
    if type(op_id) is not int or op_id < 0:
        op_id = _require_int(record, "op", context)
    address = get("addr")
    if type(address) is not int or address < 0:
        address = _require_int(record, "addr", context)
    value = get("value")
    if kind == LD_PERFORM:
        if value is not None and (type(value) is not int or value < 0):
            value = _optional_value(record, "value", context)
        return (kind, tid, op_id, address, value, None, 0)
    # An absent "overwritten" reads as 0; a present one must be valid.
    overwritten = get("overwritten", 0)
    if type(overwritten) is not int or overwritten < 0:
        overwritten = _require_int(record, "overwritten", context)
    if type(value) is not int or value < 1:
        value = _require_int(record, "value", context, minimum=1)
    if kind == ST_GLOBALLY_PERFORM:
        return (kind, tid, op_id, address, value, None, overwritten)
    read_value = get("read_value")
    if type(read_value) is not int or read_value < 0:
        read_value = _optional_value(record, "read_value", context)
        if read_value is None:
            raise TraceFormatError(
                f"{context}: rmw_perform requires an observed read_value")
    return (kind, tid, op_id, address, value, read_value, overwritten)


def parse_event(record: dict, context: str) -> TraceEvent:
    """Decode and validate one native-format event object."""
    return TraceEvent(*event_row(record, context))


def parse_header(line: str, context: str) -> dict:
    """Decode and validate the native-format header line."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError as error:
        raise TraceFormatError(f"{context}: malformed header: {error}"
                               ) from None
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_NAME:
        raise TraceFormatError(
            f"{context}: first line must be a {SCHEMA_NAME!r} header")
    version = header.get("version")
    if not isinstance(version, int) or version < 1:
        raise TraceFormatError(f"{context}: bad schema version {version!r}")
    if version > SCHEMA_VERSION:
        raise TraceFormatError(
            f"{context}: schema version {version} is newer than the "
            f"supported version {SCHEMA_VERSION}")
    _require_int(header, "threads", context, minimum=1)
    return header


def document_from_rows(rows: list[tuple], source: str,
                       num_threads: int | None = None,
                       path: str | None = None) -> TraceDocument:
    """Build the checker-ready document from event rows, in one pass.

    *rows* are :func:`event_row`-shaped tuples, each already valid on
    its own.  Validates the cross-event invariants the downstream
    machinery assumes: thread ids inside the declared thread count (by
    default, one past the highest tid), op ids globally unique across
    threads (they key events and RMW pairs — see
    ``CandidateExecution.atomic_pairs``) and write values positive and
    globally unique (they *are* the write identity).  After "no
    events" and an out-of-range tid (the highest one is named), the
    first op-id or value reuse in event order is reported; within one
    event, the op id first.

    Each event becomes one program row in its thread (a
    :class:`TestOp`'s fields in order; no ``TestOp`` is built until
    ``document.threads`` is asked for) and one row of the
    :class:`~repro.sim.trace.ExecutionTrace`, through the same
    ``record_*`` methods the simulator calls (``record_write`` commits
    by default); the built trace passes ``ExecutionTrace.validate()``.
    The document keeps *rows* as its ``event_rows``.
    """
    context = path or source
    if not rows:
        raise TraceFormatError(f"{context}: trace contains no events")
    top_tid = max(map(itemgetter(1), rows))
    if num_threads is None:
        num_threads = top_tid + 1
    if top_tid >= num_threads:
        raise TraceFormatError(
            f"{context}: event tid {top_tid} outside the declared "
            f"thread count {num_threads}")
    ops_by_tid: dict[int, list[tuple]] = {
        tid: [] for tid in range(num_threads)}
    trace = ExecutionTrace()
    record_read, record_commit = trace.record_read, trace.record_commit
    record_write, record_rmw = trace.record_write, trace.record_rmw
    read, write, rmw = OpKind.READ, OpKind.WRITE, OpKind.RMW
    op_owner: dict[int, int] = {}
    write_values: dict[int, int] = {}
    # Error text is formatted only on the raise path.
    for index, (kind, tid, op_id, address, value, read_value,
                overwritten) in enumerate(rows):
        if op_id in op_owner:
            raise TraceFormatError(
                f"{context}: event {index}: op id {op_id} already used "
                f"by thread {op_owner[op_id]}; op ids must be globally "
                "unique")
        op_owner[op_id] = tid
        if kind == LD_PERFORM:
            ops_by_tid[tid].append((op_id, read, address, 0, 0))
            if value is None:
                # Preserve the op with no observation: the checker
                # reports the missing read as a corruption verdict.
                record_commit(op_id, tid)
            else:
                record_read(op_id, tid, address, value)
            continue
        if value in write_values:
            raise TraceFormatError(
                f"{context}: event {index}: write value {value} already "
                f"produced by op {write_values[value]}; write values "
                "must be globally unique")
        write_values[value] = op_id
        if kind == ST_GLOBALLY_PERFORM:
            ops_by_tid[tid].append((op_id, write, address, value, 0))
            record_write(op_id, tid, address, value, overwritten)
        else:
            ops_by_tid[tid].append((op_id, rmw, address, value, 0))
            record_rmw(op_id, tid, address, read_value, value, overwritten)
    trace.validate()
    program = [(tid, tuple(ops)) for tid, ops in ops_by_tid.items()]
    return TraceDocument(source=source, num_threads=num_threads,
                         program=program, trace=trace, event_rows=rows,
                         path=path)


def document_from_events(events: list[TraceEvent], source: str,
                         num_threads: int | None = None,
                         path: str | None = None) -> TraceDocument:
    """Build the checker-ready document from decoded events.

    :func:`document_from_rows` over the events' rows: the same
    validation, errors and document.  Events built by hand have not
    been through :func:`event_row`'s checks, so the document's
    ``threads`` are built here too: each :class:`TestOp` validates its
    op and raises :class:`ValueError` for a bad one.
    """
    document = document_from_rows(
        [(event.kind, event.tid, event.op_id, event.address, event.value,
          event.read_value, event.overwritten) for event in events],
        source, num_threads=num_threads, path=path)
    _ = document.threads
    return document
