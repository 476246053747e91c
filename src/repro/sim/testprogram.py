"""Executable test representation consumed by the simulator.

The GP layer (:mod:`repro.core`) manipulates richer chromosome objects; what
the simulated cores execute is this minimal, ISA-neutral form: per-thread
lists of :class:`TestOp`, mirroring the paper's operation classes (Table 3):
Read, ReadAddrDp, Write, ReadModifyWrite, CacheFlush and Delay.

The execution builder reads the same program as rows, one tuple of a
``TestOp``'s fields in order per op
(:func:`repro.consistency.execution.program_rows`), so ``TestOp(*row)``
rebuilds an op.  Trace ingest fills rows and builds ``TestOp`` objects
only when a document's ``threads`` are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class OpKind(Enum):
    """Operation classes of paper Table 3.

    Each member carries its predicates as plain attributes, computed once
    here: ``is_memory`` (touches memory), ``is_load`` (binds a value from
    memory) and ``writes_memory`` (produces a write event).
    """

    is_memory: bool
    is_load: bool
    writes_memory: bool

    #              value           is_memory  is_load  writes_memory
    READ =         ("read",         True,      True,    False)
    READ_ADDR_DP = ("read_addr_dp", True,      True,    False)
    WRITE =        ("write",        True,      False,   True)
    RMW =          ("rmw",          True,      False,   True)
    CACHE_FLUSH =  ("cache_flush",  True,      False,   False)
    DELAY =        ("delay",        False,     False,   False)

    def __new__(cls, value: str, is_memory: bool, is_load: bool,
                writes_memory: bool) -> "OpKind":
        member = object.__new__(cls)
        member._value_ = value
        member.is_memory = is_memory
        member.is_load = is_load
        member.writes_memory = writes_memory
        return member


@dataclass(frozen=True, init=False)
class TestOp:
    """One executable operation of a test thread.

    GP draws one per slot, so ``__init__`` is written by hand: it fills
    the instance ``__dict__`` in one call instead of one
    ``object.__setattr__`` per field, then validates in
    :meth:`__post_init__`.  A new field must be added to it too
    (``tests/test_record_init.py`` fails otherwise), and to the rows
    :func:`repro.consistency.execution.program_rows` builds, which
    hold the fields in this order.
    """

    op_id: int                 # global slot index; doubles as the event id
    kind: OpKind
    address: int | None = None
    value: int = 0             # unique write id for WRITE / RMW
    delay: int = 0             # cycles for DELAY

    def __init__(self, op_id: int, kind: OpKind, address: int | None = None,
                 value: int = 0, delay: int = 0) -> None:
        self.__dict__.update(op_id=op_id, kind=kind, address=address,
                             value=value, delay=delay)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.kind.is_memory and self.address is None:
            raise ValueError(f"{self.kind} requires an address")
        if self.kind.writes_memory and self.value <= 0:
            raise ValueError(f"{self.kind} requires a positive unique value")
        if self.kind is OpKind.DELAY and self.delay < 0:
            raise ValueError("delay must be non-negative")


@dataclass(frozen=True)
class TestThread:
    """The program-ordered operation sequence of one simulated thread."""

    pid: int
    ops: tuple[TestOp, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def memory_ops(self) -> tuple[TestOp, ...]:
        return tuple(op for op in self.ops if op.kind.is_memory)


def threads_from_slots(slots: list[tuple[int, TestOp]],
                       num_threads: int) -> list[TestThread]:
    """Split a flat ``(pid, op)`` slot list into per-thread programs.

    This mirrors the paper's flat-list chromosome representation (§3.3): the
    order of slots gives the code sequence; per-thread program order is the
    subsequence belonging to each pid.
    """
    per_thread: dict[int, list[TestOp]] = {pid: [] for pid in range(num_threads)}
    for pid, op in slots:
        if pid not in per_thread:
            raise ValueError(f"pid {pid} out of range [0, {num_threads})")
        per_thread[pid].append(op)
    return [TestThread(pid=pid, ops=tuple(ops))
            for pid, ops in sorted(per_thread.items())]
