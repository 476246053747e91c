"""Chromosome / test representation (paper §3.3).

A test is a flat list of ``<pid, op>`` tuples of constant length; the list
order gives the code sequence and each thread's subsequence gives its
program order, so the test is a DAG whose disjoint sub-graphs are the
threads.  Keeping the list flat and the length constant is what makes the
selective crossover efficient and preserves the relative scheduling position
of operations (paper §3.3).

Slot index doubles as the operation's ``op_id`` (the MCM event identity) and
``slot index + 1`` is the globally unique value written by a write/RMW slot,
so after any crossover/mutation the invariants "op_id == position" and
"write values unique" hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.testprogram import OpKind, TestOp, TestThread, threads_from_slots


@dataclass(frozen=True)
class Chromosome:
    """One test: a fixed-length flat list of (pid, op) slots."""

    slots: tuple[tuple[int, TestOp], ...]
    num_threads: int

    def __post_init__(self) -> None:
        for index, (pid, op) in enumerate(self.slots):
            if not 0 <= pid < self.num_threads:
                raise ValueError(f"slot {index}: pid {pid} out of range")
            if op.op_id != index:
                raise ValueError(
                    f"slot {index}: op_id {op.op_id} does not match position")
            if op.kind.writes_memory and op.value != index + 1:
                raise ValueError(
                    f"slot {index}: write value {op.value} must be {index + 1}")

    def __len__(self) -> int:
        return len(self.slots)

    # ------------------------------------------------------------------

    def to_threads(self) -> list[TestThread]:
        """Materialise the per-thread executable programs."""
        return threads_from_slots(list(self.slots), self.num_threads)

    def memory_ops(self) -> list[tuple[int, TestOp]]:
        """(slot index, op) for every memory operation in the test."""
        return [(index, op) for index, (pid, op) in enumerate(self.slots)
                if op.kind.is_memory]

    def addresses(self) -> set[int]:
        return {op.address for _, op in self.memory_ops() if op.address is not None}

    def thread_lengths(self) -> dict[int, int]:
        lengths = {pid: 0 for pid in range(self.num_threads)}
        for pid, _ in self.slots:
            lengths[pid] += 1
        return lengths

    def event_addresses(self) -> dict[tuple, int]:
        """Map event ids to their (static) addresses.

        RMW slots contribute both their read and write events.
        """
        mapping: dict[tuple, int] = {}
        for _pid, op in self.slots:
            if not op.kind.is_memory or op.address is None:
                continue
            if op.kind.is_load:
                mapping[(op.op_id, "R")] = op.address
            elif op.kind is OpKind.WRITE:
                mapping[(op.op_id, "W")] = op.address
            elif op.kind is OpKind.RMW:
                mapping[(op.op_id, "R")] = op.address
                mapping[(op.op_id, "W")] = op.address
        return mapping

    def with_slot(self, index: int, pid: int, op: TestOp) -> "Chromosome":
        """Return a copy with one slot replaced (op re-anchored to *index*)."""
        anchored = reslot(op, index)
        slots = list(self.slots)
        slots[index] = (pid, anchored)
        return Chromosome(slots=tuple(slots), num_threads=self.num_threads)


def reslot(op: TestOp, index: int) -> TestOp:
    """Re-anchor an operation to a new slot position.

    Keeps kind/address/delay but rewrites ``op_id`` (and the unique write
    value for writes) so the chromosome invariants hold after crossover.
    An op already anchored at *index* is returned as is.
    """
    value = index + 1 if op.kind.writes_memory else 0
    if op.op_id == index and op.value == value:
        return op
    return TestOp(op_id=index, kind=op.kind, address=op.address,
                  value=value, delay=op.delay)


def make_chromosome(slots: list[tuple[int, TestOp]], num_threads: int) -> Chromosome:
    """Build a chromosome, re-anchoring every slot to its position."""
    anchored = tuple((pid, reslot(op, index))
                     for index, (pid, op) in enumerate(slots))
    return Chromosome(slots=anchored, num_threads=num_threads)
