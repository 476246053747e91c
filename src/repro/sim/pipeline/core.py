"""Out-of-order core model executing one test thread.

The model captures exactly the microarchitectural behaviour the paper's
bugs depend on, nothing more:

* a ROB-limited instruction window with in-order commit;
* loads that may *perform* speculatively out of program order, combined
  with the TSO load-queue squash rule applied on invalidation notifications
  from the L1 (see :class:`repro.sim.pipeline.lsq.LoadQueueRule`);
* store->load forwarding from older, not yet globally visible stores;
* a FIFO store buffer draining committed stores one at a time (TSO), with
  the SQ+no-FIFO bug draining out of order;
* read-modify-writes acting as atomic operations and full fences (as on
  x86, where locked RMWs imply mfence);
* cache flushes and constant delays.

Timing is approximate (issue width, hit/miss latencies, random perturbation
come from the memory system); functional behaviour - which value every load
observes - is exact.
"""

from __future__ import annotations

import random

from repro.sim.coherence.base import InvalidationReason
from repro.sim.config import SystemConfig
from repro.sim.faults import FaultSet
from repro.sim.kernel import SimKernel
from repro.sim.pipeline.lsq import LoadQueueRule, RobEntry, StoreBuffer, StoreBufferEntry
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

_COMMIT_WIDTH = 4
_IDLE_TICK = 25


class CoreEngine:
    """Drives one test thread through the memory system."""

    def __init__(self, core_id: int, kernel: SimKernel, l1: object,
                 thread: TestThread, trace: ExecutionTrace,
                 config: SystemConfig, faults: FaultSet,
                 rng: random.Random, start_tick: int = 0) -> None:
        self.core_id = core_id
        self.kernel = kernel
        self.l1 = l1
        self.thread = thread
        self.trace = trace
        self.config = config
        self.faults = faults
        self.rng = rng
        self.start_tick = start_tick
        self.rob: list[RobEntry] = []
        self.store_buffer = StoreBuffer(config.lsq_entries, faults, rng)
        self.lq_rule = LoadQueueRule(faults)
        self.next_op_index = 0
        self.loads_issued = 0
        self.loads_squashed = 0
        self._tick_scheduled = False
        self._started = False
        # True from an idle tick (no stage progressed, nothing can issue)
        # until the next ``_wake``.  Pipeline state changes only in
        # callbacks that call ``_wake``, so a quiet tick's stages would
        # find exactly what the idle tick found: nothing to do.
        self._quiet = False
        # True once the thread has issued, committed and drained every
        # op.  It never turns false again, and it is refreshed wherever
        # it can turn true: start, the end of a tick and a store-buffer
        # completion.
        self.done = False

    # ------------------------------------------------------------------

    def _refresh_done(self) -> bool:
        self.done = (self._started
                     and self.next_op_index >= len(self.thread.ops)
                     and not self.rob and not self.store_buffer.entries)
        return self.done

    def start(self) -> None:
        self._started = True
        if not self.thread.ops:
            self._refresh_done()
            return
        self.kernel.schedule_at(max(self.start_tick, self.kernel.now),
                                self._tick)
        self._tick_scheduled = True

    def _wake(self) -> None:
        self._quiet = False
        if not self._tick_scheduled and not self.done:
            self._tick_scheduled = True
            self.kernel.schedule(1, self._tick)

    # ------------------------------------------------------------------
    # Invalidation notifications from the L1 (the LQ squash rule)
    # ------------------------------------------------------------------

    def on_invalidation(self, line_address: int,
                        reason: InvalidationReason) -> None:
        squashed = self.lq_rule.apply(self.rob)
        for entry in squashed:
            entry.performed = False
            entry.value = None
            entry.generation += 1
            entry.request_outstanding = False
            self.loads_squashed += 1
        if squashed:
            self._wake()

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if self._quiet:
            # Still polled, so event counts, sequence numbers and the
            # heap order stay exactly those of a full idle tick.
            self.kernel.schedule(_IDLE_TICK, self._tick)
            return
        self._tick_scheduled = False
        progress = False
        progress |= self._issue_stage()
        progress |= self._execute_stage()
        progress |= self._commit_stage()
        progress |= self._drain_stage()
        if self._refresh_done():
            return
        if progress or self._issue_possible():
            delay = 1
        else:
            delay = _IDLE_TICK
            self._quiet = True
        self._tick_scheduled = True
        self.kernel.schedule(delay, self._tick)

    def _issue_possible(self) -> bool:
        return (self.next_op_index < len(self.thread.ops)
                and len(self.rob) < self.config.rob_entries)

    def _issue_stage(self) -> bool:
        ops = self.thread.ops
        rob = self.rob
        rob_entries = self.config.rob_entries
        issued = 0
        while (issued < self.config.issue_width
               and self.next_op_index < len(ops) and len(rob) < rob_entries):
            op = ops[self.next_op_index]
            rob.append(RobEntry(op=op, delay_remaining=op.delay))
            self.next_op_index += 1
            issued += 1
        return issued > 0

    def _execute_stage(self) -> bool:
        """Perform every load that may, and start an RMW at the ROB head.

        One pass in program order carries what a load checks about its
        older entries.  ``fenced``: an older RMW has not committed (a
        locked RMW acts as a fence); commits happen only in the commit
        stage.  ``older_unperformed``: an older load has not performed.
        Entries only become performed in later events, or here at their
        own turn (store forwarding).  A synchronous invalidation may
        squash older loads during the pass, but only loads younger than
        an unperformed one, which already set the flag.
        """
        progress = False
        fenced = False
        older_unperformed = False
        for index, entry in enumerate(self.rob):
            kind = entry.op.kind
            if kind.is_load:
                if not (entry.performed or entry.committed
                        or entry.request_outstanding or fenced
                        or (older_unperformed
                            and kind is OpKind.READ_ADDR_DP)):
                    progress |= self._execute_load(entry, index)
                if not entry.performed:
                    older_unperformed = True
            elif kind is OpKind.RMW:
                progress |= self._maybe_start_rmw(index, entry)
                if not entry.committed:
                    fenced = True
        return progress

    def _execute_load(self, entry: RobEntry, index: int) -> bool:
        address = entry.op.address
        assert address is not None
        forwarded = self._forwarded_value(index, address)
        if forwarded is not None:
            entry.performed = True
            entry.value = forwarded
            return True
        entry.request_outstanding = True
        generation = entry.generation
        self.loads_issued += 1

        def on_value(value: int, entry: RobEntry = entry,
                     generation: int = generation) -> None:
            if entry.committed or entry.generation != generation:
                return  # stale response for a squashed/retried load
            entry.request_outstanding = False
            entry.performed = True
            entry.value = value
            self._wake()

        self.l1.load(address, on_value)
        return True

    def _forwarded_value(self, index: int, address: int) -> int | None:
        """TSO store->load forwarding from older, not yet visible stores."""
        rob = self.rob
        for older_index in range(index - 1, -1, -1):
            op = rob[older_index].op
            if op.kind.writes_memory and op.address == address:
                return op.value
        return self.store_buffer.forward_value(address)

    def _maybe_start_rmw(self, index: int, entry: RobEntry) -> bool:
        if entry.rmw_started or entry.performed or index != 0:
            return False
        if not self.store_buffer.empty:
            return False  # fence: drain the store buffer first
        entry.rmw_started = True
        address = entry.op.address
        assert address is not None

        def on_done(read_value: int, overwritten: int,
                    entry: RobEntry = entry) -> None:
            entry.performed = True
            entry.value = read_value
            entry.overwritten = overwritten
            self._wake()

        self.l1.rmw(address, entry.op.value, on_done)
        return True

    def _commit_stage(self) -> bool:
        committed = 0
        while self.rob and committed < _COMMIT_WIDTH:
            head = self.rob[0]
            kind = head.op.kind
            if kind.is_load:
                if not head.performed:
                    break
                assert head.value is not None and head.op.address is not None
                self.trace.record_read(head.op.op_id, self.core_id,
                                       head.op.address, head.value)
            elif kind is OpKind.WRITE or kind is OpKind.CACHE_FLUSH:
                if self.store_buffer.full:
                    break
                self.store_buffer.push(head.op)
                if kind is OpKind.WRITE:
                    self.trace.record_commit(head.op.op_id, self.core_id)
            elif kind is OpKind.RMW:
                if not head.performed:
                    break
                assert (head.value is not None and head.overwritten is not None
                        and head.op.address is not None)
                self.trace.record_rmw(head.op.op_id, self.core_id,
                                      head.op.address, head.value,
                                      head.op.value, head.overwritten)
            elif kind is OpKind.DELAY and head.delay_remaining > 0:
                head.delay_remaining -= 1
                committed += 1
                break
            head.committed = True
            self.rob.pop(0)
            committed += 1
        return committed > 0

    def _drain_stage(self) -> bool:
        entry = self.store_buffer.next_to_drain()
        if entry is None:
            return False
        entry.draining = True
        op = entry.op
        assert op.address is not None
        if op.kind is OpKind.WRITE:

            def on_written(overwritten: int, entry: StoreBufferEntry = entry,
                           op: TestOp = op) -> None:
                # Two-phase path: commit_order was recorded at commit
                # time (program order), long before this serialisation.
                self.trace.record_write(op.op_id, self.core_id, op.address,
                                        op.value, overwritten, commit=False)
                self.store_buffer.complete(entry)
                self._refresh_done()
                self._wake()

            self.l1.store(op.address, op.value, on_written)
        else:  # cache flush

            def on_flushed(entry: StoreBufferEntry = entry) -> None:
                self.store_buffer.complete(entry)
                self._refresh_done()
                self._wake()

            self.l1.flush(op.address, on_flushed)
        return True
