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
from heapq import heappush
from typing import Callable

from repro.sim.coherence.base import InvalidationReason
from repro.sim.config import SystemConfig
from repro.sim.faults import FaultSet
from repro.sim.kernel import SimKernel
from repro.sim.pipeline.lsq import LoadQueueRule, RobEntry, StoreBuffer, StoreBufferEntry
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

_COMMIT_WIDTH = 4
_IDLE_TICK = 25
# The op kinds the tick tests, as module globals: reading an enum member
# off its class takes several times as long as a global read.
_READ_ADDR_DP, _WRITE, _RMW, _CACHE_FLUSH, _DELAY = (
    OpKind.READ_ADDR_DP, OpKind.WRITE, OpKind.RMW, OpKind.CACHE_FLUSH,
    OpKind.DELAY)


class CoreEngine:
    """Drives one test thread through the memory system."""

    def __init__(self, core_id: int, kernel: SimKernel, l1: object,
                 thread: TestThread, trace: ExecutionTrace,
                 config: SystemConfig, faults: FaultSet,
                 rng: random.Random | None, start_tick: int = 0) -> None:
        self.core_id = core_id
        self.kernel = kernel
        self.l1 = l1
        self.config = config
        self.faults = faults
        self.store_buffer = StoreBuffer(config.lsq_entries, faults, rng)
        self.lq_rule = LoadQueueRule(faults)
        self.on_done: Callable[[], None] | None = None
        self.reset(thread, trace, rng, start_tick)

    def reset(self, thread: TestThread, trace: ExecutionTrace,
              rng: random.Random | None, start_tick: int = 0) -> None:
        """Load *thread* onto an empty pipeline, to record into *trace*.

        The one place per-iteration state is assigned (the constructor
        calls it last): a reset core runs exactly as a new one would.
        """
        self.thread = thread
        self.trace = trace
        self.start_tick = start_tick
        self.rob: list[RobEntry] = []
        self.store_buffer.reset(rng)
        self.lq_rule.reset()
        self.next_op_index = 0
        self.loads_squashed = 0
        self._tick_scheduled = False
        self._started = False
        # True from an idle tick (no stage progressed, nothing can issue)
        # until the next ``_wake``.  Pipeline state changes only in
        # callbacks that call ``_wake``, so a quiet tick's stages would
        # find exactly what the idle tick found: nothing to do.
        self._quiet = False
        # True once the thread has issued, committed and drained every
        # op.  Only ``reset`` turns it false again; it is refreshed wherever
        # it can turn true: start, the end of a tick and a store-buffer
        # completion.  ``on_done`` is called once, when it turns true.
        self.done = False

    # ------------------------------------------------------------------

    def _refresh_done(self) -> bool:
        if (not self.done and self._started
                and self.next_op_index >= len(self.thread.ops)
                and not self.rob and not self.store_buffer.entries):
            self.done = True
            if self.on_done is not None:
                self.on_done()
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
            kernel = self.kernel
            heappush(kernel.queue,
                     [kernel.now + 1, kernel.next_seq(), self._tick])

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
    # The pipeline: one tick runs issue, execute, commit and drain
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        kernel = self.kernel
        if self._quiet:
            # Still polled, so event counts, sequence numbers and the
            # heap order stay exactly those of a full idle tick.
            heappush(kernel.queue,
                     [kernel.now + _IDLE_TICK, kernel.next_seq(), self._tick])
            return
        self._tick_scheduled = False
        rob = self.rob
        ops = self.thread.ops
        num_ops = len(ops)
        rob_entries = self.config.rob_entries

        # Issue: up to ``issue_width`` ops into the ROB, in program order.
        index = self.next_op_index
        issue_end = min(num_ops, index + self.config.issue_width,
                        index + rob_entries - len(rob))
        progress = index < issue_end
        while index < issue_end:
            op = ops[index]
            rob.append(RobEntry(op=op, delay_remaining=op.delay))
            index += 1
        self.next_op_index = index

        # Execute: perform every load that may, and start an RMW at the
        # ROB head, in one pass in program order.  ``fenced``: an older
        # RMW is in the ROB, so uncommitted (a locked RMW is a fence).
        # ``older_unperformed``: an older load has not performed.  A
        # synchronous invalidation may squash loads during the pass, but
        # only loads younger than an unperformed one, which set the flag.
        fenced = False
        older_unperformed = False
        for position, entry in enumerate(rob):
            kind = entry.op.kind
            if kind.is_load:
                if entry.performed:
                    continue
                if not (entry.request_outstanding or fenced or (
                        older_unperformed and kind is _READ_ADDR_DP)):
                    self._execute_load(entry, position)
                    progress = True
                    if entry.performed:
                        continue
                older_unperformed = True
            elif kind is _RMW:
                if not (entry.rmw_started or entry.performed or position
                        or self.store_buffer.entries):
                    # At the ROB head with the store buffer drained.
                    self._start_rmw(entry)
                    progress = True
                fenced = True

        # Commit: up to ``_COMMIT_WIDTH`` entries from the ROB head.
        committed = 0
        store_buffer = self.store_buffer
        trace = self.trace
        while rob and committed < _COMMIT_WIDTH:
            head = rob[0]
            op = head.op
            kind = op.kind
            if kind.is_load:
                if not head.performed:
                    break
                assert head.value is not None and op.address is not None
                trace.record_read(op.op_id, self.core_id, op.address,
                                  head.value)
            elif kind is _WRITE or kind is _CACHE_FLUSH:
                if len(store_buffer.entries) >= store_buffer.capacity:
                    break
                store_buffer.push(op)
                if kind is _WRITE:
                    trace.record_commit(op.op_id, self.core_id)
            elif kind is _RMW:
                if not head.performed:
                    break
                assert (head.value is not None and head.overwritten is not None
                        and op.address is not None)
                trace.record_rmw(op.op_id, self.core_id, op.address,
                                 head.value, op.value, head.overwritten)
            elif kind is _DELAY and head.delay_remaining > 0:
                head.delay_remaining -= 1
                committed += 1
                break
            head.committed = True
            rob.pop(0)
            committed += 1
        if committed:
            progress = True

        # Drain: start the next store-buffer entry to the L1.
        if store_buffer.entries:
            entry = store_buffer.next_to_drain()
            if entry is not None:
                self._drain(entry)
                progress = True

        if index >= num_ops and not rob and not store_buffer.entries:
            self._refresh_done()
            return
        if progress or (index < num_ops and len(rob) < rob_entries):
            delay = 1
        else:
            delay = _IDLE_TICK
            self._quiet = True
        self._tick_scheduled = True
        heappush(kernel.queue, [kernel.now + delay, kernel.next_seq(),
                                self._tick])

    def _execute_load(self, entry: RobEntry, index: int) -> None:
        """Perform a load: forward from an older store, or ask the L1."""
        address = entry.op.address
        assert address is not None
        # TSO store->load forwarding from older, not yet visible stores:
        # the youngest older one in the ROB, else the store buffer's.
        rob = self.rob
        for older_index in range(index - 1, -1, -1):
            op = rob[older_index].op
            if op.kind.writes_memory and op.address == address:
                entry.performed = True
                entry.value = op.value
                return
        forwarded = self.store_buffer.forward_value(address)
        if forwarded is not None:
            entry.performed = True
            entry.value = forwarded
            return
        entry.request_outstanding = True
        generation = entry.generation

        def on_value(value: int, entry: RobEntry = entry,
                     generation: int = generation) -> None:
            if entry.committed or entry.generation != generation:
                return  # stale response for a squashed/retried load
            entry.request_outstanding = False
            entry.performed = True
            entry.value = value
            self._wake()

        self.l1.load(address, on_value)

    def _start_rmw(self, entry: RobEntry) -> None:
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

    def _drain(self, entry: StoreBufferEntry) -> None:
        entry.draining = True
        op = entry.op
        assert op.address is not None
        if op.kind is _WRITE:

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
