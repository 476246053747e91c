"""Simplified TSO-CC protocol (consistency-directed lazy coherence).

TSO-CC (Elver & Nagarajan, HPCA 2014) deliberately violates the
Single-Writer-Multiple-Reader invariant: writers do not eagerly invalidate
sharers.  Instead, writes are serialised at the shared L2, each write is
tagged with a per-writer *timestamp group*, and readers *self-invalidate*
their shared lines when they observe a line whose timestamp is larger than
or equal to the last timestamp they have seen from that writer.  Timestamps
are bounded; when a writer's timestamp wraps, its *epoch-id* is incremented
so that readers can distinguish pre- and post-reset timestamps.

The two studied TSO-CC bugs are injected here:

* ``TSO-CC+no-epoch-ids`` - readers ignore epoch-ids, so after a timestamp
  reset their stale ``last_seen`` value suppresses self-invalidation.
* ``TSO-CC+compare`` - the self-invalidation condition uses ``>`` instead of
  ``>=``, so a second observation from the same timestamp group fails to
  invalidate.

Both manifest as read->read reordering (stale shared lines are read after a
newer value from the same writer has been observed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sim.cache import CacheArray
from repro.sim.coherence.base import (CoherenceController, InvalidationListener,
                                      InvalidationReason)
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.faults import Fault, FaultSet
from repro.sim.interconnect import Interconnect, Message
from repro.sim.kernel import SimKernel
from repro.sim.memory import MainMemory


@dataclass
class _ReadMshr:
    pending_loads: list[tuple[int, Callable[[int], None]]] = field(default_factory=list)


class TsoCcL1Cache(CoherenceController):
    """Private L1 cache for the TSO-CC protocol."""

    controller_kind = "L1_TSOCC"

    def __init__(self, core_id: int, kernel: SimKernel, network: Interconnect,
                 config: SystemConfig, coverage: CoverageCollector,
                 faults: FaultSet, directory_name: str = "dir") -> None:
        super().__init__(f"l1_{core_id}", kernel, network, coverage, faults)
        self.core_id = core_id
        self.config = config
        self.directory_name = directory_name
        self.array = CacheArray(config.l1)
        self._line_bytes = config.l1.line_bytes
        self.invalidation_listener: InvalidationListener | None = None
        self.reset()

    def reset(self) -> None:
        self.array.reset()
        self._mshrs: dict[int, _ReadMshr] = {}
        # Per line: (address, value, callback, is_rmw) of each write
        # awaiting its ack.  No entry refers back to this controller, so
        # writes still in flight when a run stops leave no cycle.
        self._write_acks: dict[
            int, list[tuple[int, int, Callable[..., None], bool]]] = {}
        self._outstanding_writes = 0
        self.last_seen: dict[str, int] = {}
        self.last_epoch: dict[str, int] = {}

    # ------------------------------------------------------------------

    def quiescent(self) -> bool:
        return not self._mshrs and self._outstanding_writes == 0

    def _notify_lq(self, line_address: int, reason: InvalidationReason) -> None:
        if self.invalidation_listener is not None:
            self.invalidation_listener(line_address, reason)

    # ------------------------------------------------------------------
    # CPU-side interface
    # ------------------------------------------------------------------

    def load(self, address: int, callback: Callable[[int], None]) -> None:
        line_address = address - address % self._line_bytes
        line = self.array.lookup(address)
        if line is not None and line.state == "V":
            accesses = int(line.meta.get("accesses", 0))
            if accesses > 0:
                self.record_transition("V", "LoadHit")
                line.meta["accesses"] = accesses - 1
                value = line.read_word(address)
                self.kernel.schedule(self.config.l1.hit_latency,
                                     lambda: callback(value))
                return
            # Access budget exhausted: revalidate with the L2.
            self.record_transition("V", "LoadExpired")
            self.array.evict(line_address)
            self._notify_lq(line_address, InvalidationReason.REPLACEMENT)
            self._start_read_miss(address, callback)
            return
        if line is not None and line.state == "I_D":
            self.record_transition("I_D", "Load")
            self._mshrs[line_address].pending_loads.append((address, callback))
            return
        self.record_transition("I", "LoadMiss")
        self._start_read_miss(address, callback)

    def _start_read_miss(self, address: int, callback: Callable[[int], None]) -> None:
        line_address = address - address % self._line_bytes
        if line_address in self._mshrs:
            self._mshrs[line_address].pending_loads.append((address, callback))
            return
        if self.array.needs_victim(line_address):
            victim = self.array.select_victim(line_address, exclude_states=("I_D",))
            if victim is not None:
                self.record_transition("V", "Replacement")
                self.array.evict(victim.line_address)
                self._notify_lq(victim.line_address, InvalidationReason.REPLACEMENT)
        if not self.array.needs_victim(line_address):
            self.array.allocate(line_address, "I_D")
        mshr = _ReadMshr()
        mshr.pending_loads.append((address, callback))
        self._mshrs[line_address] = mshr
        self.send("ReadReq", self.directory_name, line_address, sender=self.name)

    def store(self, address: int, value: int,
              callback: Callable[[int], None]) -> None:
        line_address = address - address % self._line_bytes
        self.record_transition("V" if self.array.contains(address) else "I",
                               "StoreThrough")
        self._outstanding_writes += 1
        self.send("WriteReq", self.directory_name, line_address,
                  sender=self.name, address=address, value=value)
        self._write_acks.setdefault(line_address, []).append(
            (address, value, callback, False))

    def rmw(self, address: int, value: int,
            callback: Callable[[int, int], None]) -> None:
        line_address = address - address % self._line_bytes
        self.record_transition("V" if self.array.contains(address) else "I", "RMW")
        self._outstanding_writes += 1
        self.send("RMWReq", self.directory_name, line_address,
                  sender=self.name, address=address, value=value)
        self._write_acks.setdefault(line_address, []).append(
            (address, value, callback, True))

    def flush(self, address: int, callback: Callable[[], None]) -> None:
        line_address = address - address % self._line_bytes
        line = self.array.lookup(address, touch=False)
        self.record_transition(line.state if line is not None else "I", "Flush")
        if line is not None and line.state == "V":
            self.array.evict(line_address)
            self._notify_lq(line_address, InvalidationReason.FLUSH)
        callback()

    # ------------------------------------------------------------------
    # Network-side events
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        kind = message.kind
        if kind == "ReadResp":
            self._on_read_resp(message)
        elif kind in ("WriteAck", "RMWAck"):
            self._on_write_ack(message)
        else:  # pragma: no cover
            self.invalid_transition("?", kind, f"unexpected message {message}")

    def _on_read_resp(self, message: Message) -> None:
        line_address = message.line_address
        mshr = self._mshrs.pop(line_address, None)
        if mshr is None:
            self.invalid_transition("I", "ReadResp", "response without request")
            return
        # A fresh ``MainMemory.read_line`` result: take it.
        words = message.payload.get("words", {})
        writer = message.payload.get("writer")
        ts = int(message.payload.get("ts", 0))
        epoch = int(message.payload.get("epoch", 0))
        self.record_transition("I_D", "ReadResp")
        self._apply_consistency_rule(line_address, str(writer) if writer else None,
                                     ts, epoch)
        line = self.array.lookup(line_address, touch=False)
        if line is None:
            if self.array.needs_victim(line_address):
                victim = self.array.select_victim(line_address,
                                                  exclude_states=("I_D",))
                if victim is not None:
                    self.record_transition("V", "Replacement")
                    self.array.evict(victim.line_address)
                    self._notify_lq(victim.line_address,
                                    InvalidationReason.REPLACEMENT)
            if not self.array.needs_victim(line_address):
                line = self.array.allocate(line_address, "V")
        if line is not None:
            line.state = "V"
            line.words = words
            line.meta["accesses"] = self.config.tso_cc_max_accesses
            line.meta["writer"] = writer
        for address, callback in mshr.pending_loads:
            value = words.get(address, 0)
            self.kernel.schedule(self.config.l1.hit_latency,
                                 lambda cb=callback, v=value: cb(v))

    def _apply_consistency_rule(self, filled_line: int, writer: str | None,
                                ts: int, epoch: int) -> None:
        """The TSO-CC self-invalidation rule (with the two bug sites)."""
        if writer is None or writer == self.name:
            return
        if not self.faults.enabled(Fault.TSOCC_NO_EPOCH_IDS):
            known_epoch = self.last_epoch.get(writer, 0)
            if epoch > known_epoch:
                # BUG SITE (TSO-CC+no-epoch-ids): without epoch-ids this
                # reset never happens and stale last_seen values suppress
                # self-invalidation after a timestamp reset.
                self.last_epoch[writer] = epoch
                self.last_seen[writer] = 0
            elif epoch < known_epoch:
                # Old-epoch line: stale information, no invalidation needed.
                return
        seen = self.last_seen.get(writer, 0)
        # BUG SITE (TSO-CC+compare): the faulty strictly-larger
        # comparison misses repeated observations from the same
        # timestamp group.
        should_invalidate = (ts > seen
                             if self.faults.enabled(Fault.TSOCC_COMPARE)
                             else ts >= seen)
        if should_invalidate:
            self.record_transition("V", "SelfInvalidate")
            self._self_invalidate(exclude=filled_line,
                                  reason=InvalidationReason.SELF_INVALIDATION)
            self.last_seen[writer] = ts

    def _self_invalidate(self, exclude: int | None,
                         reason: InvalidationReason) -> None:
        dropped = [line for line in self.array.all_lines()
                   if line.state == "V" and line.line_address != exclude]
        for line in dropped:
            self.array.evict(line.line_address)
        if dropped or reason is InvalidationReason.FENCE:
            self._notify_lq(dropped[0].line_address if dropped else 0, reason)

    def _apply_own_write(self, address: int, value: int, message: Message) -> None:
        line = self.array.lookup(address, touch=False)
        if line is not None and line.state == "V":
            line.write_word(address, value)
            line.meta["writer"] = self.name

    def _on_write_ack(self, message: Message) -> None:
        line_address = message.line_address
        address = int(message.payload["address"])
        waiters = self._write_acks.get(line_address, [])
        for index, waiter in enumerate(waiters):
            waiting_address, value, callback, is_rmw = waiter
            if waiting_address != address:
                continue
            waiters.pop(index)
            if not waiters:
                self._write_acks.pop(line_address, None)
            self._outstanding_writes -= 1
            overwritten = int(message.payload["overwritten"])
            if is_rmw:
                read_value = int(message.payload["read_value"])
                # An RMW acts as a fence: conservatively drop every cached
                # line so later loads observe up-to-date data.
                self._self_invalidate(exclude=None,
                                      reason=InvalidationReason.FENCE)
                self._apply_own_write(address, value, message)
                callback(read_value, overwritten)
            else:
                self._apply_own_write(address, value, message)
                callback(overwritten)
            return
        self.invalid_transition("I", message.kind, "ack without request")


class TsoCcDirectory(CoherenceController):
    """Shared L2 / serialisation point of the TSO-CC protocol.

    All writes are serialised here; the directory assigns per-writer
    timestamp groups and epoch-ids and answers read requests with the line
    data plus the metadata the reader needs to apply the self-invalidation
    rule.  Data is backed directly by main memory (the L2 data array is not
    capacity-modelled; the TSO-CC bugs do not depend on L2 evictions).
    """

    controller_kind = "L2_TSOCC"

    def __init__(self, kernel: SimKernel, network: Interconnect,
                 config: SystemConfig, memory: MainMemory,
                 coverage: CoverageCollector, faults: FaultSet,
                 name: str = "dir") -> None:
        super().__init__(name, kernel, network, coverage, faults)
        self.config = config
        self.memory = memory
        self.stride = 16
        self.reset()

    def reset(self) -> None:
        self.line_meta: dict[int, dict[str, object]] = {}
        self.write_counts: dict[str, int] = {}
        self.timestamps: dict[str, int] = {}
        self.epochs: dict[str, int] = {}
        self._pending = 0

    def quiescent(self) -> bool:
        return self._pending == 0

    def _latency(self) -> int:
        return self.kernel.jitter(self.config.l2.hit_latency,
                                  self.config.l2_hit_latency_max)

    def handle_message(self, message: Message) -> None:
        kind = message.kind
        if kind == "ReadReq":
            self._on_read(message)
        elif kind == "WriteReq":
            self._on_write(message)
        elif kind == "RMWReq":
            self._on_rmw(message)
        else:  # pragma: no cover
            self.invalid_transition("?", kind, f"unexpected message {message}")

    def _on_read(self, message: Message) -> None:
        line_address = message.line_address
        sender = str(message.payload["sender"])
        tracked = line_address in self.line_meta
        self.record_transition("TRACKED" if tracked else "NP", "ReadReq")
        self._pending += 1

        def respond() -> None:
            self._pending -= 1
            words = self.memory.read_line(line_address,
                                          self.config.l2.line_bytes, self.stride)
            meta = self.line_meta.get(line_address, {})
            self.send("ReadResp", sender, line_address, words=words,
                      writer=meta.get("writer"), ts=meta.get("ts", 0),
                      epoch=meta.get("epoch", 0))

        self.kernel.schedule(self._latency(), respond)

    def _assign_timestamp(self, writer: str) -> tuple[int, int]:
        """Return (timestamp, epoch) for the next write of *writer*."""
        ts = self.timestamps.setdefault(writer, 1)
        epoch = self.epochs.setdefault(writer, 1)
        count = self.write_counts.get(writer, 0) + 1
        self.write_counts[writer] = count
        if count % self.config.tso_cc_timestamp_group == 0:
            self.record_transition("WRITER", "TimestampGroupAdvance")
            self.timestamps[writer] = ts + 1
            if self.timestamps[writer] > self.config.tso_cc_max_timestamp:
                self.record_transition("WRITER", "EpochReset")
                self.timestamps[writer] = 1
                self.epochs[writer] = epoch + 1
        return ts, epoch

    def _on_write(self, message: Message) -> None:
        line_address = message.line_address
        sender = str(message.payload["sender"])
        address = int(message.payload["address"])
        value = int(message.payload["value"])
        self.record_transition(
            "TRACKED" if line_address in self.line_meta else "NP", "WriteThrough")
        overwritten = self.memory.write(address, value)
        ts, epoch = self._assign_timestamp(sender)
        self.line_meta[line_address] = {"writer": sender, "ts": ts, "epoch": epoch}
        self._pending += 1

        def respond() -> None:
            self._pending -= 1
            self.send("WriteAck", sender, line_address, address=address,
                      overwritten=overwritten, ts=ts, epoch=epoch)

        self.kernel.schedule(self._latency(), respond)

    def _on_rmw(self, message: Message) -> None:
        line_address = message.line_address
        sender = str(message.payload["sender"])
        address = int(message.payload["address"])
        value = int(message.payload["value"])
        self.record_transition(
            "TRACKED" if line_address in self.line_meta else "NP", "RMW")
        read_value = self.memory.read(address)
        overwritten = self.memory.write(address, value)
        ts, epoch = self._assign_timestamp(sender)
        self.line_meta[line_address] = {"writer": sender, "ts": ts, "epoch": epoch}
        self._pending += 1

        def respond() -> None:
            self._pending -= 1
            self.send("RMWAck", sender, line_address, address=address,
                      read_value=read_value, overwritten=overwritten,
                      ts=ts, epoch=epoch)

        self.kernel.schedule(self._latency(), respond)
