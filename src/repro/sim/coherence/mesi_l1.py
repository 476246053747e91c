"""MESI L1 cache controller (blocking-directory protocol, L1 side).

The controller implements the stable states I/S/E/M plus the transient
states relevant to the studied bugs:

* ``IS_D``   - load miss outstanding (GetS sent, waiting for data)
* ``IS_D_I`` - invalidation sunk while the GetS was outstanding (the
  "Peekaboo" window: when data arrives it may satisfy loads that were
  already waiting, but the invalidation must be forwarded to the load
  queue so that speculatively performed younger loads are squashed)
* ``IM_D``   - store miss outstanding (GetM sent)
* ``SM_D``   - upgrade outstanding (GetM sent while holding S data)
* ``MI_A`` / ``EI_A`` / ``SI_A`` / ``II_A`` - writeback/eviction awaiting
  the directory's WBAck.

Every (state, event) pair executed is recorded as structural coverage.
The injected MESI bugs of paper §5.3 live at the marked call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.sim.cache import CacheArray, CacheLine
from repro.sim.coherence.base import (CoherenceController, InvalidationListener,
                                      InvalidationReason)
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.faults import Fault, FaultSet
from repro.sim.interconnect import Interconnect, Message
from repro.sim.kernel import SimKernel

# States that reserve a way in the cache array.
_STABLE_STATES = ("S", "E", "M")
_TRANSIENT_ARRAY_STATES = ("IS_D", "IS_D_I", "IM_D", "SM_D")
# States of lines that have been removed from the array and are completing
# an eviction handshake.
_EVICTING_STATES = ("MI_A", "EI_A", "SI_A", "II_A")

_RETRY_DELAY = 8


@dataclass
class _Mshr:
    """Bookkeeping for one outstanding miss (one line address)."""

    kind: str                                   # "GetS" or "GetM"
    loads_before_inv: list[Callable[[int], None]] = field(default_factory=list)
    loads_after_inv: list[tuple[int, Callable[[int], None]]] = field(default_factory=list)
    pending_stores: list[tuple[int, int, Callable[[int], None]]] = field(default_factory=list)
    pending_rmws: list[tuple[int, int, Callable[[int, int], None]]] = field(default_factory=list)
    deferred_msgs: list[Message] = field(default_factory=list)
    load_addresses: list[tuple[int, Callable[[int], None]]] = field(default_factory=list)


@dataclass
class _Evicting:
    """A line undergoing a writeback handshake (off the array)."""

    state: str
    words: dict[int, int] = field(default_factory=dict)


class MesiL1Cache(CoherenceController):
    """Private L1 data cache with a MESI protocol."""

    controller_kind = "L1"

    def __init__(self, core_id: int, kernel: SimKernel, network: Interconnect,
                 config: SystemConfig, coverage: CoverageCollector,
                 faults: FaultSet, directory_name: str = "dir") -> None:
        super().__init__(f"l1_{core_id}", kernel, network, coverage, faults)
        self.core_id = core_id
        self.config = config
        self.directory_name = directory_name
        self.array = CacheArray(config.l1)
        self._line_bytes = config.l1.line_bytes
        self.stride = 16
        self.invalidation_listener: InvalidationListener | None = None
        self.reset()

    def reset(self) -> None:
        self.array.reset()
        self._mshrs: dict[int, _Mshr] = {}
        self._evicting: dict[int, _Evicting] = {}
        self._deferred_cpu: dict[int, list[tuple]] = {}
        self._pending_retries = 0

    # ------------------------------------------------------------------
    # CPU-side interface
    # ------------------------------------------------------------------

    def load(self, address: int, callback: Callable[[int], None]) -> None:
        if self._evicting and self._deferred(MesiL1Cache._do_load, address,
                                             callback):
            return
        self._do_load(address, callback)

    def store(self, address: int, value: int,
              callback: Callable[[int], None]) -> None:
        if self._evicting and self._deferred(MesiL1Cache._do_store, address,
                                             value, callback):
            return
        self._do_store(address, value, callback)

    def rmw(self, address: int, value: int,
            callback: Callable[[int, int], None]) -> None:
        if self._evicting and self._deferred(MesiL1Cache._do_rmw, address,
                                             value, callback):
            return
        self._do_rmw(address, value, callback)

    def flush(self, address: int, callback: Callable[[], None]) -> None:
        if self._evicting and self._deferred(MesiL1Cache._do_flush, address,
                                             callback):
            return
        self._do_flush(address, callback)

    def quiescent(self) -> bool:
        return (not self._mshrs and not self._evicting
                and not self._deferred_cpu and self._pending_retries == 0)

    # ------------------------------------------------------------------
    # Request dispatch helpers
    # ------------------------------------------------------------------

    def _deferred(self, action: Callable[..., None], address: int,
                  *args: object) -> bool:
        """Queue a CPU request while its line is evicting; True if queued.

        *action* is the unbound handler, so a queued request does not
        refer back to this controller: requests still queued when a run
        stops leave no reference cycle.
        """
        line_address = address - address % self._line_bytes
        if line_address not in self._evicting:
            return False
        self._deferred_cpu.setdefault(line_address, []).append(
            (action, address, *args))
        return True

    def _retry_later(self, action: Callable[[], None]) -> None:
        self._pending_retries += 1

        def run() -> None:
            self._pending_retries -= 1
            action()

        self.kernel.schedule(_RETRY_DELAY, run)

    def _notify_lq(self, line_address: int, reason: InvalidationReason) -> None:
        if self.invalidation_listener is not None:
            self.invalidation_listener(line_address, reason)

    def _make_room(self, line_address: int) -> bool:
        """Ensure the target set has a free way; returns False to retry later."""
        if not self.array.needs_victim(line_address):
            return True
        victim = self.array.select_victim(
            line_address, exclude_states=_TRANSIENT_ARRAY_STATES)
        if victim is None:
            return False
        self._evict_line(victim, InvalidationReason.REPLACEMENT)
        return True

    def _evict_line(self, line: CacheLine, reason: InvalidationReason) -> None:
        """Start the eviction handshake for a stable line."""
        line_address = line.line_address
        self.array.evict(line_address)
        if line.state == "M":
            self.record_transition("M", "Replacement")
            self._evicting[line_address] = _Evicting("MI_A", dict(line.words))
            self.send("PutM", self.directory_name, line_address,
                      words=dict(line.words), sender=self.name)
            self._notify_lq(line_address, reason)
        elif line.state == "E":
            self.record_transition("E", "Replacement")
            self._evicting[line_address] = _Evicting("EI_A", dict(line.words))
            self.send("PutE", self.directory_name, line_address, sender=self.name)
            self._notify_lq(line_address, reason)
        elif line.state == "S":
            self.record_transition("S", "Replacement")
            self._evicting[line_address] = _Evicting("SI_A", dict(line.words))
            self.send("PutS", self.directory_name, line_address, sender=self.name)
            suppress = (reason is InvalidationReason.REPLACEMENT
                        and self.faults.enabled(Fault.MESI_LQ_S_REPLACEMENT))
            if not suppress:
                # BUG SITE (MESI,LQ+S,Replacement): the correct protocol
                # notifies the LQ on an S-state replacement as well.
                self._notify_lq(line_address, reason)
        else:  # pragma: no cover - guarded by exclude_states
            self.invalid_transition(line.state, "Replacement")

    # ------------------------------------------------------------------
    # CPU request handlers
    # ------------------------------------------------------------------

    def _do_load(self, address: int, callback: Callable[[int], None]) -> None:
        line_address = address - address % self._line_bytes
        line = self.array.lookup(address)
        if line is None:
            if not self._make_room(line_address):
                self._retry_later(lambda: self._do_load(address, callback))
                return
            self.record_transition("I", "Load")
            self.array.allocate(line_address, "IS_D")
            mshr = _Mshr(kind="GetS")
            mshr.load_addresses.append((address, callback))
            mshr.loads_before_inv.append(
                lambda words, a=address, cb=callback: cb(words.get(a, 0)))
            self._mshrs[line_address] = mshr
            self.send("GetS", self.directory_name, line_address, sender=self.name)
            return
        state = line.state
        if state in ("S", "E", "M", "SM_D"):
            hit_state = "SM_D" if state == "SM_D" else state
            self.record_transition(hit_state, "Load")
            self.kernel.schedule(self.config.l1.hit_latency,
                                 lambda: callback(line.read_word(address)))
            return
        mshr = self._mshrs[line_address]
        if state == "IS_D":
            self.record_transition("IS_D", "Load")
            mshr.load_addresses.append((address, callback))
            mshr.loads_before_inv.append(
                lambda words, a=address, cb=callback: cb(words.get(a, 0)))
        elif state == "IS_D_I":
            self.record_transition("IS_D_I", "Load")
            mshr.loads_after_inv.append((address, callback))
        elif state == "IM_D":
            self.record_transition("IM_D", "Load")
            mshr.loads_before_inv.append(
                lambda words, a=address, cb=callback: cb(words.get(a, 0)))
        else:  # pragma: no cover
            self.invalid_transition(state, "Load")

    def _do_store(self, address: int, value: int,
                  callback: Callable[[int], None]) -> None:
        line_address = address - address % self._line_bytes
        line = self.array.lookup(address)
        if line is None:
            if not self._make_room(line_address):
                self._retry_later(lambda: self._do_store(address, value, callback))
                return
            self.record_transition("I", "Store")
            self.array.allocate(line_address, "IM_D")
            mshr = _Mshr(kind="GetM")
            mshr.pending_stores.append((address, value, callback))
            self._mshrs[line_address] = mshr
            self.send("GetM", self.directory_name, line_address, sender=self.name)
            return
        state = line.state
        if state == "M":
            self.record_transition("M", "Store")
            overwritten = line.write_word(address, value)
            self.kernel.schedule(self.config.l1.hit_latency,
                                 lambda: callback(overwritten))
        elif state == "E":
            self.record_transition("E", "Store")
            line.state = "M"
            overwritten = line.write_word(address, value)
            self.kernel.schedule(self.config.l1.hit_latency,
                                 lambda: callback(overwritten))
        elif state == "S":
            self.record_transition("S", "Store")
            line.state = "SM_D"
            mshr = _Mshr(kind="GetM")
            mshr.pending_stores.append((address, value, callback))
            self._mshrs[line_address] = mshr
            self.send("GetM", self.directory_name, line_address, sender=self.name)
        elif state in ("IS_D", "IS_D_I", "IM_D", "SM_D"):
            self.record_transition(state, "Store")
            self._mshrs[line_address].pending_stores.append((address, value, callback))
        else:  # pragma: no cover
            self.invalid_transition(state, "Store")

    def _do_rmw(self, address: int, value: int,
                callback: Callable[[int, int], None]) -> None:
        line_address = address - address % self._line_bytes
        line = self.array.lookup(address)
        if line is None:
            if not self._make_room(line_address):
                self._retry_later(lambda: self._do_rmw(address, value, callback))
                return
            self.record_transition("I", "RMW")
            self.array.allocate(line_address, "IM_D")
            mshr = _Mshr(kind="GetM")
            mshr.pending_rmws.append((address, value, callback))
            self._mshrs[line_address] = mshr
            self.send("GetM", self.directory_name, line_address, sender=self.name)
            return
        state = line.state
        if state in ("M", "E"):
            self.record_transition(state, "RMW")
            line.state = "M"
            read_value = line.read_word(address)
            overwritten = line.write_word(address, value)
            self.kernel.schedule(self.config.l1.hit_latency,
                                 lambda: callback(read_value, overwritten))
        elif state == "S":
            self.record_transition("S", "RMW")
            line.state = "SM_D"
            mshr = _Mshr(kind="GetM")
            mshr.pending_rmws.append((address, value, callback))
            self._mshrs[line_address] = mshr
            self.send("GetM", self.directory_name, line_address, sender=self.name)
        elif state in ("IS_D", "IS_D_I", "IM_D", "SM_D"):
            self.record_transition(state, "RMW")
            self._mshrs[line_address].pending_rmws.append((address, value, callback))
        else:  # pragma: no cover
            self.invalid_transition(state, "RMW")

    def _do_flush(self, address: int, callback: Callable[[], None]) -> None:
        line_address = address - address % self._line_bytes
        line = self.array.lookup(address)
        if line is None or line.state in _TRANSIENT_ARRAY_STATES:
            self.record_transition("I", "Flush")
            callback()
            return
        self.record_transition(line.state, "Flush")
        self._evict_line(line, InvalidationReason.FLUSH)
        callback()

    # ------------------------------------------------------------------
    # Network-side events
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        kind = message.kind
        if kind in ("Data", "DataE", "DataM"):
            self._on_data(message)
        elif kind == "Inv":
            self._on_inv(message)
        elif kind in ("FwdGetS", "FwdGetM", "Recall"):
            self._on_forward(message)
        elif kind == "WBAck":
            self._on_wback(message)
        else:  # pragma: no cover
            self.invalid_transition("?", kind, f"unexpected message {message}")

    # -- data responses ----------------------------------------------------

    def _on_data(self, message: Message) -> None:
        line_address = message.line_address
        # Every data grant carries its own copy of the words: take it.
        words: dict[int, int] = message.payload.get("words", {})
        line = self.array.lookup(line_address, touch=False)
        if line is None or line_address not in self._mshrs:
            self.invalid_transition("I", message.kind, "data without MSHR")
            return
        mshr = self._mshrs.pop(line_address)
        state = line.state

        if state in ("IS_D",) and message.kind in ("Data", "DataE"):
            self.record_transition(state, message.kind)
            line.words = words
            line.state = "S" if message.kind == "Data" else "E"
            self._satisfy_loads(mshr.loads_before_inv, line.words)
            # Forwards that overtook this grant (we were made owner before the
            # data arrived) can now be serviced from the stable state.
            for deferred in list(mshr.deferred_msgs):
                self.handle_message(deferred)
            self._redispatch_writes(mshr)
            return

        if state == "IS_D_I" and message.kind in ("Data", "DataE"):
            self.record_transition("IS_D_I", message.kind)
            self.array.evict(line_address)
            for deferred in list(mshr.deferred_msgs):
                self.handle_message(deferred)
            if self.faults.enabled(Fault.MESI_LQ_IS_INV):
                # BUG SITE (MESI,LQ+IS,Inv): the buggy protocol hands the
                # (already invalidated, possibly stale) data to the waiting
                # loads without telling the load queue that the line was
                # invalidated - younger/older loads can then observe a
                # read->read reordering forbidden by TSO.
                self._satisfy_loads(mshr.loads_before_inv, words)
                for address, callback in mshr.loads_after_inv:
                    self.kernel.schedule(
                        1, lambda a=address, cb=callback: self.load(a, cb))
                self._redispatch_writes(mshr)
                return
            # Correct behaviour: forward the invalidation to the LQ together
            # with the data response and replay the waiting loads so that
            # they re-request fresh data (no stale binding).
            self._notify_lq(line_address, InvalidationReason.INVALIDATION)
            for waiter_address, waiter_cb in mshr.load_addresses:
                self.kernel.schedule(
                    1, lambda a=waiter_address, cb=waiter_cb: self.load(a, cb))
            for address, callback in mshr.loads_after_inv:
                self.kernel.schedule(
                    1, lambda a=address, cb=callback: self.load(a, cb))
            self._redispatch_writes(mshr)
            return

        if state in ("IM_D", "SM_D") and message.kind in ("DataM", "Data"):
            self.record_transition(state, "DataM")
            if state == "IM_D" or not line.words:
                line.words = words
            self._satisfy_loads(mshr.loads_before_inv, line.words)
            line.state = "M"
            self._apply_writes(line, mshr)
            deferred = list(mshr.deferred_msgs)
            for msg in deferred:
                self.handle_message(msg)
            return

        self.invalid_transition(state, message.kind)

    def _satisfy_loads(self, waiters: list[Callable[[dict[int, int]], None]],
                       words: dict[int, int]) -> None:
        for waiter in waiters:
            self.kernel.schedule(self.config.l1.hit_latency,
                                 lambda w=waiter: w(dict(words)))

    def _apply_writes(self, line: CacheLine, mshr: _Mshr) -> None:
        for address, value, callback in mshr.pending_stores:
            overwritten = line.write_word(address, value)
            self.kernel.schedule(1, lambda cb=callback, o=overwritten: cb(o))
        for address, value, callback in mshr.pending_rmws:
            read_value = line.read_word(address)
            overwritten = line.write_word(address, value)
            self.kernel.schedule(
                1, lambda cb=callback, r=read_value, o=overwritten: cb(r, o))

    def _redispatch_writes(self, mshr: _Mshr) -> None:
        """After a read fill, re-run queued writes (they will upgrade)."""
        for address, value, callback in mshr.pending_stores:
            self.kernel.schedule(1, lambda a=address, v=value, cb=callback:
                                 self.store(a, v, cb))
        for address, value, callback in mshr.pending_rmws:
            self.kernel.schedule(1, lambda a=address, v=value, cb=callback:
                                 self.rmw(a, v, cb))

    # -- invalidations ------------------------------------------------------

    def _on_inv(self, message: Message) -> None:
        line_address = message.line_address
        line = self.array.lookup(line_address, touch=False)
        if line is not None:
            state = line.state
            if state == "S":
                self.record_transition("S", "Inv")
                self.array.evict(line_address)
                self.send("InvAck", self.directory_name, line_address,
                          sender=self.name)
                self._notify_lq(line_address, InvalidationReason.INVALIDATION)
                self._run_deferred_cpu(line_address)
            elif state == "IS_D":
                self.record_transition("IS_D", "Inv")
                line.state = "IS_D_I"
                self.send("InvAck", self.directory_name, line_address,
                          sender=self.name)
            elif state == "IS_D_I":
                self.record_transition("IS_D_I", "Inv")
                self.send("InvAck", self.directory_name, line_address,
                          sender=self.name)
            elif state == "SM_D":
                self.record_transition("SM_D", "Inv")
                line.words = {}
                line.state = "IM_D"
                self.send("InvAck", self.directory_name, line_address,
                          sender=self.name)
                if not self.faults.enabled(Fault.MESI_LQ_SM_INV):
                    # BUG SITE (MESI,LQ+SM,Inv): correct protocol forwards
                    # the invalidation to the LSQ in SM.
                    self._notify_lq(line_address, InvalidationReason.INVALIDATION)
            elif state == "IM_D":
                self.record_transition("IM_D", "Inv")
                self.send("InvAck", self.directory_name, line_address,
                          sender=self.name)
            else:
                self.invalid_transition(state, "Inv")
            return
        evicting = self._evicting.get(line_address)
        if evicting is not None:
            self.record_transition(evicting.state, "Inv")
            self.send("InvAck", self.directory_name, line_address, sender=self.name)
            evicting.state = "II_A"
            return
        # Stale invalidation that crossed our own eviction.
        self.record_transition("I", "Inv")
        self.send("InvAck", self.directory_name, line_address, sender=self.name)

    # -- forwards / recalls --------------------------------------------------

    def _on_forward(self, message: Message) -> None:
        kind = message.kind
        line_address = message.line_address
        line = self.array.lookup(line_address, touch=False)
        if line is not None:
            state = line.state
            if state in ("IM_D", "SM_D", "IS_D", "IS_D_I"):
                # The forward overtook our own data grant; defer it.
                self.record_transition(state, f"{kind}-deferred")
                self._mshrs[line_address].deferred_msgs.append(message)
                return
            if state == "S":
                # A stale forward from a transaction that raced with one of
                # our earlier writebacks.  Relinquish the line: the directory
                # reconciles its owner bookkeeping from our response.
                self.record_transition("S", kind)
                self.send("DataWB", self.directory_name, line_address,
                          words=dict(line.words), dirty=False, sender=self.name)
                self.array.evict(line_address)
                self._notify_lq(line_address, InvalidationReason.INVALIDATION)
                self._run_deferred_cpu(line_address)
                return
            if state == "M":
                self.record_transition("M", kind)
                self.send("DataWB", self.directory_name, line_address,
                          words=dict(line.words), dirty=True, sender=self.name)
                if kind == "FwdGetS":
                    line.state = "S"
                else:
                    self.array.evict(line_address)
                    if not self.faults.enabled(Fault.MESI_LQ_M_INV):
                        # BUG SITE (MESI,LQ+M,Inv).
                        self._notify_lq(line_address,
                                        InvalidationReason.INVALIDATION)
                    self._run_deferred_cpu(line_address)
                return
            if state == "E":
                self.record_transition("E", kind)
                self.send("DataWB", self.directory_name, line_address,
                          words=dict(line.words), dirty=False, sender=self.name)
                if kind == "FwdGetS":
                    line.state = "S"
                else:
                    self.array.evict(line_address)
                    if not self.faults.enabled(Fault.MESI_LQ_E_INV):
                        # BUG SITE (MESI,LQ+E,Inv).
                        self._notify_lq(line_address,
                                        InvalidationReason.INVALIDATION)
                    self._run_deferred_cpu(line_address)
                return
            self.invalid_transition(state, kind)
            return
        evicting = self._evicting.get(line_address)
        if evicting is not None:
            self.record_transition(evicting.state, kind)
            dirty = evicting.state == "MI_A"
            if evicting.state == "II_A":
                self.send("DataWB", self.directory_name, line_address,
                          words={}, dirty=False, not_present=True, sender=self.name)
            else:
                self.send("DataWB", self.directory_name, line_address,
                          words=dict(evicting.words), dirty=dirty, sender=self.name)
                evicting.state = "II_A"
            return
        # The forward raced with an eviction that has already completed (our
        # PutM/PutE satisfied the directory's transaction before this message
        # arrived).  Answer "not present"; the directory treats it as stale.
        self.record_transition("I", kind)
        self.send("DataWB", self.directory_name, line_address, words={},
                  dirty=False, not_present=True, sender=self.name)

    # -- writeback acks ------------------------------------------------------

    def _on_wback(self, message: Message) -> None:
        line_address = message.line_address
        evicting = self._evicting.pop(line_address, None)
        if evicting is None:
            self.invalid_transition("I", "WBAck", "no eviction outstanding")
            return
        self.record_transition(evicting.state, "WBAck")
        self._run_deferred_cpu(line_address)

    def _run_deferred_cpu(self, line_address: int) -> None:
        deferred = self._deferred_cpu.pop(line_address, None)
        if not deferred:
            return
        for action, *request in deferred:
            self.kernel.schedule(1, partial(action, self, *request))
