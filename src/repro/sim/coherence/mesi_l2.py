"""MESI directory / shared L2 controller.

The directory is the ordering point of the protocol.  It is *blocking*: while
a line is in a transient state, newly arriving GetS/GetM requests for that
line are queued and serviced in order once the line returns to a stable
state.  Responses (acks, writebacks, recall data) are always processed
immediately, which is where the protocol races studied in the paper live:

* a ``PutM`` from the old owner racing with a ``FwdGetM`` the directory has
  already sent (the MESI+PUTX-Race bug is injected by *removing* the
  handling of this race, turning it into an invalid transition);
* an L2 replacement of a block owned by an L1 that was granted the line
  clean (E) but has silently dirtied it (the MESI+Replace-Race bug is
  injected by skipping the owner recall for such blocks, losing the
  modified data).

Directory states: ``NP`` (not present, only in memory), ``SS`` (L2 data
valid, zero or more sharers), ``EE`` (exclusive clean owner), ``MT``
(modified owner), plus transients ``NP_D_S``/``NP_D_M`` (memory fetch),
``SS_MB`` (collecting invalidation acks), ``MT_SB``/``MT_MB`` (owner
forward outstanding), ``MT_EV``/``SS_EV`` (L2 eviction in progress).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.sim.cache import CacheArray, CacheLine
from repro.sim.coherence.base import CoherenceController
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.faults import Fault, FaultSet
from repro.sim.interconnect import Interconnect, Message
from repro.sim.kernel import SimKernel
from repro.sim.memory import MainMemory

_STABLE_STATES = ("SS", "EE", "MT")
_TRANSIENT_ARRAY_STATES = ("NP_D_S", "NP_D_M", "SS_MB", "MT_SB", "MT_MB")

_RETRY_DELAY = 8


@dataclass
class _Evicting:
    """An L2 line being evicted (recall or sharer invalidation outstanding)."""

    state: str                      # "MT_EV" or "SS_EV"
    words: dict[int, int] = field(default_factory=dict)
    owner: str | None = None
    pending_acks: int = 0


class MesiDirectory(CoherenceController):
    """Shared L2 cache combined with the MESI directory."""

    controller_kind = "L2"

    def __init__(self, kernel: SimKernel, network: Interconnect,
                 config: SystemConfig, memory: MainMemory,
                 coverage: CoverageCollector, faults: FaultSet,
                 name: str = "dir") -> None:
        super().__init__(name, kernel, network, coverage, faults)
        self.config = config
        self.memory = memory
        self.array = CacheArray(config.l2)
        self.stride = 16
        self.reset()

    def reset(self) -> None:
        self.array.reset()
        self._evicting: dict[int, _Evicting] = {}
        self._queued: dict[int, deque[Message]] = {}
        self._pending_fetches = 0
        self._pending_retries = 0

    # ------------------------------------------------------------------

    def quiescent(self) -> bool:
        busy_lines = any(line.state in _TRANSIENT_ARRAY_STATES
                         for line in self.array.all_lines())
        return (not busy_lines and not self._evicting
                and not any(self._queued.values())
                and self._pending_fetches == 0 and self._pending_retries == 0)

    def _is_busy(self, line_address: int) -> bool:
        if line_address in self._evicting:
            return True
        line = self.array.lookup(line_address, touch=False)
        return line is not None and line.state in _TRANSIENT_ARRAY_STATES

    def _l2_latency(self) -> int:
        return self.kernel.jitter(self.config.l2.hit_latency,
                                  self.config.l2_hit_latency_max)

    def _memory_latency(self) -> int:
        return self.kernel.jitter(self.config.memory_latency_min,
                                  self.config.memory_latency_max)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def handle_message(self, message: Message) -> None:
        kind = message.kind
        if kind in ("GetS", "GetM"):
            self._on_request(message)
        elif kind in ("PutM", "PutE", "PutS"):
            self._on_putback(message)
        elif kind == "InvAck":
            self._on_inv_ack(message)
        elif kind == "DataWB":
            self._on_data_wb(message)
        else:  # pragma: no cover
            self.invalid_transition("?", kind, f"unexpected message {message}")

    # ------------------------------------------------------------------
    # GetS / GetM
    # ------------------------------------------------------------------

    def _on_request(self, message: Message) -> None:
        line_address = message.line_address
        if self._is_busy(line_address):
            self._queued.setdefault(line_address, deque()).append(message)
            return
        requestor = str(message.payload["sender"])
        line = self.array.lookup(line_address, touch=False)
        if line is None:
            self._handle_request_np(message, requestor)
        elif message.kind == "GetS":
            self._handle_gets(line, requestor)
        else:
            self._handle_getm(line, requestor)
        # Requests handled without blocking leave the line stable; any
        # requests that queued up behind an earlier transaction must be
        # drained now, or they would wait forever.
        if not self._is_busy(line_address):
            self._unblock(line_address)

    def _handle_request_np(self, message: Message, requestor: str) -> None:
        line_address = message.line_address
        if not self._make_room(line_address):
            self._pending_retries += 1

            def retry() -> None:
                self._pending_retries -= 1
                self.handle_message(message)

            self.kernel.schedule(_RETRY_DELAY, retry)
            return
        state = "NP_D_S" if message.kind == "GetS" else "NP_D_M"
        self.record_transition("NP", message.kind)
        line = self.array.allocate(line_address, state)
        line.meta["requestor"] = requestor
        self._pending_fetches += 1

        def memory_arrived() -> None:
            self._pending_fetches -= 1
            words = self.memory.read_line(line_address,
                                          self.config.l2.line_bytes, self.stride)
            self._complete_memory_fetch(line, words)

        self.kernel.schedule(self._memory_latency(), memory_arrived)

    def _complete_memory_fetch(self, line: CacheLine, words: dict[int, int]) -> None:
        requestor = str(line.meta.pop("requestor"))
        line.words = words
        if line.state == "NP_D_S":
            self.record_transition("NP_D_S", "MemData")
            # No other sharers exist: grant Exclusive (clean).
            line.state = "EE"
            line.meta["owner"] = requestor
            line.meta["sharers"] = set()
            line.meta["clean_grant"] = True
            self.send("DataE", requestor, line.line_address,
                      words=dict(line.words))
        else:
            self.record_transition("NP_D_M", "MemData")
            line.state = "MT"
            line.meta["owner"] = requestor
            line.meta["sharers"] = set()
            line.meta["clean_grant"] = False
            self.send("DataM", requestor, line.line_address,
                      words=dict(line.words))
        self._unblock(line.line_address)

    def _handle_gets(self, line: CacheLine, requestor: str) -> None:
        state = line.state
        if state == "SS":
            self.record_transition("SS", "GetS")
            line.meta.setdefault("sharers", set()).add(requestor)
            self.send("Data", requestor, line.line_address,
                      extra_latency=self._l2_latency(), words=dict(line.words))
        elif state in ("EE", "MT"):
            self.record_transition(state, "GetS")
            owner = str(line.meta["owner"])
            line.state = "MT_SB"
            line.meta["requestor"] = requestor
            self.send("FwdGetS", owner, line.line_address)
        else:  # pragma: no cover
            self.invalid_transition(state, "GetS")

    def _handle_getm(self, line: CacheLine, requestor: str) -> None:
        state = line.state
        if state == "SS":
            self.record_transition("SS", "GetM")
            sharers = set(line.meta.get("sharers", set()))
            others = sharers - {requestor}
            if not others:
                line.state = "MT"
                line.meta["owner"] = requestor
                line.meta["sharers"] = set()
                line.meta["clean_grant"] = False
                self.send("DataM", requestor, line.line_address,
                          extra_latency=self._l2_latency(),
                          words=dict(line.words))
            else:
                line.state = "SS_MB"
                line.meta["requestor"] = requestor
                line.meta["pending_acks"] = len(others)
                for sharer in sorted(others):
                    self.send("Inv", sharer, line.line_address)
        elif state in ("EE", "MT"):
            self.record_transition(state, "GetM")
            owner = str(line.meta["owner"])
            line.state = "MT_MB"
            line.meta["requestor"] = requestor
            self.send("FwdGetM", owner, line.line_address)
        else:  # pragma: no cover
            self.invalid_transition(state, "GetM")

    # ------------------------------------------------------------------
    # Writebacks (PutM / PutE / PutS)
    # ------------------------------------------------------------------

    def _on_putback(self, message: Message) -> None:
        line_address = message.line_address
        sender = str(message.payload["sender"])
        kind = message.kind
        evicting = self._evicting.get(line_address)
        if evicting is not None:
            self._putback_during_l2_eviction(evicting, message, sender)
            return
        line = self.array.lookup(line_address, touch=False)
        if line is None:
            # Stale writeback for a line the directory no longer tracks
            # (e.g. after the Replace-Race bug dropped it): acknowledge but
            # do not write any data back - the update is lost.
            self.record_transition("NP", f"{kind}-stale")
            self.send("WBAck", sender, line_address)
            return
        state = line.state
        owner = line.meta.get("owner")
        if kind in ("PutM", "PutE") and state in ("EE", "MT") and owner == sender:
            self.record_transition(state, kind)
            if kind == "PutM":
                words = message.payload.get("words", {})
                line.words.update(words)
                self.memory.write_line(line.words)
            line.state = "SS"
            line.meta["owner"] = None
            line.meta["sharers"] = set()
            line.meta["clean_grant"] = False
            self.send("WBAck", sender, line_address)
            self._unblock(line_address)
            return
        if kind == "PutS" and state == "SS":
            self.record_transition("SS", "PutS")
            line.meta.setdefault("sharers", set()).discard(sender)
            self.send("WBAck", sender, line_address)
            return
        if state == "MT_MB" and kind in ("PutM", "PutE") and owner == sender:
            # The old owner's eviction writeback crossed our FwdGetM.
            if self.faults.enabled(Fault.MESI_PUTX_RACE):
                # BUG SITE (MESI+PUTX-Race): the unpatched protocol has no
                # transition for this race and dies on an invalid transition.
                self.invalid_transition(state, kind,
                                        "writeback raced with forward")
            self.record_transition(state, f"{kind}-race")
            if kind == "PutM":
                words = message.payload.get("words", {})
                line.words.update(words)
                self.memory.write_line(line.words)
            self.send("WBAck", sender, line_address)
            self._finish_owner_transfer(line)
            return
        if state == "MT_SB" and kind in ("PutM", "PutE") and owner == sender:
            self.record_transition(state, f"{kind}-race")
            if kind == "PutM":
                words = message.payload.get("words", {})
                line.words.update(words)
                self.memory.write_line(line.words)
            self.send("WBAck", sender, line_address)
            requestor = str(line.meta.pop("requestor"))
            line.state = "SS"
            line.meta["owner"] = None
            line.meta["sharers"] = {requestor}
            self.send("Data", requestor, line_address, words=dict(line.words))
            self._unblock(line_address)
            return
        if state == "SS_MB" and kind == "PutS":
            # A sharer's eviction crossed the invalidation we sent it; it
            # will still answer the Inv with an InvAck from its SI_A state.
            self.record_transition("SS_MB", "PutS-race")
            self.send("WBAck", sender, line_address)
            return
        # Anything else is a stale writeback from a non-owner/non-sharer.
        self.record_transition(state, f"{kind}-stale")
        self.send("WBAck", sender, line_address)

    def _putback_during_l2_eviction(self, evicting: _Evicting, message: Message,
                                    sender: str) -> None:
        line_address = message.line_address
        kind = message.kind
        if evicting.state == "MT_EV" and sender == evicting.owner:
            self.record_transition("MT_EV", kind)
            if kind == "PutM":
                words = message.payload.get("words", {})
                evicting.words.update(words)
            self.memory.write_line(evicting.words)
            self.send("WBAck", sender, line_address)
            del self._evicting[line_address]
            self._unblock(line_address)
            return
        self.record_transition(evicting.state, f"{kind}-stale")
        self.send("WBAck", sender, line_address)

    # ------------------------------------------------------------------
    # Invalidation acks
    # ------------------------------------------------------------------

    def _on_inv_ack(self, message: Message) -> None:
        line_address = message.line_address
        evicting = self._evicting.get(line_address)
        if evicting is not None and evicting.state == "SS_EV":
            self.record_transition("SS_EV", "InvAck")
            evicting.pending_acks -= 1
            if evicting.pending_acks <= 0:
                del self._evicting[line_address]
                self._unblock(line_address)
            return
        line = self.array.lookup(line_address, touch=False)
        if line is None or line.state != "SS_MB":
            # Ack from a stale invalidation; nothing to do.
            self.record_transition("NP" if line is None else line.state,
                                   "InvAck-stale")
            return
        self.record_transition("SS_MB", "InvAck")
        line.meta["pending_acks"] = int(line.meta["pending_acks"]) - 1
        if line.meta["pending_acks"] <= 0:
            requestor = str(line.meta.pop("requestor"))
            line.state = "MT"
            line.meta["owner"] = requestor
            line.meta["sharers"] = set()
            line.meta["clean_grant"] = False
            self.send("DataM", requestor, line_address, words=dict(line.words))
            self._unblock(line_address)

    # ------------------------------------------------------------------
    # Owner data responses (to FwdGetS / FwdGetM / Recall)
    # ------------------------------------------------------------------

    def _on_data_wb(self, message: Message) -> None:
        line_address = message.line_address
        sender = str(message.payload["sender"])
        dirty = bool(message.payload.get("dirty", False))
        not_present = bool(message.payload.get("not_present", False))
        words = message.payload.get("words", {})
        evicting = self._evicting.get(line_address)
        if evicting is not None and evicting.state == "MT_EV":
            if sender != evicting.owner:
                # A writeback belonging to an older, already completed
                # transaction; the recall response we are waiting for comes
                # from the current owner only.
                self.record_transition("MT_EV", "DataWB-stale")
                return
            self.record_transition("MT_EV", "DataWB")
            if dirty and not not_present:
                evicting.words.update(words)
            self.memory.write_line(evicting.words)
            del self._evicting[line_address]
            self._unblock(line_address)
            return
        line = self.array.lookup(line_address, touch=False)
        if line is None:
            self.record_transition("NP", "DataWB-stale")
            return
        state = line.state
        if state in ("EE", "MT") and sender == line.meta.get("owner"):
            # The owner answered a stale forward/recall (from a transaction
            # that was already completed by a crossing writeback) and has
            # relinquished the line; fold the data in and drop ownership so
            # the directory's view matches the caches again.
            self.record_transition(state, "DataWB-relinquish")
            if dirty and not not_present:
                line.words.update(words)
                self.memory.write_line(line.words)
            line.state = "SS"
            line.meta["owner"] = None
            line.meta["sharers"] = set()
            line.meta["clean_grant"] = False
            self._unblock(line_address)
            return
        if state in ("MT_SB", "MT_MB") and sender != line.meta.get("owner"):
            # Response from a previous owner whose transaction already
            # completed; ignore it and keep waiting for the current owner.
            self.record_transition(state, "DataWB-stale")
            return
        if state == "MT_SB":
            self.record_transition("MT_SB", "DataWB")
            if dirty and not not_present:
                line.words.update(words)
                self.memory.write_line(line.words)
            requestor = str(line.meta.pop("requestor"))
            old_owner = line.meta.get("owner")
            line.state = "SS"
            sharers = {requestor}
            if old_owner is not None and sender == old_owner and not not_present:
                sharers.add(str(old_owner))
            line.meta["owner"] = None
            line.meta["sharers"] = sharers
            line.meta["clean_grant"] = False
            self.send("Data", requestor, line_address,
                      extra_latency=self._l2_latency(), words=dict(line.words))
            self._unblock(line_address)
        elif state == "MT_MB":
            self.record_transition("MT_MB", "DataWB")
            if dirty and not not_present:
                line.words.update(words)
                self.memory.write_line(line.words)
            self._finish_owner_transfer(line)
        else:
            # A stale DataWB that lost a race with a PutM we already used.
            self.record_transition(state, "DataWB-stale")

    def _finish_owner_transfer(self, line: CacheLine) -> None:
        """Complete an MT_MB transaction: grant M to the queued requestor."""
        requestor = str(line.meta.pop("requestor"))
        line.state = "MT"
        line.meta["owner"] = requestor
        line.meta["sharers"] = set()
        line.meta["clean_grant"] = False
        self.send("DataM", requestor, line.line_address, words=dict(line.words))
        self._unblock(line.line_address)

    # ------------------------------------------------------------------
    # L2 capacity evictions
    # ------------------------------------------------------------------

    def _make_room(self, line_address: int) -> bool:
        if not self.array.needs_victim(line_address):
            return True
        victim = self.array.select_victim(
            line_address, exclude_states=_TRANSIENT_ARRAY_STATES)
        if victim is None:
            return False
        self._evict_l2_line(victim)
        return not self.array.needs_victim(line_address)

    def _evict_l2_line(self, victim: CacheLine) -> None:
        line_address = victim.line_address
        state = victim.state
        self.array.evict(line_address)
        if state == "SS":
            sharers = set(victim.meta.get("sharers", set()))
            self.record_transition("SS", "Replacement")
            self.memory.write_line(victim.words)
            if not sharers:
                return
            self._evicting[line_address] = _Evicting(
                "SS_EV", dict(victim.words), pending_acks=len(sharers))
            for sharer in sorted(sharers):
                self.send("Inv", sharer, line_address)
            return
        if state in ("EE", "MT"):
            owner = str(victim.meta["owner"])
            clean_grant = bool(victim.meta.get("clean_grant", False))
            if (state == "EE" and clean_grant
                    and self.faults.enabled(Fault.MESI_REPLACE_RACE)):
                # BUG SITE (MESI+Replace-Race): the L2 believes the block is
                # clean and drops it without recalling the owner.  If the
                # owner silently upgraded E->M, its modified data is no
                # longer tracked and will be lost on writeback.
                self.record_transition("EE", "Replacement-dropped")
                return
            self.record_transition(state, "Replacement")
            self._evicting[line_address] = _Evicting(
                "MT_EV", dict(victim.words), owner=owner)
            self.send("Recall", owner, line_address)
            return
        # pragma: no cover - transient states are excluded from victim search
        self.invalid_transition(state, "Replacement")

    # ------------------------------------------------------------------
    # Queued request processing
    # ------------------------------------------------------------------

    def _unblock(self, line_address: int) -> None:
        queue = self._queued.get(line_address)
        if not queue:
            return
        message = queue.popleft()
        if not queue:
            del self._queued[line_address]
        self.kernel.schedule(1, lambda: self.handle_message(message))
