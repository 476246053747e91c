"""A mergeable, bounded verdict cache for collective checking.

:class:`VerdictCache` memoizes checker verdicts keyed by the digest of
the exact execution graph (:mod:`repro.consistency.signature`), so a
sweep pays full checker cost only on graphs it has not checked yet.
Like ``CoverageCollector`` it is built to *fold across shards*: ``mark()`` /
``delta()`` extract exactly the entries a chunk discovered,
``merge()`` folds states or deltas from other workers in, and
``snapshot()`` captures the whole cache as the state a dispatch ships
and the durable store keeps.  All state is plain picklable data, so
shipments ride the existing chunk-dispatch and outcome hops unchanged.
Engine checkpoints carry no cache state: the dispatch that resumes a
paused chunk already ships every entry the sweep has learned.

The determinism contract (cache-on bit-for-bit ≡ cache-off) is enforced
one layer up, in :class:`~repro.consistency.checker.Checker`: only
*passing* verdicts short-circuit a check (a pass carries no violation
text, so replaying it is byte-identical to recomputing it); a cached
*failing* verdict is always re-checked so the violation descriptions are
regenerated from the actual execution at hand.  The cache itself
therefore only ever changes *when* work happens, never what is reported
— hit/miss/seconds-saved counters are telemetry, excluded from the
determinism contract exactly like wall-clock timings.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.locking import TracedLock, guarded_by, requires_lock

#: Default LRU bound: entries are ~100 pickled bytes, so a full cache
#: snapshots to a couple of MiB — comfortably inside the cache-shipment
#: cap of a task frame.
DEFAULT_CACHE_CAPACITY = 16384


@dataclass(frozen=True)
class CachedVerdict:
    """The memoized outcome of one unique execution graph."""

    passed: bool


@dataclass(frozen=True)
class VerdictCacheState:
    """A full, picklable snapshot of a cache (entries oldest-first)."""

    capacity: int
    entries: tuple  # ((key, CachedVerdict), ...) in LRU order
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    failed_refreshes: int = 0
    seconds_saved: float = 0.0
    check_seconds_observed: float = 0.0
    checks_observed: int = 0


@dataclass(frozen=True)
class VerdictCacheDelta:
    """Entries inserted and counters accumulated since a ``mark()``."""

    entries: tuple  # ((key, CachedVerdict), ...) in insertion order
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    failed_refreshes: int = 0
    seconds_saved: float = 0.0
    check_seconds_observed: float = 0.0
    checks_observed: int = 0


@dataclass(frozen=True)
class CacheMark:
    """An opaque position in a cache's insertion/counter history."""

    insert_seq: int
    hits: int
    misses: int
    evictions: int
    failed_refreshes: int
    seconds_saved: float
    check_seconds_observed: float
    checks_observed: int


@guarded_by("_lock", "_entries", "_insert_seq", "hits", "misses",
            "evictions", "failed_refreshes", "seconds_saved",
            "check_seconds_observed", "checks_observed")
class VerdictCache:
    """Bounded LRU of execution key → verdict with mergeable deltas.

    Thread-safe: shipment assembly on the coordinator reads the cache
    while worker outcomes merge deltas in, so every entry/counter access
    goes through ``_lock`` (always acquired *after* the scheduler lock,
    never before — see the hierarchy note in :mod:`repro.locking`).
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = TracedLock("verdict_cache")
        # key -> (verdict, insert_seq); OrderedDict order is LRU order.
        self._entries: OrderedDict = OrderedDict()
        self._insert_seq = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.failed_refreshes = 0
        self.seconds_saved = 0.0
        self.check_seconds_observed = 0.0
        self.checks_observed = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def inserts(self) -> int:
        """Monotone insertion counter — cheap change-detection for shipments."""
        with self._lock:
            return self._insert_seq

    @requires_lock("_lock")
    def _mean_check_seconds(self) -> float:
        if not self.checks_observed:
            return 0.0
        return self.check_seconds_observed / self.checks_observed

    def lookup(self, key) -> CachedVerdict | None:
        """The cached verdict for *key*, updating counters and LRU order.

        A passing hit is the payoff (the caller may skip the check, so
        the running mean of observed check times accrues to
        ``seconds_saved``); a failing hit counts as ``failed_refreshes``
        because the caller re-checks to regenerate violation context.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            verdict = entry[0]
            if verdict.passed:
                self.hits += 1
                self.seconds_saved += self._mean_check_seconds()
            else:
                self.failed_refreshes += 1
            return verdict

    def store(self, key, verdict: CachedVerdict,
              check_seconds: float = 0.0) -> None:
        """Record the verdict of a fully executed check for *key*."""
        with self._lock:
            self.check_seconds_observed += check_seconds
            self.checks_observed += 1
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = (verdict, self._insert_seq)
            self._insert_seq += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    # -- delta / merge / snapshot (the CoverageCollector.merge idiom) -----

    def mark(self) -> CacheMark:
        """A position marker; ``delta(mark)`` returns what happened since."""
        with self._lock:
            return CacheMark(
                insert_seq=self._insert_seq, hits=self.hits,
                misses=self.misses, evictions=self.evictions,
                failed_refreshes=self.failed_refreshes,
                seconds_saved=self.seconds_saved,
                check_seconds_observed=self.check_seconds_observed,
                checks_observed=self.checks_observed)

    def delta(self, mark: CacheMark) -> VerdictCacheDelta:
        """Entries inserted and counters accumulated since *mark*.

        Entries merged in from elsewhere before the mark (e.g. a
        dispatch shipment) carry older sequence numbers and are
        excluded — a chunk's delta is exactly its own discoveries.
        Entries evicted since the mark simply drop out; eviction only
        ever costs downstream re-checks.
        """
        with self._lock:
            fresh = tuple(sorted(
                ((key, entry[0])
                 for key, entry in self._entries.items()
                 if entry[1] >= mark.insert_seq),
                key=lambda item: self._entries[item[0]][1]))
            return VerdictCacheDelta(
                entries=fresh,
                hits=self.hits - mark.hits,
                misses=self.misses - mark.misses,
                evictions=self.evictions - mark.evictions,
                failed_refreshes=(self.failed_refreshes
                                  - mark.failed_refreshes),
                seconds_saved=self.seconds_saved - mark.seconds_saved,
                check_seconds_observed=(self.check_seconds_observed
                                        - mark.check_seconds_observed),
                checks_observed=self.checks_observed - mark.checks_observed)

    def merge(self, other: "VerdictCacheState | VerdictCacheDelta") -> int:
        """Fold entries from a state or delta in; returns entries adopted.

        Idempotent on keys: known keys are left untouched (not even
        LRU-refreshed, so merge order cannot perturb eviction order
        beyond what insertions already do).  Counters are *not* merged —
        they describe where the entries were earned; aggregation across
        shards happens in the scheduler's telemetry fold.
        """
        with self._lock:
            adopted = 0
            for key, verdict in other.entries:
                if key in self._entries:
                    continue
                self._entries[key] = (verdict, self._insert_seq)
                self._insert_seq += 1
                adopted += 1
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            return adopted

    def snapshot(self) -> VerdictCacheState:
        """A picklable state of every entry (oldest first) and counter."""
        with self._lock:
            return VerdictCacheState(
                capacity=self.capacity,
                entries=tuple((key, entry[0])
                              for key, entry in self._entries.items()),
                hits=self.hits, misses=self.misses,
                evictions=self.evictions,
                failed_refreshes=self.failed_refreshes,
                seconds_saved=self.seconds_saved,
                check_seconds_observed=self.check_seconds_observed,
                checks_observed=self.checks_observed)

    def stats(self) -> dict:
        """Telemetry view: entry count, hit-rate and seconds saved."""
        with self._lock:
            lookups = self.hits + self.misses + self.failed_refreshes
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "failed_refreshes": self.failed_refreshes,
                "evictions": self.evictions,
                "hit_rate": (round(self.hits / lookups, 4)
                             if lookups else 0.0),
                "seconds_saved": round(self.seconds_saved, 6),
            }
