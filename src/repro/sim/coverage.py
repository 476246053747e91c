"""Structural coverage of coherence-protocol transitions (paper §3.2).

Coverage is recorded as ``(controller_kind, state, event)`` triples.  As in
the paper, identical controllers (e.g. the per-core L1s) are not
distinguished: their transitions are summed under one controller kind.  The
collector keeps both global counts (since simulation start) and the set of
transitions covered by the current test-run, which is what the adaptive
fitness function consumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True, order=True)
class TransitionKey:
    """One protocol transition: controller kind x state x triggering event."""

    controller: str
    state: str
    event: str

    # Every recorded transition hashes its key into ``global_counts`` and
    # the run set, so the hash is computed once, here.  It is the value
    # the generated ``__hash__`` would return, so set and Counter orders
    # do not change.  String hashes differ between processes: the cached
    # value never leaves one, and is rebuilt on unpickle and on codec
    # decode (which calls ``__init__``).
    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash",
                           hash((self.controller, self.state, self.event)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict[str, str]:
        return {"controller": self.controller, "state": self.state,
                "event": self.event}

    def __setstate__(self, state: dict[str, str]) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.controller}:{self.state}--{self.event}"


@dataclass(frozen=True)
class CoverageState:
    """Picklable snapshot of a collector's cumulative observations.

    Per-run state (:meth:`CoverageCollector.run_transitions`) is
    deliberately excluded: checkpoints are only taken between test-runs,
    when the run set is about to be reset anyway.
    """

    counts: tuple[tuple[TransitionKey, int], ...] = ()
    known: frozenset[TransitionKey] = field(default_factory=frozenset)


class CoverageCollector:
    """Accumulates protocol-transition coverage.

    ``record`` is called by the coherence controllers on every transition.
    The engine calls :meth:`begin_run` before a test-run and reads
    :meth:`run_transitions` afterwards.
    """

    def __init__(self) -> None:
        self.global_counts: Counter[TransitionKey] = Counter()
        self._run_transitions: set[TransitionKey] = set()
        self._known: set[TransitionKey] = set()
        # Interned keys by raw ``(controller, state, event)``: every key
        # here is also in ``_known``.  Raw tuples hash in C; the
        # dataclass keys hash in Python.
        self._interned: dict[tuple[str, str, str], TransitionKey] = {}

    def __getstate__(self) -> dict:
        # The intern table is a cache rebuilt on demand: keep it out of
        # pickles, so shard results cross the wire as before.
        state = dict(self.__dict__)
        del state["_interned"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._interned = {}

    def declare(self, transitions: Iterable[TransitionKey]) -> None:
        """Declare transitions that exist in the protocol specification.

        Declaring the full transition space lets total coverage be reported
        as a fraction (Table 6) even for transitions never exercised.
        """
        self._known.update(transitions)

    def record(self, controller: str, state: str, event: str) -> TransitionKey:
        raw = (controller, state, event)
        key = self._interned.get(raw)
        if key is None:
            key = self._interned[raw] = TransitionKey(controller, state, event)
            self._known.add(key)
        self.global_counts[key] += 1
        self._run_transitions.add(key)
        return key

    def begin_run(self) -> None:
        """Reset the per-test-run transition set (global counts persist)."""
        self._run_transitions = set()

    def run_transitions(self) -> frozenset[TransitionKey]:
        return frozenset(self._run_transitions)

    @property
    def known_transitions(self) -> frozenset[TransitionKey]:
        return frozenset(self._known)

    @property
    def covered_transitions(self) -> frozenset[TransitionKey]:
        return frozenset(self.global_counts)

    def total_coverage(self) -> float:
        """Fraction of known transitions covered at least once (Table 6)."""
        if not self._known:
            return 0.0
        return len(self.global_counts) / len(self._known)

    def rare_transitions(self, cutoff: int) -> frozenset[TransitionKey]:
        """Transitions whose global count is below ``cutoff`` (plus unseen).

        This is the transition set the adaptive fitness function focuses on
        (paper §3.2: frequent transitions are excluded from coverage).
        """
        rare = {key for key in self._known if self.global_counts[key] < cutoff}
        return frozenset(rare)

    def merge(self, other: "CoverageCollector") -> None:
        """Fold another collector's observations into this one."""
        self.global_counts.update(other.global_counts)
        self._known.update(other._known)

    # -- checkpoint/resume (chunked campaign scheduling) -------------------

    def checkpoint(self) -> CoverageState:
        """Snapshot the cumulative counts and known set between test-runs."""
        return CoverageState(counts=tuple(self.global_counts.items()),
                             known=frozenset(self._known))

    def restore(self, state: CoverageState) -> None:
        """Replace this collector's cumulative state with a snapshot."""
        self.global_counts = Counter(dict(state.counts))
        self._known = set(state.known)
        self._run_transitions = set()
        self._interned = {}
