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
from functools import lru_cache
from operator import attrgetter
from typing import Iterable


@dataclass(frozen=True, order=True)
class TransitionKey:
    """One protocol transition: controller kind x state x triggering event.

    Its generated hash is ``hash((controller, state, event))``, the hash
    of the raw tuple the collector counts, so sets and dicts keep the
    same order whichever of the two they hold.
    """

    controller: str
    state: str
    event: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.controller}:{self.state}--{self.event}"


#: ``transition_key(controller, state, event)``: the key of a raw
#: transition, built on first use at a boundary and cached.  The bound
#: is well above the protocols' transition space.
transition_key = lru_cache(maxsize=4096)(TransitionKey)
#: ``raw_transition(key)``: a key's raw ``(controller, state, event)``.
raw_transition = attrgetter("controller", "state", "event")


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

    Transitions are counted on the raw ``(controller, state, event)``
    tuple, which hashes in C; :class:`TransitionKey` objects are built
    only where transitions leave the collector.  The run set is a dict,
    so it remembers first-record order.
    """

    def __init__(self) -> None:
        self._counts: dict[tuple[str, str, str], int] = {}
        self._run: dict[tuple[str, str, str], None] = {}
        self._known: set[tuple[str, str, str]] = set()

    def declare(self, transitions: Iterable[TransitionKey]) -> None:
        """Declare transitions that exist in the protocol specification.

        Declaring the full transition space lets total coverage be reported
        as a fraction (Table 6) even for transitions never exercised.
        """
        self._known.update(map(raw_transition, transitions))

    def record(self, controller: str, state: str, event: str) -> None:
        transition = (controller, state, event)
        counts = self._counts
        count = counts.get(transition)
        if count is None:
            count = 0
            self._known.add(transition)
        counts[transition] = count + 1
        self._run[transition] = None

    def begin_run(self) -> None:
        """Reset the per-test-run transition set (global counts persist)."""
        self._run = {}

    @property
    def global_counts(self) -> Counter[TransitionKey]:
        """Count per transition since simulation start, first-record order."""
        return Counter({transition_key(*transition): count
                        for transition, count in self._counts.items()})

    def run_transitions(self) -> frozenset[TransitionKey]:
        return frozenset({transition_key(*transition)
                          for transition in self._run})

    @property
    def known_transitions(self) -> frozenset[TransitionKey]:
        return frozenset({transition_key(*transition)
                          for transition in self._known})

    @property
    def covered_transitions(self) -> frozenset[TransitionKey]:
        return frozenset(transition_key(*transition)
                         for transition in self._counts)

    def total_coverage(self) -> float:
        """Fraction of known transitions covered at least once (Table 6)."""
        if not self._known:
            return 0.0
        return len(self._counts) / len(self._known)

    def rare_transitions(self, cutoff: int) -> frozenset[TransitionKey]:
        """Transitions whose global count is below ``cutoff`` (plus unseen).

        This is the transition set the adaptive fitness function focuses on
        (paper §3.2: frequent transitions are excluded from coverage).
        """
        counts = self._counts
        return frozenset({transition_key(*transition)
                          for transition in self._known
                          if counts.get(transition, 0) < cutoff})

    def merge(self, other: "CoverageCollector") -> None:
        """Fold another collector's observations into this one."""
        counts = self._counts
        for transition, count in other._counts.items():
            counts[transition] = count + counts.get(transition, 0)
        self._known.update(other._known)

    # -- checkpoint/resume (chunked campaign scheduling) -------------------

    def checkpoint(self) -> CoverageState:
        """Snapshot the cumulative counts and known set between test-runs."""
        return CoverageState(
            counts=tuple((transition_key(*transition), count)
                         for transition, count in self._counts.items()),
            known=self.known_transitions)

    def restore(self, state: CoverageState) -> None:
        """Replace this collector's cumulative state with a snapshot."""
        self._counts = {raw_transition(key): count
                        for key, count in state.counts}
        self._known = set(map(raw_transition, state.known))
        self._run = {}
