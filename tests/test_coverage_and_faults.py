"""Unit tests for coverage collection and fault definitions."""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.harness import codec
from repro.harness.codec import encode
from repro.sim.coverage import CoverageCollector, CoverageState, TransitionKey
from repro.sim.faults import (ALL_FAULTS, Fault, FaultSet, ProtocolError,
                              fault_by_paper_name)


class TestCoverageCollector:
    def test_record_counts_globally(self):
        coverage = CoverageCollector()
        coverage.record("L1", "I", "Load")
        coverage.record("L1", "I", "Load")
        key = TransitionKey("L1", "I", "Load")
        assert coverage.global_counts[key] == 2

    def test_run_transitions_reset_per_run(self):
        coverage = CoverageCollector()
        coverage.record("L1", "I", "Load")
        coverage.begin_run()
        coverage.record("L1", "S", "Store")
        assert coverage.run_transitions() == frozenset(
            {TransitionKey("L1", "S", "Store")})
        assert coverage.global_counts[TransitionKey("L1", "I", "Load")] == 1

    def test_total_coverage_uses_declared_space(self):
        coverage = CoverageCollector()
        declared = [TransitionKey("L1", "I", e) for e in ("Load", "Store", "RMW", "Flush")]
        coverage.declare(declared)
        coverage.record("L1", "I", "Load")
        assert coverage.total_coverage() == pytest.approx(0.25)

    def test_rare_transitions_exclude_frequent(self):
        coverage = CoverageCollector()
        for _ in range(10):
            coverage.record("L1", "I", "Load")
        coverage.record("L1", "S", "Inv")
        rare = coverage.rare_transitions(cutoff=5)
        assert TransitionKey("L1", "S", "Inv") in rare
        assert TransitionKey("L1", "I", "Load") not in rare

    def test_rare_transitions_include_unseen_declared(self):
        coverage = CoverageCollector()
        coverage.declare([TransitionKey("L2", "MT", "Recall")])
        assert TransitionKey("L2", "MT", "Recall") in coverage.rare_transitions(1)

    def test_merge(self):
        first = CoverageCollector()
        second = CoverageCollector()
        first.record("L1", "I", "Load")
        second.record("L1", "S", "Inv")
        first.merge(second)
        assert len(first.covered_transitions) == 2

    def test_merge_disjoint_round_trip(self):
        # Merging per-worker collectors must reproduce the collector a
        # single serial run would have built (the parallel harness relies
        # on this).
        serial = CoverageCollector()
        first = CoverageCollector()
        second = CoverageCollector()
        for collector in (serial, first):
            collector.record("L1", "I", "Load")
            collector.record("L1", "I", "Load")
        for collector in (serial, second):
            collector.record("L2", "MT", "Recall")
        first.merge(second)
        assert first.global_counts == serial.global_counts
        assert first.known_transitions == serial.known_transitions
        assert first.total_coverage() == serial.total_coverage()

    def test_merge_overlapping_sums_counts(self):
        first = CoverageCollector()
        second = CoverageCollector()
        for _ in range(3):
            first.record("L1", "I", "Load")
        for _ in range(2):
            second.record("L1", "I", "Load")
        second.record("L1", "S", "Inv")
        first.merge(second)
        assert first.global_counts[TransitionKey("L1", "I", "Load")] == 5
        assert first.global_counts[TransitionKey("L1", "S", "Inv")] == 1
        assert len(first.known_transitions) == 2

    def test_merge_preserves_declared_transitions_in_total_coverage(self):
        first = CoverageCollector()
        second = CoverageCollector()
        first.declare([TransitionKey("L2", "MT", "Recall"),
                       TransitionKey("L1", "I", "Load")])
        second.record("L1", "I", "Load")
        first.merge(second)
        # One of two known transitions covered.
        assert first.total_coverage() == 0.5

    def test_merge_does_not_leak_run_state(self):
        first = CoverageCollector()
        second = CoverageCollector()
        second.record("L1", "S", "Inv")
        first.begin_run()
        first.merge(second)
        # merge folds global observations, not the other side's per-run set.
        assert first.run_transitions() == frozenset()

    def test_empty_collector_coverage_is_zero(self):
        assert CoverageCollector().total_coverage() == 0.0


# A fixed transition sequence with repeats, interleaved controllers and a
# key whose fields are another key's permuted.
SEQUENCE = [("L1", "I", "Load"), ("L2", "NP", "GetS"), ("L1", "I", "Load"),
            ("L1", "S", "Inv"), ("L2", "NP", "GetS"), ("L1", "I", "Load"),
            ("L1", "Load", "I")]


def _recorded(sequence=SEQUENCE) -> CoverageCollector:
    coverage = CoverageCollector()
    for transition in sequence:
        coverage.record(*transition)
    return coverage


class TestCoverageInterning:
    def test_global_counts_keep_first_insertion_order(self):
        coverage = _recorded()
        assert list(coverage.global_counts.items()) == [
            (TransitionKey("L1", "I", "Load"), 3),
            (TransitionKey("L2", "NP", "GetS"), 2),
            (TransitionKey("L1", "S", "Inv"), 1),
            (TransitionKey("L1", "Load", "I"), 1)]

    def test_checkpoint_of_a_fixed_sequence(self):
        # The snapshot the collector produced before keys were interned.
        keys = [TransitionKey("L1", "I", "Load"),
                TransitionKey("L2", "NP", "GetS"),
                TransitionKey("L1", "S", "Inv"),
                TransitionKey("L1", "Load", "I")]
        assert _recorded().checkpoint() == CoverageState(
            counts=tuple(zip(keys, (3, 2, 1, 1))), known=frozenset(keys))

    def test_run_transitions_after_interning(self):
        coverage = _recorded()
        coverage.begin_run()
        coverage.record("L1", "I", "Load")
        assert coverage.run_transitions() == frozenset(
            {TransitionKey("L1", "I", "Load")})
        assert coverage.global_counts[TransitionKey("L1", "I", "Load")] == 4

    def test_restore_then_record_rebuilds_known(self):
        coverage = _recorded()
        coverage.restore(CoverageCollector().checkpoint())
        assert coverage.known_transitions == frozenset()
        coverage.record("L1", "I", "Load")
        assert coverage.known_transitions == frozenset(
            {TransitionKey("L1", "I", "Load")})
        assert coverage.total_coverage() == 1.0

    def test_restore_round_trip_continues_identically(self):
        tail = [("L1", "S", "Inv"), ("L2", "MT", "Recall"),
                ("L1", "I", "Load")]
        straight = _recorded(SEQUENCE + tail)
        resumed = CoverageCollector()
        resumed.record("L2", "MT", "Recall")
        resumed.restore(_recorded().checkpoint())
        for transition in tail:
            resumed.record(*transition)
        assert resumed.checkpoint() == straight.checkpoint()
        assert (list(resumed.global_counts.items())
                == list(straight.global_counts.items()))

    def test_merge_then_record(self):
        first = _recorded(SEQUENCE[:3])
        second = _recorded(SEQUENCE[3:])
        first.merge(second)
        first.record("L1", "S", "Inv")
        expected = _recorded(SEQUENCE + [("L1", "S", "Inv")])
        assert first.global_counts == expected.global_counts
        assert first.known_transitions == expected.known_transitions

    def test_pickle_leaves_out_the_intern_table(self):
        coverage = _recorded()
        clone = pickle.loads(pickle.dumps(coverage))
        assert "_interned" not in coverage.__getstate__()
        assert clone.checkpoint() == coverage.checkpoint()
        clone.record("L1", "I", "Load")
        clone.record("L2", "MT", "Recall")
        assert clone.global_counts[TransitionKey("L1", "I", "Load")] == 4
        assert TransitionKey("L2", "MT", "Recall") in clone.known_transitions


class ReferenceCollector:
    """A collector storing ``TransitionKey`` objects throughout.

    This is how transitions were stored before the collector counted raw
    ``(controller, state, event)`` tuples: a Counter, a run set (here a
    dict, so the wire frame's first-record run order is visible) and a
    known set of keys.  Everything the real collector hands out must
    equal what this one does, in the same order where order is visible.
    """

    def __init__(self) -> None:
        self.global_counts: Counter[TransitionKey] = Counter()
        self.run: dict[TransitionKey, None] = {}
        self.known: set[TransitionKey] = set()

    def declare(self, keys) -> None:
        self.known.update(keys)

    def record(self, controller: str, state: str, event: str) -> None:
        key = TransitionKey(controller, state, event)
        self.known.add(key)
        self.global_counts[key] += 1
        self.run[key] = None

    def begin_run(self) -> None:
        self.run = {}

    def run_transitions(self) -> frozenset[TransitionKey]:
        # Grown one key at a time, as the run set it models was, so the
        # frozenset iterates in the same order.
        run = set()
        for key in self.run:
            run.add(key)
        return frozenset(run)

    def rare_transitions(self, cutoff: int) -> frozenset[TransitionKey]:
        return frozenset({key for key in self.known
                          if self.global_counts[key] < cutoff})

    def merge(self, other: "ReferenceCollector") -> None:
        self.global_counts.update(other.global_counts)
        self.known.update(other.known)

    def checkpoint(self) -> CoverageState:
        return CoverageState(counts=tuple(self.global_counts.items()),
                             known=frozenset(self.known))


def _reference_fields(reference: ReferenceCollector) -> dict:
    """The codec's coverage fields, built from keys.

    One string table, in first-appearance order over the counted, the
    sorted known and the run keys; each key is three indices into it.
    """
    counted = list(reference.global_counts)
    known = sorted(reference.known)
    run = list(reference.run)
    strings: list[str] = []
    for key in counted + known + run:
        for text in (key.controller, key.state, key.event):
            if text not in strings:
                strings.append(text)

    def column(keys) -> tuple[int, ...]:
        return tuple(strings.index(text) for key in keys
                     for text in (key.controller, key.state, key.event))

    return {"strings": tuple(strings), "counted": column(counted),
            "counts": tuple(reference.global_counts.values()),
            "known": column(known), "run": column(run)}


def _transitions(seed: int, count: int) -> list[tuple[str, str, str]]:
    """A seeded sequence with repeats over a space of 3 x 6 x 8."""
    rng = random.Random(seed)
    return [(rng.choice(("L1", "L2", "L1_TSOCC")), f"S{rng.randrange(6)}",
             f"E{rng.randrange(8)}") for _ in range(count)]


class TestBoundaryContract:
    """Raw-tuple counting hands out what key storage handed out."""

    @staticmethod
    def _pair(declared, *sequences):
        real, reference = CoverageCollector(), ReferenceCollector()
        for collector in (real, reference):
            collector.declare(declared)
            for index, sequence in enumerate(sequences):
                if index:
                    collector.begin_run()
                for transition in sequence:
                    collector.record(*transition)
        return real, reference

    def _assert_same(self, real, reference):
        assert (list(real.global_counts.items())
                == list(reference.global_counts.items()))
        assert list(real.run_transitions()) == list(
            reference.run_transitions())
        assert real.checkpoint() == reference.checkpoint()
        for cutoff in (1, 3, 10):
            assert (real.rare_transitions(cutoff)
                    == reference.rare_transitions(cutoff))
        entry = codec._BY_TYPE[CoverageCollector]
        assert entry.encode_fn(real) == _reference_fields(reference)

    def test_one_recorded_sequence(self):
        declared = [TransitionKey("L2", f"S{index}", "E9")
                    for index in range(6)]
        real, reference = self._pair(declared, _transitions(1, 400),
                                     _transitions(2, 120))
        self._assert_same(real, reference)

    def test_merge(self):
        real, reference = self._pair([], _transitions(3, 200))
        real_other, reference_other = self._pair(
            [TransitionKey("L2", "MT", "Recall")], _transitions(4, 200),
            _transitions(5, 50))
        real.merge(real_other)
        reference.merge(reference_other)
        self._assert_same(real, reference)

    def test_codec_bytes(self, monkeypatch):
        real, reference = self._pair([TransitionKey("L2", "MT", "Recall")],
                                     _transitions(6, 300),
                                     _transitions(7, 80))
        # The reference, framed under the collector's wire name with the
        # field builder above.
        framed = type("CoverageCollector", (ReferenceCollector,), {})
        entry = codec._BY_TYPE[CoverageCollector]
        monkeypatch.setitem(codec._BY_TYPE, framed, dataclasses.replace(
            entry, cls=framed, encode_fn=_reference_fields))
        twin = framed()
        twin.__dict__.update(reference.__dict__)
        assert encode(real) == encode(twin)


SRC = str(Path(__file__).resolve().parents[1] / "src")

# Pickles a collector (with a run set) and a lone key, and codec-encodes
# both, in a process with one string-hash seed.
_DUMP = """
import pickle
from repro.harness.codec import encode
from repro.sim.coverage import CoverageCollector, TransitionKey
collector = CoverageCollector()
collector.declare([TransitionKey("L2", "MT", "Recall")])
for transition in %r:
    collector.record(*transition)
collector.begin_run()
collector.record("L1", "S", "Inv")
key = TransitionKey("L2", "NP", "GetS")
for blob in (pickle.dumps(collector), pickle.dumps(key),
             encode(collector), encode(key)):
    print(blob.hex())
""" % (SEQUENCE,)

# Loads them in a process with another seed and checks every key
# against a freshly built one.
_LOAD = """
import pickle, sys
from repro.harness.codec import decode
from repro.sim.coverage import TransitionKey
blobs = [bytes.fromhex(line) for line in sys.stdin.read().split()]
loaded = [pickle.loads(blobs[0]), pickle.loads(blobs[1]),
          decode(blobs[2]), decode(blobs[3])]
for collector, key in (loaded[:2], loaded[2:]):
    keys = [key, *collector.global_counts, *collector.known_transitions,
            *collector.run_transitions()]
    for old in keys:
        fresh = TransitionKey(old.controller, old.state, old.event)
        assert old == fresh and hash(old) == hash(fresh), old
    assert collector.global_counts[TransitionKey("L1", "I", "Load")] == 3
    assert collector.global_counts[TransitionKey("L1", "S", "Inv")] == 2
    assert TransitionKey("L2", "MT", "Recall") in collector.known_transitions
    assert collector.run_transitions() == {TransitionKey("L1", "S", "Inv")}
    collector.record("L2", "NP", "GetS")
    assert collector.global_counts[key] == 3
    assert len(collector.global_counts) == 4
print("ok")
"""


class TestCachedKeyHash:
    def test_hash_is_the_field_tuple_hash(self):
        key = TransitionKey("L1", "I", "Load")
        assert hash(key) == hash(("L1", "I", "Load"))
        assert hash(copy.deepcopy(key)) == hash(key)

    def test_pickle_carries_only_the_fields(self):
        key = TransitionKey("L1", "I", "Load")
        clone = pickle.loads(pickle.dumps(key))
        assert clone.__getstate__() == {
            "controller": "L1", "state": "I", "event": "Load"}
        assert hash(clone) == hash(key)

    def test_keys_rehash_after_crossing_hash_seeds(self):
        def run(script: str, seed: str, stdin: str = "") -> str:
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            return subprocess.run(
                [sys.executable, "-c", script], input=stdin, env=env,
                capture_output=True, text=True, check=True).stdout

        assert run(_LOAD, "2", run(_DUMP, "1")).strip() == "ok"


class TestFaults:
    def test_eleven_faults_defined(self):
        assert len(ALL_FAULTS) == 11

    def test_paper_names_round_trip(self):
        for fault in ALL_FAULTS:
            assert fault_by_paper_name(fault.paper_name) is fault

    def test_unknown_paper_name(self):
        with pytest.raises(KeyError):
            fault_by_paper_name("MESI,LQ+Z,Inv")

    def test_real_gem5_bugs_marked(self):
        real = {fault for fault in ALL_FAULTS if fault.is_real_gem5_bug}
        assert real == {Fault.MESI_LQ_IS_INV, Fault.MESI_LQ_SM_INV,
                        Fault.MESI_PUTX_RACE, Fault.LQ_NO_TSO}

    def test_protocol_attribution(self):
        assert Fault.MESI_LQ_IS_INV.protocol == "MESI"
        assert Fault.TSOCC_COMPARE.protocol == "TSO_CC"
        assert Fault.LQ_NO_TSO.protocol == "ANY"
        assert Fault.SQ_NO_FIFO.protocol == "ANY"

    def test_eviction_dependent_bugs(self):
        needing = {fault for fault in ALL_FAULTS if fault.needs_evictions}
        assert needing == {Fault.MESI_LQ_S_REPLACEMENT, Fault.MESI_PUTX_RACE,
                           Fault.MESI_REPLACE_RACE}


class TestFaultSet:
    def test_empty_by_default(self):
        assert len(FaultSet.none()) == 0
        assert Fault.LQ_NO_TSO not in FaultSet.none()

    def test_of_and_contains(self):
        faults = FaultSet.of(Fault.LQ_NO_TSO, Fault.SQ_NO_FIFO)
        assert Fault.LQ_NO_TSO in faults
        assert Fault.MESI_LQ_IS_INV not in faults
        assert faults.enabled(Fault.SQ_NO_FIFO)

    def test_compatible_protocol(self):
        assert FaultSet.of(Fault.MESI_LQ_IS_INV).compatible_protocol() == "MESI"
        assert FaultSet.of(Fault.LQ_NO_TSO).compatible_protocol() is None

    def test_conflicting_protocols_rejected(self):
        mixed = FaultSet.of(Fault.MESI_LQ_IS_INV, Fault.TSOCC_COMPARE)
        with pytest.raises(ValueError):
            mixed.compatible_protocol()

    def test_iteration_is_sorted_and_stable(self):
        faults = FaultSet.of(Fault.SQ_NO_FIFO, Fault.LQ_NO_TSO)
        assert [fault.name for fault in faults] == ["LQ_NO_TSO", "SQ_NO_FIFO"]


class TestProtocolError:
    def test_message_contains_state_and_event(self):
        error = ProtocolError("L2", "MT_MB", "PutM", "racy writeback")
        assert "MT_MB" in str(error)
        assert "PutM" in str(error)
        assert error.controller == "L2"
