"""Litmus regression suite: golden checker verdicts for the whole corpus.

Every corpus litmus test's critical-cycle witness execution is run through
the axiomatic checker under both SC and TSO, and the allowed/forbidden
verdicts are pinned against golden data (``tests/data/litmus_verdicts.json``).
This guards the consistency core — ppo construction, fence (locked-RMW)
semantics, internal-rf handling, and the coherence/atomicity checks —
while the harness layers above it churn: any change that flips a verdict
for any of the 38 tests fails here with the test's name.
"""

import json
from pathlib import Path

import pytest

from repro.consistency.models import model_by_name
from repro.consistency.operational import all_read_outcomes
from repro.consistency.signature import execution_signature
from repro.litmus.corpus import corpus_names, litmus_by_name, x86_tso_corpus
from repro.litmus.witness import (check_witness, cycle_verdict,
                                  cycle_witness_execution)
from repro.sim.testprogram import OpKind

GOLDEN_PATH = Path(__file__).parent / "data" / "litmus_verdicts.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


class TestGoldenData:
    def test_golden_covers_exactly_the_corpus(self):
        assert set(GOLDEN) == set(corpus_names())

    def test_golden_verdicts_are_well_formed(self):
        for name, verdicts in GOLDEN.items():
            assert set(verdicts) == {"SC", "TSO", "signatures"}, name
            assert all(verdicts[model] in ("allowed", "forbidden")
                       for model in ("SC", "TSO")), name
            assert set(verdicts["signatures"]) == {"SC", "TSO"}, name
            assert all(len(digest) == 64
                       for digest in verdicts["signatures"].values()), name

    def test_golden_agrees_with_generator_flags(self):
        # The checked-in data and the diy generator's verdict flags are
        # independent encodings of the same facts; they must never drift.
        for test in x86_tso_corpus():
            expected_tso = "forbidden" if test.forbidden_under_tso else "allowed"
            assert GOLDEN[test.name]["TSO"] == expected_tso, test.name
            assert GOLDEN[test.name]["SC"] == "forbidden", test.name

    def test_every_cycle_is_sc_forbidden(self):
        # Critical cycles are SC-forbidden by construction.
        assert all(verdicts["SC"] == "forbidden"
                   for verdicts in GOLDEN.values())


@pytest.mark.parametrize("name", corpus_names())
@pytest.mark.parametrize("model", ["SC", "TSO"])
def test_checker_verdict_matches_golden(name, model):
    test = litmus_by_name(name)
    assert cycle_verdict(test, model) == GOLDEN[name][model]


@pytest.mark.parametrize("name", corpus_names())
@pytest.mark.parametrize("model", ["SC", "TSO"])
def test_witness_signature_matches_golden(name, model):
    """Exact-graph digests of the witness executions are pinned.

    These digests are the collective-checking cache keys: a drift here
    means either the key encoding changed (fine — re-pin the golden
    data, every cache key changes together) or it became unstable
    across processes/hash seeds (a real bug: sweep-wide cache shipments
    would silently stop hitting).
    """
    execution = cycle_witness_execution(litmus_by_name(name))
    digest = execution_signature(execution, model_by_name(model))
    assert digest == GOLDEN[name]["signatures"][model]


class TestWitnessConstruction:
    def test_witness_reads_are_filled_in(self):
        for test in x86_tso_corpus():
            execution = cycle_witness_execution(test)
            assert all(event.value >= 0 for event in execution.reads), test.name
            assert all(read in execution.rf_sources
                       for read in execution.reads), test.name

    def test_witness_covers_every_op(self):
        for test in x86_tso_corpus():
            execution = cycle_witness_execution(test)
            op_count = sum(2 if op.kind is OpKind.RMW else 1
                           for _, op in test.chromosome.slots)
            assert len(execution.events) == op_count, test.name

    def test_cycle_op_ids_recorded(self):
        for test in x86_tso_corpus():
            assert len(test.cycle_op_ids) == len(test.cycle), test.name

    def test_forbidden_witness_reports_a_violation_kind(self):
        result = check_witness(litmus_by_name("MP"), "TSO")
        assert not result.passed
        assert result.violations
        assert all(violation.kind in ("coherence", "atomicity", "ghb",
                                      "corruption")
                   for violation in result.violations)

    def test_allowed_witness_passes_cleanly(self):
        result = check_witness(litmus_by_name("SB"), "TSO")
        assert result.passed and not result.violations

    def test_mp_witness_agrees_with_operational_model(self):
        # The axiomatic forbidden verdict corresponds to an operationally
        # unreachable outcome (and SB's allowed one to a reachable one).
        mp = litmus_by_name("MP")
        execution = cycle_witness_execution(mp)
        witness_outcome = tuple(sorted((event.eid[0], event.value)
                                       for event in execution.reads))
        assert witness_outcome not in all_read_outcomes(
            mp.chromosome.to_threads(), model="TSO")
        sb = litmus_by_name("SB")
        sb_execution = cycle_witness_execution(sb)
        sb_outcome = tuple(sorted((event.eid[0], event.value)
                                  for event in sb_execution.reads))
        assert sb_outcome in all_read_outcomes(
            sb.chromosome.to_threads(), model="TSO")
