"""Round-trip battery: simulate -> export -> re-ingest -> bit-identical.

The bridge's core guarantee: exporting a simulated execution to the
native schema and ingesting it back yields the *same* candidate
execution — identical po/rf/co/fr edge sets, identical checker verdicts
and identical execution keys (so verdict
memoization treats original and round-tripped executions as one).
"""

import random

import pytest

from repro.bridge.export import trace_to_text, write_trace
from repro.bridge.ingest import load_trace, parse_native_jsonl
from repro.consistency.checker import Checker
from repro.consistency.execution import execution_from_trace
from repro.consistency.models import TotalStoreOrder
from repro.consistency.signature import execution_signature
from repro.core.config import GeneratorConfig
from repro.core.generator import RandomTestGenerator
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.system import System

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")


def edge_ids(relation):
    # eids are heterogeneous tuples (init writes vs program events), so
    # compare as sets rather than sorting.
    return {(src.eid, dst.eid) for src, dst in relation.edges()}


def relations_identical(first, second) -> bool:
    return (edge_ids(first.rf) == edge_ids(second.rf)
            and edge_ids(first.co) == edge_ids(second.co)
            and edge_ids(first.fr) == edge_ids(second.fr)
            and first.events == second.events
            and {pid: events for pid, events in first.program_order.items()}
            == {pid: events for pid, events in second.program_order.items()})


def simulate(seed: int):
    """One random program, simulated once on a fault-free system."""
    config = GeneratorConfig.quick(memory_kib=1, test_size=32, iterations=2)
    generator = RandomTestGenerator(config, random.Random(seed))
    threads = generator.generate().to_threads()
    system = System(config=SystemConfig(num_cores=config.num_threads),
                    coverage=CoverageCollector())
    iteration = system.run_iteration(threads, seed * 7 + 1)
    assert iteration.clean
    return threads, iteration.trace


class TestRoundTripFuzz:
    @pytest.mark.parametrize("seed", range(12))
    def test_relations_survive_round_trip(self, seed):
        threads, trace = simulate(seed)
        doc = parse_native_jsonl(trace_to_text(threads, trace))
        original = execution_from_trace(threads, trace)
        round_tripped = execution_from_trace(doc.threads, doc.trace)
        assert relations_identical(original, round_tripped)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_verdicts_identical(self, seed):
        threads, trace = simulate(seed)
        doc = parse_native_jsonl(trace_to_text(threads, trace))
        checker = Checker(TotalStoreOrder())
        original = checker.check_trace(threads, trace)
        round_tripped = checker.check_trace(doc.threads, doc.trace)
        assert original.passed == round_tripped.passed
        assert (original.violations_summary()
                == round_tripped.violations_summary())

    @pytest.mark.parametrize("seed", range(8))
    def test_signatures_identical(self, seed):
        threads, trace = simulate(seed)
        doc = parse_native_jsonl(trace_to_text(threads, trace))
        model = TotalStoreOrder()
        original = execution_signature(
            execution_from_trace(threads, trace), model)
        round_tripped = execution_signature(
            execution_from_trace(doc.threads, doc.trace), model)
        assert original == round_tripped

    def test_export_text_is_stable(self):
        """Exporting twice (and re-exporting an ingest) is byte-equal."""
        threads, trace = simulate(2)
        first = trace_to_text(threads, trace)
        assert first == trace_to_text(threads, trace)
        doc = parse_native_jsonl(first)
        assert trace_to_text(doc.threads, doc.trace) == first

    def test_file_round_trip(self, tmp_path):
        threads, trace = simulate(5)
        path = write_trace(str(tmp_path / "one.jsonl"), threads, trace)
        doc = load_trace(path)
        original = execution_from_trace(threads, trace)
        round_tripped = execution_from_trace(doc.threads, doc.trace)
        assert relations_identical(original, round_tripped)
