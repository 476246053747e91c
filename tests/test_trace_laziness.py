"""Native ingest and the checker build no per-event objects.

Replay reads a native trace with ``load_trace`` and checks its
``document.program`` with ``Checker.check_trace``.  Neither step may
construct a :class:`~repro.bridge.schema.TraceEvent`, a
:class:`~repro.sim.testprogram.TestOp` or a trace record
(:class:`~repro.sim.trace.ReadRecord`, ``WriteRecord``, ``RmwRecord``):
the document keeps its events and its program as rows and the trace its
observations as rows, and the execution builder reads the rows.  The
objects are built only when something asks for ``document.events``,
``document.threads`` or ``trace.reads``/``writes``/``rmws``;
``tests/test_bridge_ingest_golden.py`` pins their values.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bridge.export import trace_to_text
from repro.bridge.ingest import load_trace
from repro.bridge.replay import run_replay_sweep
from repro.bridge.schema import TraceEvent, parse_event
from repro.consistency.checker import Checker
from repro.consistency.execution import program_rows
from repro.consistency.memo import VerdictCache
from repro.consistency.models import TotalStoreOrder
from repro.harness.parallel import SweepConfig
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ReadRecord, RmwRecord, WriteRecord

FIXTURES = Path(__file__).parent / "data" / "bridge"
NATIVE = sorted(path.name for path in FIXTURES.glob("*.jsonl")
                if path.name != "garbled.jsonl")
WATCHED = (TraceEvent, TestOp, ReadRecord, WriteRecord, RmwRecord)


@pytest.fixture
def constructed(monkeypatch) -> dict[str, int]:
    """How many of each watched class were constructed, by name."""
    counts = dict.fromkeys((cls.__name__ for cls in WATCHED), 0)
    for cls in WATCHED:
        original = cls.__init__

        def counting(self, *args, __original=original,
                     __name=cls.__name__, **kwargs):
            counts[__name] += 1
            __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def _simulated(tmp_path: Path) -> Path:
    """A simulated iteration with reads, writes and an RMW, exported."""
    threads = [
        TestThread(0, (TestOp(0, OpKind.WRITE, 0x40, 1),
                       TestOp(1, OpKind.READ, 0x80),
                       TestOp(2, OpKind.RMW, 0xC0, 3))),
        TestThread(1, (TestOp(3, OpKind.WRITE, 0x80, 4),
                       TestOp(4, OpKind.READ, 0x40),
                       TestOp(5, OpKind.RMW, 0xC0, 6))),
    ]
    result = System(SystemConfig()).run_iteration(threads, seed=7)
    path = tmp_path / "simulated.jsonl"
    path.write_text(trace_to_text(threads, result.trace))
    return path


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "memo"])
@pytest.mark.parametrize("name", [*NATIVE, "simulated.jsonl"])
def test_load_and_check_build_no_event_or_record(name, cached, tmp_path,
                                                 constructed):
    path = (_simulated(tmp_path) if name == "simulated.jsonl"
            else FIXTURES / name)
    constructed.update(dict.fromkeys(constructed, 0))  # export builds some
    document = load_trace(str(path))
    Checker(TotalStoreOrder()).check_trace(
        document.program, document.trace,
        cache=VerdictCache() if cached else None)
    assert constructed == dict.fromkeys(constructed, 0)

    # Asked for afterwards, the objects are built from the rows.
    lines = [json.loads(line) for line in path.read_text().splitlines()
             if line.strip()][1:]
    assert document.events == [parse_event(line, "t") for line in lines]
    trace = document.trace
    assert (len(trace.reads) + len(trace.writes) + 2 * len(trace.rmws)
            == trace.num_events > 0)
    assert constructed["TraceEvent"] == 2 * len(lines)
    assert constructed["ReadRecord"] == len(trace.read_rows)

    # So are the validated ops, one per program row, equal to the rows.
    ops = sum(len(rows) for _, rows in document.program)
    assert program_rows(document.threads) == document.program
    assert constructed["TestOp"] == ops > 0


@pytest.mark.parametrize("memo", [False, True], ids=["plain", "memo"])
def test_replay_sweep_builds_no_event_op_or_record(memo, constructed):
    report = run_replay_sweep(str(FIXTURES),
                              config=SweepConfig(verdict_memo=memo))
    assert len(report.replay_verdicts()) == len(NATIVE) + 2  # + log, garbled
    assert constructed == dict.fromkeys(constructed, 0)
