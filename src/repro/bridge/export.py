"""Export simulated executions to the bridge's native JSONL schema.

The exporter is the round-trip half of the bridge: any
``(threads, trace)`` pair the simulator produced can be dumped to the
on-disk schema and re-ingested through :mod:`repro.bridge.ingest` into
a bit-identical candidate execution — identical po/rf/co/fr relations,
checker verdicts and execution keys.  Non-memory operations
(cache flushes, delays) produce no abstract events and are dropped:
they contribute no events to the candidate execution, so the
round-tripped execution is unchanged.

:class:`CorpusExporter` plugs into the verification engine's
``trace_sink`` hook to capture every simulated iteration of a campaign
into a corpus directory.
"""

from __future__ import annotations

import json
import os

from repro.bridge.schema import (LD_PERFORM, RMW_PERFORM,
                                 ST_GLOBALLY_PERFORM, TraceEvent,
                                 event_dict, header_dict)
from repro.sim.testprogram import OpKind, TestThread
from repro.sim.trace import ExecutionTrace


def trace_events(threads: list[TestThread],
                 trace: ExecutionTrace) -> list[TraceEvent]:
    """The abstract events of one simulated iteration.

    Events are emitted in per-thread program order (all of thread 0,
    then thread 1, ...), which is the order the schema defines po by.
    A read the iteration never observed (e.g. a deadlocked thread)
    exports with ``value=None`` and round-trips to the same corruption
    verdict.
    """
    observed_reads = {(record.pid, record.op_id): record.value
                      for record in trace.reads}
    observed_rmws = {(record.pid, record.op_id): record
                     for record in trace.rmws}
    overwritten = {(record.pid, record.op_id): record.overwritten
                   for record in trace.writes}
    events: list[TraceEvent] = []
    for thread in threads:
        for op in thread.ops:
            key = (thread.pid, op.op_id)
            if op.kind.is_load:
                events.append(TraceEvent(
                    kind=LD_PERFORM, tid=thread.pid, op_id=op.op_id,
                    address=op.address,
                    value=observed_reads.get(key)))
            elif op.kind is OpKind.WRITE:
                events.append(TraceEvent(
                    kind=ST_GLOBALLY_PERFORM, tid=thread.pid,
                    op_id=op.op_id, address=op.address, value=op.value,
                    overwritten=overwritten.get(key, 0)))
            elif op.kind is OpKind.RMW:
                record = observed_rmws.get(key)
                events.append(TraceEvent(
                    kind=RMW_PERFORM, tid=thread.pid, op_id=op.op_id,
                    address=op.address, value=op.value,
                    read_value=(record.read_value
                                if record is not None else 0),
                    overwritten=(record.overwritten
                                 if record is not None else 0)))
            # CACHE_FLUSH and DELAY produce no abstract events.
    return events


def trace_to_text(threads: list[TestThread], trace: ExecutionTrace,
                  source: str = "repro-sim") -> str:
    """One simulated iteration as native JSONL text (header + events)."""
    num_threads = max((thread.pid for thread in threads), default=-1) + 1
    lines = [json.dumps(header_dict(source, num_threads))]
    lines.extend(json.dumps(event_dict(event))
                 for event in trace_events(threads, trace))
    return "\n".join(lines) + "\n"


def write_trace(path: str, threads: list[TestThread],
                trace: ExecutionTrace,
                source: str = "repro-sim") -> str:
    """Write one iteration's trace file; returns *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_to_text(threads, trace, source=source))
    return path


class CorpusExporter:
    """A ``trace_sink`` that writes every simulated trace to a corpus.

    Plug an instance into
    :class:`repro.core.engine.VerificationEngine` (or
    :class:`repro.core.campaign.Campaign`) via ``trace_sink=`` and every
    simulated iteration lands in *directory* as
    ``<prefix>-<index>.jsonl``; :attr:`paths` lists what was written,
    in simulation order.
    """

    def __init__(self, directory: str, prefix: str = "trace",
                 source: str = "repro-sim") -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.prefix = prefix
        self.source = source
        self.paths: list[str] = []

    def __call__(self, threads: list[TestThread],
                 trace: ExecutionTrace) -> None:
        path = os.path.join(
            self.directory, f"{self.prefix}-{len(self.paths):05d}.jsonl")
        self.paths.append(write_trace(path, threads, trace,
                                      source=self.source))
