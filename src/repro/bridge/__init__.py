"""Trace-ingestion bridge: verify executions you didn't generate.

The bridge decouples McVerSi-style axiomatic checking from the built-in
simulator.  External traces — from a gem5 run, another simulator, or a
previous campaign's export — are parsed into the same
``(threads, trace)`` objects the checker consumes, then sharded through
the existing parallel campaign orchestrator as a *replay* campaign:
checkpoint/resume, chunking, verdict memoization and the
verification service all apply unchanged.

Layers:

* :mod:`repro.bridge.schema` — the versioned abstract-event schema
  (``ld_perform`` / ``st_globally_perform`` / ``rmw_perform``) and its
  cross-event validation;
* :mod:`repro.bridge.ingest` — parsers for native JSONL and gem5-style
  text logs, plus corpus scanning;
* :mod:`repro.bridge.export` — the round-trip half: dump simulated
  executions back to the native format (bit-exact re-ingest);
* :mod:`repro.bridge.replay` — the replay campaign backend and the
  ``run_replay_sweep`` entry point.

``python -m repro.bridge`` exposes ``ingest``/``check``/``export``
subcommands for corpus work from the shell.
"""

from repro.bridge.export import (CorpusExporter, trace_events,
                                 trace_to_text, write_trace)
from repro.bridge.ingest import (CORPUS_EXTENSIONS, FORMAT_AUTO,
                                 FORMAT_GEM5, FORMAT_NATIVE, FORMATS,
                                 load_trace, parse_gem5_log,
                                 parse_native_jsonl, scan_corpus,
                                 sniff_format)
from repro.bridge.replay import (ReplayCampaign, ReplayCampaignResult,
                                 ReplayCheckpoint, ReplayShardStats,
                                 replay_specs, run_replay_sweep)
from repro.bridge.schema import (EVENT_KINDS, LD_PERFORM, RMW_PERFORM,
                                 SCHEMA_NAME, SCHEMA_VERSION,
                                 ST_GLOBALLY_PERFORM, TraceDocument,
                                 TraceEvent, TraceFormatError,
                                 document_from_events)

__all__ = [
    "CORPUS_EXTENSIONS", "CorpusExporter", "EVENT_KINDS", "FORMATS",
    "FORMAT_AUTO", "FORMAT_GEM5", "FORMAT_NATIVE", "LD_PERFORM",
    "RMW_PERFORM", "ReplayCampaign", "ReplayCampaignResult",
    "ReplayCheckpoint", "ReplayShardStats", "SCHEMA_NAME",
    "SCHEMA_VERSION", "ST_GLOBALLY_PERFORM", "TraceDocument",
    "TraceEvent", "TraceFormatError", "document_from_events",
    "load_trace", "parse_gem5_log", "parse_native_jsonl",
    "replay_specs", "run_replay_sweep", "scan_corpus", "sniff_format",
    "trace_events", "trace_to_text", "write_trace",
]
