"""Command-line interface of the trace-ingestion bridge.

Three subcommands::

    python -m repro.bridge ingest CORPUS_OR_FILE ...   # parse + validate
    python -m repro.bridge check CORPUS [options]      # replay-check
    python -m repro.bridge export OUT_DIR [options]    # generate a corpus

``ingest`` parses every given trace file (directories are scanned like a
corpus) and reports one line per file — format, threads, events, source
— exiting nonzero if any file is malformed.  ``check`` shards a corpus
through the parallel replay orchestrator and prints the per-source
verdict table; ``--golden FILE`` compares the per-trace verdicts against
a committed JSON expectation and ``--expect-memo-hits`` fails the run if
sweep-wide verdict memoization never hit.  ``export`` simulates the
directed stress scenarios and writes every iteration's trace as a
native-format corpus — the quickest way to produce test corpora.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bridge.ingest import (FORMAT_AUTO, FORMATS, load_trace,
                                 scan_corpus)
from repro.bridge.replay import run_replay_sweep
from repro.bridge.schema import TraceFormatError


def _expand_paths(arguments: list[str]) -> list[str]:
    paths: list[str] = []
    for argument in arguments:
        if os.path.isdir(argument):
            paths.extend(scan_corpus(argument))
        else:
            paths.append(argument)
    return paths


def _ingest_main(args: argparse.Namespace) -> int:
    paths = _expand_paths(args.paths)
    if not paths:
        print("no trace files found", file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        try:
            document = load_trace(path, format=args.format)
        except (TraceFormatError, OSError) as error:
            failures += 1
            print(f"{path}: ERROR: {error}")
            continue
        print(f"{path}: ok source={document.source} "
              f"threads={document.num_threads} "
              f"events={len(document.events)}")
    total = len(paths)
    print(f"{total - failures}/{total} trace file(s) parsed cleanly")
    return 1 if failures else 0


def _check_main(args: argparse.Namespace) -> int:
    from repro.harness.parallel import SweepConfig
    from repro.harness.reporting import (format_replay_report,
                                         format_sweep_report)

    config = SweepConfig(chunk_evaluations=args.chunk_evaluations,
                         verdict_memo=args.verdict_memo)
    report = run_replay_sweep(
        args.corpus, shard_traces=args.shard_traces,
        base_seed=args.base_seed, workers=args.workers, config=config)
    print(format_replay_report(report))
    if args.sweep_table:
        print(format_sweep_report(report, title="Replay shards"))
    if args.verdict_memo and report.verdict_cache is not None:
        cache = report.verdict_cache
        print(f"verdict memo: {cache['hits']} hit(s), "
              f"{cache['misses']} miss(es), "
              f"hit_rate={cache['hit_rate']:.1%}")
    status = 0
    if args.golden is not None:
        with open(args.golden, encoding="utf-8") as handle:
            expected = json.load(handle)
        actual = report.replay_verdicts()
        mismatches = [
            f"  {name}: expected {verdict!r}, got {actual.get(name)!r}"
            for name, verdict in sorted(expected.items())
            if actual.get(name) != verdict]
        mismatches.extend(
            f"  {name}: unexpected trace (verdict {verdict!r})"
            for name, verdict in sorted(actual.items())
            if name not in expected)
        if mismatches:
            print("golden verdict mismatches:")
            print("\n".join(mismatches))
            status = 1
        else:
            print(f"golden verdicts match ({len(expected)} trace(s))")
    if args.expect_memo_hits:
        hits = (report.verdict_cache or {}).get("hits", 0)
        if hits <= 0:
            print("expected verdict-memo hits, got none", file=sys.stderr)
            status = 1
    return status


def _export_main(args: argparse.Namespace) -> int:
    from repro.harness.scenarios import export_scenario_corpus
    from repro.sim.faults import Fault

    faults = None
    if args.faults:
        faults = [Fault(value) for value in args.faults.split(",")]
    paths = export_scenario_corpus(args.out, faults=faults,
                                   runs_per_scenario=args.runs,
                                   base_seed=args.base_seed,
                                   inject=args.inject)
    print(f"wrote {len(paths)} trace file(s) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bridge",
        description="Ingest, replay-check and export execution traces.")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser(
        "ingest", help="parse and validate trace files")
    ingest.add_argument("paths", nargs="+",
                        help="trace files or corpus directories")
    ingest.add_argument("--format", choices=FORMATS, default=FORMAT_AUTO)
    ingest.set_defaults(entry=_ingest_main)

    check = commands.add_parser(
        "check", help="replay-check a corpus through the orchestrator")
    check.add_argument("corpus", help="corpus directory")
    check.add_argument("--workers", type=int, default=1)
    check.add_argument("--shard-traces", type=int, default=25,
                       help="trace files per shard")
    check.add_argument("--base-seed", type=int, default=1)
    check.add_argument("--chunk-evaluations", type=int, default=None,
                       help="pause/resume shards every N traces")
    check.add_argument("--verdict-memo", action="store_true",
                       help="memoize verdicts sweep-wide by exact "
                            "execution graph")
    check.add_argument("--golden", default=None,
                       help="JSON file mapping trace file name -> "
                            "expected verdict (pass/fail/corrupt)")
    check.add_argument("--expect-memo-hits", action="store_true",
                       help="fail unless verdict memoization hit")
    check.add_argument("--sweep-table", action="store_true",
                       help="also print the per-shard campaign table")
    check.set_defaults(entry=_check_main)

    export = commands.add_parser(
        "export", help="simulate directed scenarios into a corpus")
    export.add_argument("out", help="output corpus directory")
    export.add_argument("--faults", default=None,
                        help="comma-separated fault names (default: all)")
    export.add_argument("--runs", type=int, default=2,
                        help="test-runs per scenario")
    export.add_argument("--base-seed", type=int, default=1)
    export.add_argument("--inject", action="store_true",
                        help="inject each scenario's fault (buggy corpus)")
    export.set_defaults(entry=_export_main)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.entry(args)


if __name__ == "__main__":
    sys.exit(main())
