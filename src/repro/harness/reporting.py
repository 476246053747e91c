"""Plain-text table formatting for the experiment harness and benchmarks.

Besides the paper-style tables, this module provides the live progress
line the streaming orchestrator updates as shard results arrive
(:func:`format_progress_line` / :class:`ProgressPrinter`).
"""

from __future__ import annotations

import contextlib
import sys
from typing import TYPE_CHECKING, Sequence, TextIO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.parallel import SweepReport


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render a simple aligned text table (used to print paper-style tables)."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header_line = "  ".join(header.ljust(widths[index])
                            for index, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[index])
                               for index, cell in enumerate(row)))
    return "\n".join(lines)


def format_key_value(title: str, mapping: dict[str, str]) -> str:
    """Render a two-column key/value table (Tables 2 and 3)."""
    rows = [(key, value) for key, value in mapping.items()]
    return format_table(["Parameter", "Value"], rows, title=title)


def format_sweep_report(report: "SweepReport",
                        title: str = "Campaign sweep") -> str:
    """Render an orchestrated sweep as a Table-4-style aggregate table.

    One row per (generator, bug) cell: bugs found, evaluations-to-find
    quantiles and sim/check seconds, followed by a footer with the sweep's
    worker count, wall-clock time and merged total coverage.
    """
    table = format_table(report.table_headers(), report.table_rows(),
                         title=title)
    footer = (f"shards={len(report.shards)} workers={report.workers} "
              f"wall={report.wall_seconds:.2f}s "
              f"bugs_found={report.found_count} "
              f"total_coverage={report.coverage.total_coverage():.1%}")
    return f"{table}\n{footer}"


def format_replay_report(report: "SweepReport",
                         title: str = "Replay sweep") -> str:
    """Render a trace-replay sweep as a per-source verdict table.

    One row per declared trace source (the header ``source`` field; files
    too broken to declare one group under ``(unreadable)``), followed by
    a footer with the sweep totals — ``corrupt`` counts the traces that
    were unreadable or internally inconsistent, a subset of ``failed``.
    """
    sources = report.replay_sources()
    rows = [[source, counters["traces"], counters["passed"],
             counters["failed"], counters["corrupt"]]
            for source, counters in sorted(sources.items())]
    table = format_table(["Source", "Traces", "Passed", "Failed",
                          "Corrupt"], rows, title=title)
    total = sum(counters["traces"] for counters in sources.values())
    failed = sum(counters["failed"] for counters in sources.values())
    footer = (f"traces={total} failed={failed} "
              f"corrupt={report.corrupt_traces} "
              f"shards={len(report.shards)} workers={report.workers} "
              f"wall={report.wall_seconds:.2f}s")
    return f"{table}\n{footer}"


def format_bytes(count: float) -> str:
    """Human-readable byte count (``"1.5MiB"``), for telemetry suffixes."""
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(count) < 1024.0 or unit == "GiB":
            if unit == "B":
                return f"{count:.0f}{unit}"
            return f"{count:.1f}{unit}"
        count /= 1024.0
    raise AssertionError("unreachable")


def format_telemetry(telemetry: dict) -> str:
    """Compact live-telemetry suffix for the progress line.

    ``telemetry`` is the mapping the orchestrator maintains via
    ``telemetry_out`` (see
    :func:`repro.harness.parallel.iter_campaigns`): an optional
    sweep-wide ``"evals_per_second"`` aggregate, an optional
    ``"checkpoint"`` aggregate (serialized checkpoint bytes moved), an
    optional ``"verdict_cache"`` aggregate (collective-checking
    hit/miss counters and the checker seconds memoization saved).
    Snapshot-copied before iterating, so another thread may keep
    updating it.
    """
    telemetry = dict(telemetry)
    parts: list[str] = []
    rate = telemetry.get("evals_per_second")
    if rate:
        parts.append(f"evals/s={rate:g}")
    checkpoint = telemetry.get("checkpoint")
    if checkpoint:
        checkpoint = dict(checkpoint)
        parts.append(f"ckpt={format_bytes(checkpoint.get('bytes', 0))}")
    cache = telemetry.get("verdict_cache")
    if cache:
        cache = dict(cache)
        parts.append(f"memo={cache.get('hit_rate', 0.0):.0%}")
        saved_seconds = cache.get("seconds_saved", 0.0)
        if saved_seconds:
            parts.append(f"check_saved={saved_seconds:.1f}s")
    return " ".join(parts)


def format_progress_line(completed: int, total: int, found: int,
                         elapsed_seconds: float,
                         telemetry: dict | None = None) -> str:
    """One-line sweep progress: shards done, bugs found, elapsed time.

    ``telemetry`` (see :func:`format_telemetry`) appends live sweep-wide
    throughput, checkpoint bytes and verdict-memo counters.
    """
    percent = completed / total if total else 1.0
    line = (f"[{completed}/{total} shards, {percent:.0%}] "
            f"bugs_found={found} elapsed={elapsed_seconds:.1f}s")
    if telemetry:
        suffix = format_telemetry(telemetry)
        if suffix:
            line += f" | {suffix}"
    return line


class ProgressPrinter:
    """Maintains a live single-line progress display on a stream.

    Each :meth:`update` rewrites the line in place (carriage return, no
    newline) so streaming sweeps show continuous progress; :meth:`finish`
    terminates the line.  Writes are best-effort: a closed or non-tty
    stream never breaks the sweep.
    """

    def __init__(self, total: int, stream: TextIO | None = None) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self._last_width = 0

    def update(self, completed: int, found: int,
               elapsed_seconds: float,
               telemetry: dict | None = None) -> None:
        line = format_progress_line(completed, self.total, found,
                                    elapsed_seconds, telemetry=telemetry)
        padding = " " * max(0, self._last_width - len(line))
        self._last_width = len(line)
        with contextlib.suppress(OSError, ValueError):  # pragma: no cover
            self.stream.write(f"\r{line}{padding}")
            self.stream.flush()

    def finish(self) -> None:
        if self._last_width == 0:
            return
        with contextlib.suppress(OSError, ValueError):  # pragma: no cover
            self.stream.write("\n")
            self.stream.flush()


def format_speedup(serial_seconds: float, parallel_seconds: float,
                   workers: int) -> str:
    """One-line scaling summary for the parallel-orchestration benchmarks."""
    speedup = (serial_seconds / parallel_seconds
               if parallel_seconds > 0 else float("inf"))
    return (f"serial {serial_seconds:.2f}s -> {workers} workers "
            f"{parallel_seconds:.2f}s ({speedup:.2f}x)")
