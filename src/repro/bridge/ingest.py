"""Parsers turning external trace files into checker-ready documents.

Two on-disk formats are supported:

* the **native JSONL** format written by :mod:`repro.bridge.export`
  (one header line, one event object per line — see
  :mod:`repro.bridge.schema`), and
* **gem5-style text logs**: timestamped ``<tick>: <unit>: <event> ...``
  lines, of which only the three abstract memory events are read and
  everything else (protocol chatter, fetch/decode noise) is ignored::

      100: system.cpu0.dcache: st_globally_perform addr=0x40 data=7 \
old=0 [sn:4]
      112: system.cpu1: ld_perform addr=0x40 data=7 [sn:9]
      130: system.cpu1: rmw_perform addr=0x80 read=0 data=3 old=0 [sn:10]

  gem5 data values are raw memory contents, not our globally unique
  write identifiers, so the parser renumbers them: each store/RMW gets
  a fresh write id (in line order), observed load values map back
  through the ``(address, raw value)`` pair that produced them, and a
  raw value of ``0`` stays the initial-memory value.  An observed value
  no store produced maps to a fresh unknown id *beyond* the allocated
  range, so the checker reports it as the memory corruption it is.
  ``[sn:N]`` sequence numbers become op ids when present on every event
  (and globally unique); otherwise ops are numbered in line order.

Both parsers raise :class:`~repro.bridge.schema.TraceFormatError` on
anything malformed, which corpus replay isolates as one ``corrupt``
verdict per file.
"""

from __future__ import annotations

import json
import os
import re

from repro.bridge.schema import (LD_PERFORM, RMW_PERFORM,
                                 ST_GLOBALLY_PERFORM, TraceDocument,
                                 TraceFormatError, document_from_rows,
                                 event_row, parse_header)

FORMAT_AUTO = "auto"
FORMAT_NATIVE = "native"
FORMAT_GEM5 = "gem5"
FORMATS = (FORMAT_AUTO, FORMAT_NATIVE, FORMAT_GEM5)

#: Extensions :func:`scan_corpus` picks up (any other file is ignored,
#: so READMEs, golden-verdict files and checksums can live beside a
#: corpus; plain ``.json`` is deliberately excluded for the same
#: reason, though explicit ``.json`` paths still sniff as native).
CORPUS_EXTENSIONS = (".jsonl", ".log", ".txt", ".trace")


#: Decodes event lines without the whitespace scans ``json.loads`` wraps
#: around the same decoder (about half its cost per line).  This is the
#: scanner ``JSONDecoder.raw_decode`` calls, called directly to save a
#: Python frame per line: it returns ``(value, end)`` and raises
#: ``StopIteration`` where ``raw_decode`` raises "Expecting value".
_scan_once = json.JSONDecoder().scan_once


def _split_lines(text: str) -> list[str]:
    """*text*'s lines, split only at ``\\n``, ``\\r\\n`` and ``\\r``.

    ``str.splitlines`` also splits at U+2028, U+2029, U+0085, ``\\v``,
    ``\\f`` and ``\\x1c``–``\\x1e``; the first three are legal raw
    inside a JSON string, and none ends a JSON Lines record or a gem5
    log line.  Both parsers split here, so their errors name file lines.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _file_line(lines: list[str], position: int) -> int:
    """The 1-based file line of the *position*-th non-blank line."""
    return [number for number, line in enumerate(lines, start=1)
            if line.strip()][position]


def parse_native_jsonl(text: str, path: str | None = None) -> TraceDocument:
    """Parse one native JSONL trace into a checker-ready document.

    Blank lines are skipped; error messages name the file line.  Each
    event line becomes one plain row (no
    :class:`~repro.bridge.schema.TraceEvent`), so every malformed line
    is reported before any fault between events.
    """
    context = path or "<native trace>"
    file_lines = _split_lines(text)
    lines = [line for line in file_lines if line.strip()]
    if not lines:
        raise TraceFormatError(f"{context}: empty trace file")
    header = parse_header(lines[0], context)
    rows: list[tuple] = []
    append = rows.append
    for position, line in enumerate(lines[1:], start=1):
        # The scanner neither skips surrounding whitespace nor rejects
        # trailing data, so its result stands only when it consumed the
        # whole line; ``json.loads`` decides every other line, which
        # keeps what parses and every error text exactly its own.
        try:
            record, end = _scan_once(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        if end != len(line):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceFormatError(
                    f"{context}: line {_file_line(file_lines, position)}: "
                    f"malformed JSON: {error}") from None
        try:
            row = event_row(record, context)
        except TraceFormatError:
            row = None
        if row is None:
            # The line is named only on the raise path: parsing again
            # raises the same error with it.
            event_row(record,
                      f"{context}: line {_file_line(file_lines, position)}")
        append(row)
    return document_from_rows(
        rows, source=str(header.get("source") or context),
        num_threads=header["threads"], path=path)


_GEM5_LINE = re.compile(
    r"^\s*(?P<tick>\d+)\s*:\s*(?P<unit>\S+?)\s*:\s*"
    r"(?P<kind>ld_perform|st_globally_perform|rmw_perform)\b(?P<rest>.*)$")
_GEM5_CPU = re.compile(r"cpu(\d+)")
_GEM5_FIELD = re.compile(r"\b(\w+)=(0x[0-9a-fA-F]+|\d+)\b")
_GEM5_SN = re.compile(r"\[sn:(\d+)\]")


def _gem5_fields(rest: str) -> tuple[dict[str, int], int | None]:
    fields = {key: int(value, 0) for key, value in
              _GEM5_FIELD.findall(rest)}
    sn_match = _GEM5_SN.search(rest)
    return fields, (int(sn_match.group(1)) if sn_match else None)


def _gem5_require(fields: dict[str, int], key: str, context: str,
                  unit: str, number: int) -> int:
    """``fields[key]``; the error names ``{unit} {number}`` of *context*."""
    if key not in fields:
        raise TraceFormatError(
            f"{context}: {unit} {number}: missing field {key!r}")
    return fields[key]


def parse_gem5_log(text: str, path: str | None = None,
                   source: str | None = None) -> TraceDocument:
    """Parse a gem5-style text log into a checker-ready document.

    See the module docstring for the line format and the raw-value
    renumbering scheme.
    """
    context = path or "<gem5 log>"
    raw: list[tuple[str, int, int | None, int, dict[str, int]]] = []
    for number, line in enumerate(_split_lines(text), start=1):
        match = _GEM5_LINE.match(line)
        if match is None:
            continue
        cpu_match = _GEM5_CPU.search(match.group("unit"))
        if cpu_match is None:
            raise TraceFormatError(
                f"{context}: line {number}: cannot find a cpu<N> id in "
                f"unit {match.group('unit')!r}")
        fields, sn = _gem5_fields(match.group("rest"))
        address = _gem5_require(fields, "addr", context, "line", number)
        raw.append((match.group("kind"), int(cpu_match.group(1)), sn,
                    address, fields))
    if not raw:
        raise TraceFormatError(
            f"{context}: no ld_perform/st_globally_perform/rmw_perform "
            "events found")
    # Op ids: [sn:N] when complete and unique, else line order.
    sns = [sn for _, _, sn, _, _ in raw]
    complete = None not in sns and len(set(sns)) == len(sns)
    op_ids = sns if complete else list(range(len(raw)))
    # Renumber raw data values into globally unique write ids: stores
    # allocate 1..K in line order, loads map back through what was
    # written at that address.
    write_ids: dict[tuple[int, int], int] = {}
    next_id = 1
    for index, (kind, _, _, address, fields) in enumerate(raw):
        if kind == LD_PERFORM:
            continue
        data = _gem5_require(fields, "data", context, "event", index)
        key = (address, data)
        if key in write_ids:
            raise TraceFormatError(
                f"{context}: event {index}: two stores of value {data} to "
                f"{address:#x}: raw gem5 values must be unique per "
                "address to map onto write ids")
        write_ids[key] = next_id
        next_id += 1
    unknown_ids: dict[tuple[int, int], int] = {}

    def observed(address: int, data: int) -> int:
        if data == 0:
            return 0
        mapped = write_ids.get((address, data))
        if mapped is not None:
            return mapped
        # No store produced this value: allocate an id beyond the real
        # range so the execution builder reports the corruption.
        return unknown_ids.setdefault(
            (address, data), len(write_ids) + 1 + len(unknown_ids))

    rows: list[tuple] = []
    for index, (kind, tid, _, address, fields) in enumerate(raw):
        op_id = op_ids[index]
        data = _gem5_require(fields, "data", context, "event", index)
        if kind == LD_PERFORM:
            rows.append((LD_PERFORM, tid, op_id, address,
                         observed(address, data), None, 0))
            continue
        value = write_ids[(address, data)]
        overwritten = observed(address, fields.get("old", 0))
        if kind == ST_GLOBALLY_PERFORM:
            rows.append((ST_GLOBALLY_PERFORM, tid, op_id, address, value,
                         None, overwritten))
        else:
            read = _gem5_require(fields, "read", context, "event", index)
            rows.append((RMW_PERFORM, tid, op_id, address, value,
                         observed(address, read), overwritten))
    label = source or (os.path.basename(path) if path else "gem5")
    return document_from_rows(rows, source=label, path=path)


def _format_by_extension(path: str) -> str | None:
    suffix = os.path.splitext(path)[1].lower()
    if suffix in (".jsonl", ".json", ".trace"):
        return FORMAT_NATIVE
    if suffix in (".log", ".txt"):
        return FORMAT_GEM5
    return None


def sniff_format(path: str, first_line: str | None = None) -> str:
    """Guess a trace file's format from its extension, then content.

    *first_line* is the file's first non-blank line.
    """
    by_extension = _format_by_extension(path)
    if by_extension is not None:
        return by_extension
    if first_line is not None and first_line.lstrip().startswith("{"):
        return FORMAT_NATIVE
    return FORMAT_GEM5


def load_trace(path: str, format: str = FORMAT_AUTO) -> TraceDocument:
    """Read and parse one trace file (format sniffed by default).

    Raises :class:`~repro.bridge.schema.TraceFormatError` on malformed
    content and ``OSError`` when the file cannot be read; binary junk
    surfaces as :class:`TraceFormatError` too.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown trace format {format!r}; expected "
                         f"one of {FORMATS}")
    # Decoding the bytes skips the text layer's newline translation,
    # which ``_split_lines`` repeats; the decode error is the same.
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except UnicodeDecodeError as error:
        raise TraceFormatError(f"{path}: not a text trace: {error}"
                               ) from None
    if format == FORMAT_AUTO:
        # Split the text only when the extension does not decide; the
        # native parser skips blank lines, so the sniff does too.
        format = _format_by_extension(path) or sniff_format(
            path, next((line for line in _split_lines(text)
                        if line.strip()), ""))
    if format == FORMAT_NATIVE:
        return parse_native_jsonl(text, path=path)
    return parse_gem5_log(text, path=path)


def scan_corpus(directory: str) -> list[str]:
    """The trace files of a corpus directory, sorted by name.

    Sorted order is the corpus's canonical trace order: replay shards
    slice it contiguously, so sharding is identical for any worker
    count or service.  Only :data:`CORPUS_EXTENSIONS` files are
    returned; subdirectories are not descended into.
    """
    if not os.path.isdir(directory):
        raise ValueError(f"corpus directory {directory!r} does not exist")
    names = sorted(
        name for name in os.listdir(directory)
        if os.path.splitext(name)[1].lower() in CORPUS_EXTENSIONS
        and os.path.isfile(os.path.join(directory, name)))
    return [os.path.join(directory, name) for name in names]
