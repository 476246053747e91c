"""Golden ingest outputs: the exact document or the exact error text.

``tests/test_bridge_replay.py`` pins per-file verdicts; this file pins
what :func:`repro.bridge.ingest.load_trace` makes of each input, so a
change meant to make ingest cheaper cannot quietly accept a line it
rejected, reject one it accepted, build a different document or reword
an error.  Each case is one trace file, read through ``load_trace``
from a temporary directory, and records either:

* ``sha256``: a digest of the document (threads, trace records, commit
  order, events, source and ``num_threads``) plus its event count; or
* ``error``: ``str()`` of the :class:`TraceFormatError`, with the
  temporary directory written as ``<dir>``.

Inputs are every committed fixture under ``tests/data/bridge``, 20
seeded executions exported with :func:`repro.bridge.export.trace_to_text`
(random programs and interleavings, not simulator runs, so a simulator
change cannot move this file), and a seeded mutation corpus built from
them: each field of each event kind deleted or replaced by a wrong
value, bad lines, JSON split or joined across lines, whitespace and
line-ending variants, blank lines before an error, characters
``str.splitlines`` would split at, header variants, cross-event errors
and a few gem5 logs.  Regenerate the data file only for a change that
is meant to alter ingest results::

    PYTHONPATH=src python tests/test_bridge_ingest_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from repro.bridge.export import trace_to_text
from repro.bridge.ingest import load_trace
from repro.bridge.schema import (LD_PERFORM, RMW_PERFORM, SCHEMA_NAME,
                                 ST_GLOBALLY_PERFORM, TraceFormatError)
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")

FIXTURES = Path(__file__).parent / "data" / "bridge"
GOLDEN = FIXTURES / "ingest_golden.json"

EXPORT_SEEDS = range(20)
MUTATION_SEED = 25
_DIR = "<dir>"

#: The fields each event kind carries on disk, in exporter key order.
EVENT_FIELDS = {
    LD_PERFORM: ("event", "tid", "op", "addr", "value"),
    ST_GLOBALLY_PERFORM: ("event", "tid", "op", "addr", "value",
                          "overwritten"),
    RMW_PERFORM: ("event", "tid", "op", "addr", "read_value", "value",
                  "overwritten"),
}
_DELETE = object()
#: ``(name, replacement)``; ``_DELETE`` removes the field.
FIELD_VARIANTS = (("delete", _DELETE), ("null", None), ("true", True),
                  ("float", 1.0), ("string", "1"), ("negative", -1),
                  ("zero", 0), ("huge", 2 ** 70), ("list", [1]))

_KINDS = (OpKind.READ, OpKind.READ_ADDR_DP, OpKind.WRITE, OpKind.RMW,
          OpKind.CACHE_FLUSH, OpKind.DELAY)
_KIND_WEIGHTS = (35, 5, 30, 15, 10, 5)


def _execution(seed: int) -> tuple[list[TestThread], ExecutionTrace]:
    """A random program run in a random interleaving.

    Reads sometimes see a stale value; from seed 10 on a few loads are
    left unobserved, which export writes as ``"value": null``.
    """
    rng = random.Random(seed)
    num_threads = 1 + seed % 4
    addresses = [0x40 * (slot + 1) for slot in range(1 + rng.randrange(4))]
    per_thread: list[list[TestOp]] = [[] for _ in range(num_threads)]
    for index in range(rng.randint(4, 24)):
        kind = rng.choices(_KINDS, weights=_KIND_WEIGHTS)[0]
        pid = rng.randrange(num_threads)
        if kind is OpKind.DELAY:
            op = TestOp(index, kind, delay=rng.randint(1, 4))
        else:
            op = TestOp(index, kind, rng.choice(addresses),
                        index + 1 if kind.writes_memory else 0)
        per_thread[pid].append(op)
    threads = [TestThread(pid, tuple(ops))
               for pid, ops in enumerate(per_thread)]
    memory = dict.fromkeys(addresses, 0)
    history = {address: [0] for address in addresses}
    trace = ExecutionTrace()
    cursors = [0] * num_threads
    unobserved = 0.0 if seed < 10 else 0.1
    while live := [pid for pid in range(num_threads)
                   if cursors[pid] < len(per_thread[pid])]:
        pid = rng.choice(live)
        op = per_thread[pid][cursors[pid]]
        cursors[pid] += 1
        if not op.kind.is_memory or op.kind is OpKind.CACHE_FLUSH:
            trace.record_commit(op.op_id, pid)
            continue
        current = memory[op.address]
        observed = (rng.choice(history[op.address])
                    if rng.random() < 0.2 else current)
        if op.kind.is_load:
            if rng.random() >= unobserved:
                trace.record_read(op.op_id, pid, op.address, observed)
            continue
        if op.kind is OpKind.RMW:
            trace.record_rmw(op.op_id, pid, op.address, observed, op.value,
                             current)
        else:
            trace.record_write(op.op_id, pid, op.address, op.value, current)
        memory[op.address] = op.value
        history[op.address].append(op.value)
    return threads, trace


def _exported(seed: int) -> str:
    threads, trace = _execution(seed)
    return trace_to_text(threads, trace, source=f"export-s{seed}")


def _header(**fields) -> str:
    header = {"schema": SCHEMA_NAME, "version": 1, "source": "golden",
              "threads": 2}
    header.update(fields)
    return json.dumps({key: value for key, value in header.items()
                       if value is not _DELETE})


_ST0 = json.dumps({"event": ST_GLOBALLY_PERFORM, "tid": 0, "op": 0,
                   "addr": 64, "value": 1, "overwritten": 0})
_LD1 = json.dumps({"event": LD_PERFORM, "tid": 1, "op": 1, "addr": 64,
                   "value": 1})
#: Characters ``str.splitlines`` splits at that do not end a JSON Lines
#: record; the first three are legal raw inside a JSON string.
_NON_NEWLINES = (("u2028", "\u2028"), ("u2029", "\u2029"),
                 ("u0085", "\x85"), ("vt", "\v"), ("ff", "\f"),
                 ("fs", "\x1c"), ("gs", "\x1d"), ("rs", "\x1e"))
_GEM5 = (" 1000: system.cpu0.dcache: st_globally_perform addr=0x40 "
         "data=11 old=0 [sn:3]\n"
         " 1010: system.cpu1.dcache: st_globally_perform addr=0x80 "
         "data=23 old=0 [sn:8]\n"
         " 1020: system.cpu1: ld_perform addr=0x40 data=11 [sn:9]\n"
         " 1030: system.cpu0: rmw_perform addr=0x80 read=23 data=5 "
         "old=23 [sn:4]\n")


def _lines_of_kind(texts: list[str], kind: str) -> list[tuple[int, int]]:
    """``(trace index, line index)`` of every event line of *kind*."""
    return [(trace, number)
            for trace, text in enumerate(texts)
            for number, line in enumerate(text.splitlines())
            if number and json.loads(line)["event"] == kind]


def _replace_line(text: str, number: int, *new: str) -> str:
    lines = text.splitlines()
    return "\n".join(lines[:number] + list(new) + lines[number + 1:]) + "\n"


def _mutations(texts: list[str]) -> list[tuple[str, str, str]]:
    """``(case id, file name, content)`` for the seeded mutation corpus."""
    rng = random.Random(MUTATION_SEED)
    result = []
    for kind, fields in EVENT_FIELDS.items():
        trace, number = rng.choice(_lines_of_kind(texts, kind))
        record = json.loads(texts[trace].splitlines()[number])
        for field in fields:
            for name, replacement in FIELD_VARIANTS:
                mutated = dict(record)
                if replacement is _DELETE:
                    del mutated[field]
                else:
                    mutated[field] = replacement
                result.append((f"field-{kind}-{field}-{name}", ".jsonl",
                               _replace_line(texts[trace], number,
                                             json.dumps(mutated))))

    def pick() -> tuple[str, int, str]:
        text = texts[rng.randrange(len(texts))]
        number = rng.randrange(1, len(text.splitlines()))
        return text, number, text.splitlines()[number]

    def line_case(case_id: str, build) -> None:
        text, number, line = pick()
        result.append((case_id, ".jsonl",
                       _replace_line(text, number, *build(line))))

    line_case("line-unknown-kind",
              lambda line: [line.replace('"event": "', '"event": "x')])
    line_case("line-kind-missing-underscore",
              lambda line: [line.replace("_perform", "perform")])
    for name, value in (("array", "[1, 2]"), ("number", "42"),
                        ("string", '"text"'), ("null", "null"),
                        ("true", "true"), ("empty-object", "{}")):
        line_case(f"line-not-an-object-{name}", lambda line, v=value: [v])
    line_case("line-two-objects", lambda line: [line + " " + line])
    line_case("line-two-objects-comma", lambda line: [line + ", " + line])
    line_case("line-object-then-open-array",
              lambda line: [line + ", [2", "3]"])
    line_case("line-split-over-two", lambda line: [
        line[:line.index(", ") + 1], line[line.index(", ") + 2:]])
    line_case("line-truncated", lambda line: [line[:len(line) // 2]])
    line_case("line-missing-brace", lambda line: [line[:-1]])
    line_case("line-trailing-garbage", lambda line: [line + "x"])
    line_case("line-leading-space", lambda line: ["  " + line])
    line_case("line-trailing-space", lambda line: [line + " \t"])
    line_case("line-surrounded-by-space", lambda line: ["\t" + line + "  "])
    line_case("line-form-feed-after", lambda line: [line + "\f"])
    line_case("line-vertical-tab-before", lambda line: ["\v" + line])
    line_case("line-nbsp-after", lambda line: [line + "\u00a0"])
    line_case("line-bom", lambda line: ["\ufeff" + line])
    line_case("line-nan-value",
              lambda line: [line.replace('"addr": ', '"addr": NaN, "x": ')])
    line_case("line-duplicate-key",
              lambda line: [line.replace('{"event"', '{"tid": -5, "event"')])
    line_case("line-escaped-key",
              lambda line: [line.replace('"tid"', '"t\\u0069d"')])
    line_case("line-nested-extra",
              lambda line: [line[:-1] + ', "extra": {"a": [1, {}]}}'])
    line_case("line-blank-after",
              lambda line: [line, "", "   ", "\t"])

    for index in (3, 11, 17):
        text = texts[index]
        result.append((f"crlf-s{index}", ".jsonl",
                       text.replace("\n", "\r\n")))
        result.append((f"blank-lines-s{index}", ".jsonl",
                       "\n\n" + text.replace("\n", "\n\n  \n")))
        result.append((f"no-final-newline-s{index}", ".jsonl",
                       text.rstrip("\n")))
        result.append((f"cr-only-s{index}", ".jsonl",
                       text.replace("\n", "\r")))
        result.append((f"sniff-content-s{index}", ".ndjson", text))
        result.append((f"header-only-s{index}", ".jsonl",
                       text.splitlines()[0] + "\n"))

    for name, header in (
            ("wrong-schema", _header(schema="repro.bridge/other")),
            ("no-schema", _header(schema=_DELETE)),
            ("newer-version", _header(version=2)),
            ("version-zero", _header(version=0)),
            ("version-string", _header(version="1")),
            ("version-missing", _header(version=_DELETE)),
            ("threads-zero", _header(threads=0)),
            ("threads-missing", _header(threads=_DELETE)),
            ("threads-string", _header(threads="2")),
            ("threads-true", _header(threads=True)),
            ("threads-one", _header(threads=1)),
            ("no-source", _header(source=_DELETE)),
            ("null-source", _header(source=None)),
            ("empty-source", _header(source="")),
            ("source-line-separator", json.dumps(
                {"schema": SCHEMA_NAME, "version": 1, "threads": 2,
                 "source": "a\u2028b"}, ensure_ascii=False)),
            ("array", "[]"),
            ("malformed", "{oops"),
            ("leading-space", " " + _header())):
        result.append((f"header-{name}", ".jsonl",
                       "\n".join([header, _ST0, _LD1]) + "\n"))
    for name, text in (
            ("empty", ""), ("whitespace", " \n\t\n\n"),
            ("op-reused", "\n".join([_header(), _ST0, _LD1.replace(
                '"op": 1', '"op": 0')]) + "\n"),
            ("value-reused", "\n".join([_header(), _ST0, _ST0.replace(
                '"op": 0', '"op": 5')]) + "\n"),
            ("tid-outside", "\n".join([_header(), _ST0, _LD1.replace(
                '"tid": 1', '"tid": 2')]) + "\n")):
        result.append((f"document-{name}", ".jsonl", text))
    # Several faults in one file: a line error wins over every
    # cross-event fault, even one on an earlier line; then no events,
    # then a tid out of range, then op-id or value reuse in event order
    # (within one event, the op id first).
    op_reused = _LD1.replace('"op": 1', '"op": 0')
    value_reused = _ST0.replace('"op": 0', '"op": 5')
    for name, lines in (
            ("op-reused-then-malformed", [_ST0, op_reused, "{bad"]),
            ("op-reused-then-bad-field",
             [_ST0, op_reused, _LD1.replace('"op": 1', '"op": 7').replace(
                 '"addr": 64', '"addr": -1')]),
            ("op-reused-then-tid-outside",
             [_ST0, op_reused, _LD1.replace('"op": 1', '"op": 7').replace(
                 '"tid": 1', '"tid": 5')]),
            ("two-tids-outside",
             [_LD1.replace('"tid": 1', '"tid": 5'),
              _ST0.replace('"tid": 0', '"tid": 3')]),
            ("tid-outside-then-malformed",
             [_LD1.replace('"tid": 1', '"tid": 4'), _ST0, "[1"]),
            ("value-reused-then-op-reused",
             [_ST0, value_reused, op_reused]),
            ("op-and-value-reused", [_ST0, _ST0]),
            ("value-reused-then-bad-kind",
             [_ST0, value_reused, _LD1.replace("ld_perform", "ld")])):
        result.append((f"precedence-{name}", ".jsonl",
                       "\n".join([_header(), *lines]) + "\n"))

    for name, text in (
            ("valid", _GEM5),
            ("crlf", _GEM5.replace("\n", "\r\n")),
            ("no-cpu", _GEM5.replace("system.cpu1:", "system.mem:")),
            ("no-data", _GEM5.replace(" data=11 [sn:9]", " [sn:9]")),
            ("no-read", _GEM5.replace(" read=23", "")),
            ("no-addr", _GEM5.replace("addr=0x80 data=23", "data=23")),
            ("duplicate-store", _GEM5.replace("data=23", "data=11").replace(
                "addr=0x80", "addr=0x40")),
            ("partial-sn", _GEM5.replace(" [sn:8]", "")),
            ("repeated-sn", _GEM5.replace("[sn:8]", "[sn:3]")),
            ("noise-only", "1: system.mem: refill\n"),
            ("unknown-read", _GEM5.replace("data=11 [sn:9]",
                                           "data=99 [sn:9]"))):
        result.append((f"gem5-{name}", ".log", text))
        result.append((f"gem5-sniff-{name}", ".dat", text))
    result.append(("binary-junk", ".jsonl", b"\xff\xfe\x00\x01binary"))

    # Errors name the file line, counting the blank lines before it.
    bad_event = _LD1.replace('"tid": 1', '"tid": "1"')
    for name, lines in (
            ("malformed-start", ["", "  ", _header(), _ST0, "{bad"]),
            ("malformed-middle", [_header(), "", "", "{bad"]),
            ("bad-event-start", ["", "\t", "", _header(), _ST0, bad_event]),
            ("bad-event-middle", [_header(), _ST0, "", " ", bad_event])):
        result.append((f"blank-before-{name}", ".jsonl",
                       "\n".join(lines) + "\n"))
    for name, char in _NON_NEWLINES:
        header = _header(source="a@b").replace("@", char)
        event = _LD1[:-1] + f', "note": "a{char}b"}}'
        for where, lines in (("in-header", [header, _ST0, _LD1]),
                             ("in-event", [_header(), _ST0, event]),
                             ("between-records",
                              [_header(), _ST0 + char + _LD1])):
            if (name, where) == ("u2028", "in-header"):
                continue  # the header-source-line-separator case
            result.append((f"non-newline-{name}-{where}", ".jsonl",
                           "\n".join(lines) + "\n"))
    # gem5 logs split only at line ends too: a noise line holding one of
    # these characters is one file line, and so is an event line.
    no_addr = _GEM5.replace("addr=0x80 data=23", "data=23")
    for name, char in _NON_NEWLINES:
        result.append((f"gem5-non-newline-{name}-in-noise", ".log",
                       f"1: system.mem: refill{char} more\n" + no_addr))
        result.append((f"gem5-non-newline-{name}-in-event", ".log",
                       _GEM5.replace("addr=0x40 data=11 [sn:9]",
                                     f"addr=0x40{char}data=11 [sn:9]")))
    return result


def cases() -> list[tuple[str, str, str | bytes]]:
    """Every golden case as ``(case id, file name, content)``."""
    result = [(f"fixture-{path.name}", path.name, path.read_bytes())
              for path in sorted(FIXTURES.iterdir())
              if path.suffix in (".jsonl", ".log")]
    texts = [_exported(seed) for seed in EXPORT_SEEDS]
    result += [(f"export-s{seed}", f"export-s{seed}.jsonl", text)
               for seed, text in zip(EXPORT_SEEDS, texts)]
    result += [(case_id, case_id + suffix, content)
               for case_id, suffix, content in _mutations(texts)]
    return result


def _digest(document, directory: str) -> str:
    trace = document.trace
    body = {
        "source": document.source.replace(directory, _DIR),
        "num_threads": document.num_threads,
        "threads": [[thread.pid,
                     [[op.op_id, op.kind.value, op.address, op.value,
                       op.delay] for op in thread.ops]]
                    for thread in document.threads],
        "reads": [[r.op_id, r.pid, r.address, r.value]
                  for r in trace.reads],
        "writes": [[w.op_id, w.pid, w.address, w.value, w.overwritten]
                   for w in trace.writes],
        "rmws": [[m.op_id, m.pid, m.address, m.read_value,
                  m.written_value, m.overwritten] for m in trace.rmws],
        "commit_order": [[pid, op_ids]
                         for pid, op_ids in trace.commit_order.items()],
        "events": [[e.kind, e.tid, e.op_id, e.address, e.value,
                    e.read_value, e.overwritten] for e in document.events],
    }
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def observe(directory: Path, name: str) -> dict:
    """Ingest one written case; return its golden row."""
    try:
        document = load_trace(str(directory / name))
    except TraceFormatError as error:
        return {"error": str(error).replace(str(directory), _DIR)}
    return {"events": len(document.events),
            "sha256": _digest(document, str(directory))}


def _write(directory: Path, name: str, content: str | bytes) -> None:
    path = directory / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        # newline="" keeps \r\n and lone \r exactly as built.
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("ingest-golden")
    for _, name, content in CASES:
        _write(directory, name, content)
    return directory


def test_golden_file_lists_exactly_the_cases(golden):
    assert list(golden) == [case_id for case_id, _, _ in CASES]


def test_golden_covers_documents_and_errors(golden):
    rows = list(golden.values())
    assert sum("sha256" in row for row in rows) >= 30
    messages = " ".join(row["error"] for row in rows if "error" in row)
    for fragment in ("malformed JSON", "must be an integer",
                     "must be >= 1", "unknown event kind",
                     "expected a JSON object", "header",
                     "newer than the supported", "already used by thread",
                     "already produced", "outside the declared",
                     "requires an observed read_value", "not a text trace",
                     "empty trace file", "contains no events",
                     "cannot find a cpu", "two stores of value"):
        assert fragment in messages, fragment


@pytest.mark.parametrize("case_id,name", [(case_id, name)
                                          for case_id, name, _ in CASES],
                         ids=[case_id for case_id, _, _ in CASES])
def test_ingest_matches_golden(case_id, name, corpus, golden):
    assert observe(corpus, name) == golden[case_id]


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        rows = {}
        for case_id, name, content in CASES:
            _write(directory, name, content)
            rows[case_id] = observe(directory, name)
    body = ",\n".join(f" {json.dumps(case_id)}: {json.dumps(row)}"
                      for case_id, row in rows.items())
    GOLDEN.write_text("{\n" + body + "\n}\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    _regenerate()
