"""Unit tests for the bridge schema and its two ingestion parsers."""

import json

import pytest

from repro.bridge.ingest import (FORMAT_GEM5, FORMAT_NATIVE, load_trace,
                                 parse_gem5_log, parse_native_jsonl,
                                 scan_corpus, sniff_format)
from repro.bridge.schema import (LD_PERFORM, RMW_PERFORM, SCHEMA_NAME,
                                 SCHEMA_VERSION, ST_GLOBALLY_PERFORM,
                                 TraceEvent, TraceFormatError,
                                 document_from_events, parse_event,
                                 parse_header)
from repro.consistency.execution import (ExecutionBuildError,
                                         execution_from_trace)
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import ExecutionTrace

HEADER = json.dumps({"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
                     "source": "unit", "threads": 2})


def native(*events: dict) -> str:
    return "\n".join([HEADER, *map(json.dumps, events)]) + "\n"


def st(tid, op, addr, value, overwritten=0):
    return {"event": ST_GLOBALLY_PERFORM, "tid": tid, "op": op,
            "addr": addr, "value": value, "overwritten": overwritten}


def ld(tid, op, addr, value):
    return {"event": LD_PERFORM, "tid": tid, "op": op, "addr": addr,
            "value": value}


class TestHeader:
    def test_round_trip(self):
        header = parse_header(HEADER, "t")
        assert header["threads"] == 2

    def test_rejects_wrong_schema(self):
        with pytest.raises(TraceFormatError, match="header"):
            parse_header(json.dumps({"schema": "nope", "version": 1}), "t")

    def test_rejects_newer_version(self):
        line = json.dumps({"schema": SCHEMA_NAME,
                           "version": SCHEMA_VERSION + 1, "threads": 1})
        with pytest.raises(TraceFormatError, match="newer"):
            parse_header(line, "t")

    def test_rejects_malformed_json(self):
        with pytest.raises(TraceFormatError, match="malformed"):
            parse_header("{oops", "t")


class TestParseEvent:
    def test_unknown_kind(self):
        with pytest.raises(TraceFormatError, match="unknown event kind"):
            parse_event({"event": "st_perform", "tid": 0, "op": 0,
                         "addr": 0}, "t")

    def test_store_value_must_be_positive(self):
        with pytest.raises(TraceFormatError, match="value"):
            parse_event(st(0, 0, 64, 0), "t")

    def test_load_value_may_be_null(self):
        event = parse_event(ld(0, 0, 64, None), "t")
        assert event.value is None

    def test_bool_is_not_an_int(self):
        with pytest.raises(TraceFormatError, match="tid"):
            parse_event({"event": LD_PERFORM, "tid": True, "op": 0,
                         "addr": 0, "value": 0}, "t")

    def test_rmw_requires_read_value(self):
        with pytest.raises(TraceFormatError, match="read_value"):
            parse_event({"event": RMW_PERFORM, "tid": 0, "op": 0,
                         "addr": 0, "value": 1}, "t")


class TestDocumentInvariants:
    def test_builds_threads_and_trace(self):
        doc = parse_native_jsonl(native(
            st(0, 0, 64, 1), ld(1, 1, 64, 1)))
        assert [thread.pid for thread in doc.threads] == [0, 1]
        assert doc.trace.reads[0].value == 1
        assert doc.trace.writes[0].value == 1

    def test_rejects_op_id_reuse_across_threads(self):
        with pytest.raises(TraceFormatError, match="globally unique"):
            parse_native_jsonl(native(st(0, 5, 64, 1), ld(1, 5, 64, 1)))

    def test_rejects_op_id_reuse_same_thread(self):
        with pytest.raises(TraceFormatError, match="globally unique"):
            parse_native_jsonl(native(st(0, 5, 64, 1), st(0, 5, 128, 2)))

    def test_rejects_duplicate_write_values(self):
        with pytest.raises(TraceFormatError, match="write values"):
            parse_native_jsonl(native(st(0, 0, 64, 1), st(0, 1, 128, 1)))

    def test_rejects_tid_beyond_declared_count(self):
        with pytest.raises(TraceFormatError, match="thread count"):
            parse_native_jsonl(native(st(7, 0, 64, 1)))

    def test_rejects_empty_event_stream(self):
        with pytest.raises(TraceFormatError, match="no events"):
            parse_native_jsonl(HEADER + "\n")

    def test_unobserved_load_is_a_corruption_not_a_shrink(self):
        doc = parse_native_jsonl(native(st(0, 0, 64, 1),
                                        ld(1, 1, 64, None)))
        assert len(doc.threads[1].ops) == 1
        with pytest.raises(ExecutionBuildError, match="no observation"):
            execution_from_trace(doc.threads, doc.trace)

    def test_declared_but_silent_thread_is_kept_empty(self):
        doc = parse_native_jsonl(native(st(0, 0, 64, 1)))
        assert doc.threads[1].ops == ()


class TestExecutionOpIdGuard:
    """execution_from_trace itself rejects colliding op ids."""

    def test_two_threads_reusing_an_op_id(self):
        threads = [
            TestThread(0, (TestOp(4, OpKind.WRITE, 0x40, 1),)),
            TestThread(1, (TestOp(4, OpKind.READ, 0x40),)),
        ]
        trace = ExecutionTrace()
        trace.record_write(4, 0, 0x40, 1, 0)
        trace.record_read(4, 1, 0x40, 1)
        with pytest.raises(ExecutionBuildError, match="reused"):
            execution_from_trace(threads, trace)


class TestGem5Parser:
    LOG = """\
 100: system.cpu0.dcache: st_globally_perform addr=0x40 data=7 old=0 [sn:4]
 105: system.cpu0.dcache: st_globally_perform addr=0x80 data=9 old=0 [sn:5]
 112: system.cpu1.lsq: ld_perform addr=0x80 data=9 [sn:9]
 120: system.cpu1.lsq: ld_perform addr=0x40 data=7 [sn:10]
 130: system.cpu1.fetch: unrelated noise that must be ignored
"""

    def test_raw_values_are_renumbered_to_write_ids(self):
        doc = parse_gem5_log(self.LOG)
        assert [w.value for w in doc.trace.writes] == [1, 2]
        assert [r.value for r in doc.trace.reads] == [2, 1]

    def test_sequence_numbers_become_op_ids(self):
        doc = parse_gem5_log(self.LOG)
        assert {op.op_id for t in doc.threads for op in t.ops} == {
            4, 5, 9, 10}

    def test_line_order_ids_when_sn_missing(self):
        log = self.LOG.replace(" [sn:9]", "")
        doc = parse_gem5_log(log)
        assert {op.op_id for t in doc.threads for op in t.ops} == {
            0, 1, 2, 3}

    def test_unknown_observed_value_maps_beyond_real_range(self):
        log = ("1: cpu0: st_globally_perform addr=0x40 data=7 old=0\n"
               "2: cpu1: ld_perform addr=0x40 data=99\n")
        doc = parse_gem5_log(log)
        assert doc.trace.reads[0].value == 2  # one real write, id 1
        with pytest.raises(ExecutionBuildError):
            execution_from_trace(doc.threads, doc.trace)

    def test_duplicate_store_value_per_address_rejected(self):
        log = ("1: cpu0: st_globally_perform addr=0x40 data=7 old=0\n"
               "2: cpu0: st_globally_perform addr=0x40 data=7 old=7\n")
        with pytest.raises(TraceFormatError, match="unique per address"):
            parse_gem5_log(log)

    def test_zero_stays_initial_memory(self):
        log = ("1: cpu0: st_globally_perform addr=0x40 data=7 old=0\n"
               "2: cpu1: ld_perform addr=0x40 data=0\n")
        doc = parse_gem5_log(log)
        assert doc.trace.reads[0].value == 0

    def test_no_events_is_an_error(self):
        with pytest.raises(TraceFormatError, match="no .*events"):
            parse_gem5_log("only: noise: here\n")

    def test_missing_cpu_id_is_an_error(self):
        with pytest.raises(TraceFormatError, match="cpu"):
            parse_gem5_log("1: system.mem: ld_perform addr=0x40 data=0\n")


class TestLoadTrace:
    def test_sniffs_by_extension_and_content(self, tmp_path):
        assert sniff_format("x.jsonl") == FORMAT_NATIVE
        assert sniff_format("x.log") == FORMAT_GEM5
        assert sniff_format("x.dat", '{"schema": "..."}') == FORMAT_NATIVE
        assert sniff_format("x.dat", "100: cpu0: ld_perform") == FORMAT_GEM5

    def test_sniffs_the_first_non_blank_line(self, tmp_path):
        # The native parser skips blank lines, so the sniff must too: a
        # leading blank line once sent x.ndjson to the gem5 parser.
        text = "\n  \n" + native(st(0, 0, 64, 1), ld(1, 1, 64, 1))
        documents = []
        for name in ("x.ndjson", "x.jsonl"):
            path = tmp_path / name
            path.write_text(text)
            documents.append(load_trace(str(path)))
        assert [len(doc.events) for doc in documents] == [2, 2]
        assert documents[0].trace == documents[1].trace
        gem5 = tmp_path / "x.dat"
        gem5.write_text("\n\n 5: system.cpu0: ld_perform addr=0x40 data=0\n")
        assert len(load_trace(str(gem5)).events) == 1

    def test_binary_junk_is_a_format_error(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_bytes(b"\xff\xfe\x00\x01binary")
        with pytest.raises(TraceFormatError, match="not a text trace"):
            load_trace(str(path))

    def test_unknown_format_param_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            load_trace("whatever.jsonl", format="xml")

    def test_scan_corpus_filters_and_sorts(self, tmp_path):
        (tmp_path / "b.jsonl").write_text("x")
        (tmp_path / "a.log").write_text("x")
        (tmp_path / "README.md").write_text("not a trace")
        (tmp_path / "sub").mkdir()
        names = [p.rsplit("/", 1)[-1] for p in scan_corpus(str(tmp_path))]
        assert names == ["a.log", "b.jsonl"]

    def test_scan_corpus_missing_directory(self):
        with pytest.raises(ValueError, match="does not exist"):
            scan_corpus("/nonexistent/corpus/dir")


class TestDocumentFromEvents:
    def test_infers_thread_count(self):
        doc = document_from_events(
            [TraceEvent(ST_GLOBALLY_PERFORM, tid=2, op_id=0, address=64,
                        value=1)], source="unit")
        assert doc.num_threads == 3

    @pytest.mark.parametrize("event,message", [
        (TraceEvent(ST_GLOBALLY_PERFORM, tid=0, op_id=0, address=64,
                    value=0), "positive unique value"),
        (TraceEvent(LD_PERFORM, tid=0, op_id=0, address=None, value=0),
         "requires an address"),
    ], ids=["store-value-0", "load-no-address"])
    def test_hand_built_events_are_validated_as_ops(self, event, message):
        # Events built by hand skip event_row's checks; the TestOps the
        # document's threads are built from still reject them.
        with pytest.raises(ValueError, match=message):
            document_from_events([event], source="unit")
