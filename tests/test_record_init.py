"""The hand-written ``__init__`` of the frozen records built per event.

``TestOp``, ``TraceEvent`` and the three trace records (``ReadRecord``,
``WriteRecord``, ``RmwRecord``) fill their instance ``__dict__`` in one
call instead of the generated one ``object.__setattr__`` per field.
These tests pin that they still behave exactly as generated frozen
dataclasses: the ``__init__`` signature is the fields in order with
their defaults (so a field added without its ``__init__`` fails here),
keyword, positional, ``dataclasses.replace``, pickle and codec
construction agree, assignment raises ``FrozenInstanceError`` and an
invalid ``TestOp`` raises the same ``ValueError`` as before.  A
``TestOp``'s program row (``program_rows``) is its fields in order.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.bridge.schema import (LD_PERFORM, RMW_PERFORM,
                                 ST_GLOBALLY_PERFORM, TraceEvent)
from repro.consistency.execution import program_rows
from repro.harness import codec
from repro.sim.testprogram import OpKind, TestOp, TestThread
from repro.sim.trace import (ExecutionTrace, ReadRecord, RmwRecord,
                             WriteRecord)

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")

CLASSES = (TestOp, TraceEvent, ReadRecord, WriteRecord, RmwRecord)

#: ``(class, field values in declaration order)``.
CASES = [
    (TestOp, (1, OpKind.READ, 0x80, 0, 0)),
    (TestOp, (3, OpKind.WRITE, 0x40, 4, 0)),
    (TestOp, (4, OpKind.RMW, 0x40, 5, 0)),
    (TestOp, (5, OpKind.DELAY, None, 0, 7)),
    (TestOp, (6, OpKind.CACHE_FLUSH, 0xC0, 0, 0)),
    (TraceEvent, (LD_PERFORM, 0, 1, 64, None, None, 0)),
    (TraceEvent, (ST_GLOBALLY_PERFORM, 1, 2, 64, 3, None, 1)),
    (TraceEvent, (RMW_PERFORM, 1, 3, 128, 2, 0, 0)),
    (ReadRecord, (1, 0, 64, 3)),
    (WriteRecord, (2, 1, 64, 3, 0)),
    (RmwRecord, (3, 1, 128, 0, 2, 0)),
]
IDS = [f"{cls.__name__}-{values[0]}-{values[1]}" for cls, values in CASES]


def _names(cls) -> list[str]:
    return [field.name for field in dataclasses.fields(cls)]


def _same(first, second) -> None:
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert list(vars(first).items()) == list(vars(second).items())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_init_parameters_are_the_fields_in_order(cls):
    parameters = list(inspect.signature(cls.__init__).parameters.values())
    assert parameters[0].name == "self"
    fields = dataclasses.fields(cls)
    assert [parameter.name for parameter in parameters[1:]] == _names(cls)
    for parameter, field in zip(parameters[1:], fields):
        assert field.init
        assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        expected = (inspect.Parameter.empty
                    if field.default is dataclasses.MISSING
                    else field.default)
        assert parameter.default == expected, field.name


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_still_a_frozen_dataclass(cls):
    assert dataclasses.is_dataclass(cls)
    params = cls.__dataclass_params__
    assert params.frozen and params.eq
    assert cls.__match_args__ == tuple(_names(cls))


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_keyword_positional_and_replace_agree(cls, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(_names(cls), values)))
    _same(by_position, by_keyword)
    assert dataclasses.astuple(by_position) == values
    assert list(vars(by_position)) == _names(cls)
    _same(dataclasses.replace(by_position), by_position)
    changed = dataclasses.replace(by_position, op_id=99)
    assert changed.op_id == 99 and changed != by_position
    _same(dataclasses.replace(changed, op_id=by_position.op_id),
          by_position)


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_pickle_round_trip(cls, values):
    record = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        _same(pickle.loads(pickle.dumps(record, protocol)), record)
    # The pickled state is the field dict in declaration order, as a
    # generated ``__init__`` leaves it.
    state = record.__reduce_ex__(4)[2]
    assert list(state.items()) == list(zip(_names(cls), values))


@pytest.mark.parametrize("cls,values", CASES, ids=IDS)
def test_assignment_raises_frozen_instance_error(cls, values):
    record = cls(*values)
    for name in _names(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert dataclasses.astuple(record) == values


@pytest.mark.parametrize("values", [values for cls, values in CASES
                                    if cls is TestOp],
                         ids=[case for case in IDS
                              if case.startswith("TestOp")])
def test_test_op_codec_round_trip(values):
    op = TestOp(*values)
    _same(codec.decode(codec.encode(op)), op)
    assert codec.WIRE_FIELDS["TestOp"] == tuple(_names(TestOp))


@pytest.mark.parametrize("values", [values for cls, values in CASES
                                    if cls is TestOp],
                         ids=[case for case in IDS
                              if case.startswith("TestOp")])
def test_program_row_is_the_test_op_fields_in_order(values):
    op = TestOp(*values)
    assert program_rows([TestThread(2, (op,))]) == [(2, (values,))]


@pytest.mark.parametrize("build,message", [
    (lambda: TestOp(0, OpKind.READ), "requires an address"),
    (lambda: TestOp(op_id=0, kind=OpKind.WRITE, value=1),
     "requires an address"),
    (lambda: TestOp(0, OpKind.WRITE, 0x40), "positive unique value"),
    (lambda: TestOp(0, OpKind.RMW, 0x40, -2), "positive unique value"),
    (lambda: TestOp(0, OpKind.DELAY, delay=-1), "delay must be"),
    (lambda: dataclasses.replace(TestOp(0, OpKind.WRITE, 0x40, 1),
                                 value=0), "positive unique value"),
], ids=["read-no-address", "write-no-address", "write-zero-value",
        "rmw-negative-value", "negative-delay", "replace-invalid"])
def test_invalid_test_op_raises_value_error(build, message):
    with pytest.raises(ValueError, match=message) as raised:
        build()
    assert type(raised.value) is ValueError


def test_trace_methods_build_equal_records():
    trace = ExecutionTrace()
    trace.record_read(1, 0, 64, 3)
    trace.record_write(2, 1, 64, 3, 0)
    trace.record_rmw(3, 1, 128, 0, 2, 0)
    _same(trace.reads[0], ReadRecord(op_id=1, pid=0, address=64, value=3))
    _same(trace.writes[0], WriteRecord(op_id=2, pid=1, address=64, value=3,
                                       overwritten=0))
    _same(trace.rmws[0], RmwRecord(op_id=3, pid=1, address=128,
                                   read_value=0, written_value=2,
                                   overwritten=0))
