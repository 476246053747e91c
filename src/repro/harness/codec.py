"""The wire codec: the one format for bytes the service reads off a socket.

Every frame of the verification service (:mod:`repro.harness.service`)
goes through this module: the worker plane (challenge, hello, tasks,
outcomes), the ``POST /jobs`` octet-stream body and the
``GET /jobs/<id>/results`` body.  Unpickling peer bytes is arbitrary
code execution, so the encoding is a tagged binary format over a
*closed* type universe — ``None``, ``bool``, ``int``, ``float``,
``str``, ``bytes``, ``list``/``tuple``/``dict``/``set``/``frozenset``,
plus an explicit registry of the dataclasses and enums that legitimately
cross the wire (:class:`~repro.harness.parallel.ChunkTask`,
:class:`~repro.harness.parallel.ChunkOutcome`,
:class:`~repro.harness.parallel.SweepConfig` and everything reachable
from them).

Each value is a one-byte tag and its body.  Integers are big-endian;
``u16``/``u32`` are unsigned lengths and counts:

* ``N``, ``T``, ``F``: ``None``, ``True``, ``False``; no body.
* ``i``: an ``int`` within i64, 8 bytes signed.
* ``I``: any other ``int``, ``u32`` length and decimal ASCII.
* ``f``: a ``float``, an 8-byte IEEE double.
* ``s``: a ``str``, ``u32`` length and utf-8.
* ``b``: ``bytes``, ``u32`` length and the raw bytes.
* ``l``, ``t``, ``S``, ``R``: a ``list``, ``tuple``, ``set`` or
  ``frozenset``; ``u32`` count and that many values.
* ``A``: packed ints; ``l`` or ``t`` for the container, ``u32`` count
  and that many i64s.  Every non-empty list or tuple whose items are
  exact ``int`` objects within i64 is encoded this way.
* ``d``: a ``dict``; ``u32`` count and that many key, value pairs.
* ``E``: an enum member; ``u16``-length class name and its value.
* ``O``: a registered object; ``u16``-length class name, ``u32`` field
  count, and each field's ``u16``-length name and value.

Decoding never executes anything: every tag maps to a fixed constructor,
unknown tags and unknown class names raise :class:`CodecError`, every
length and count is bounds-checked against the remaining buffer before
any allocation, and nesting depth is capped.  In particular, feeding a
pickle (or any other byte soup) to :func:`decode` fails fast with
:class:`CodecError` — it is a :class:`ProtocolError` subclass, so the
service's existing error taxonomy covers hostile frames uniformly.

Registered dataclasses are encoded field-by-field (their
``__post_init__`` validation runs on decode, so malformed field values
from a hostile peer are rejected by the same invariants trusted code
relies on); classes with non-dataclass state register explicit
``encode``/``decode`` hooks.  The one hook,
:class:`~repro.sim.coverage.CoverageCollector`'s, writes a string table
and packed index and count columns, and its decode builds the raw
``(controller, state, event)`` tuples straight from them.

What stays opaque: resume checkpoints and verdict-cache shipments cross
the wire as pre-serialized *bytes* fields (``ChunkPayload.data``,
``ChunkTask.cache``) and are only ever deserialized by the worker that
resumes the chunk — the service never unpickles them.  See
``docs/service.md`` for the full threat model.
"""

from __future__ import annotations

import dataclasses
import struct
from enum import Enum
from itertools import chain
from typing import Callable, Iterable

from repro.harness.distributed import ProtocolError


class CodecError(ProtocolError):
    """A frame could not be encoded or decoded by the wire codec."""


#: Maximum container/object nesting depth.  The real message graphs are
#: a handful of levels deep; a deeply nested hostile frame must exhaust
#: this limit, not the interpreter stack.
MAX_DEPTH = 48

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


# ----------------------------------------------------------------------
# Registry


@dataclasses.dataclass(frozen=True)
class _Registered:
    """One class admitted to the wire: how to take it apart and rebuild."""

    cls: type
    fields: tuple[str, ...] | None
    encode_fn: Callable | None
    decode_fn: Callable | None
    is_enum: bool
    #: The ``E``/``O`` tag and the encoded class name.
    header: bytes
    #: Each of ``fields``' encoded names, in order.
    field_names: tuple[bytes, ...]


_BY_NAME: dict[str, _Registered] = {}
_BY_TYPE: dict[type, _Registered] = {}

#: The authoritative wire-field manifest.  Every ``repro.*`` class on
#: the wire must appear here with its exact field tuple; ``register``
#: validates against it at import time and the static analyzer (rules
#: ``WIRE001``/``WIRE003``/``WIRE004`` in :mod:`repro.analysis.wire`)
#: cross-checks it against the dataclass definitions, so adding a field
#: to a wire type without updating this table fails fast in both CI
#: legs.  Keep entries in dataclass declaration order — the tuple is
#: compared exactly, order included.
WIRE_FIELDS: dict[str, tuple[str, ...]] = {
    "ChunkTask": (
        "index", "spec", "checkpoint", "pause_after", "cache"),
    "ChunkOutcome": (
        "index", "shard", "error", "telemetry", "payload", "cache_delta"),
    "ChunkTelemetry": (
        "evaluations", "wall_seconds", "checkpoint_bytes",
        "checkpoint_seconds"),
    "ChunkPayload": ("data",),
    "CampaignSpec": (
        "kind", "generator_config", "system_config", "fault", "seed",
        "max_evaluations", "time_limit_seconds", "chromosome",
        "trace_paths", "label"),
    "ShardResult": ("spec", "result", "coverage"),
    "CampaignResult": (
        "kind", "found", "evaluations", "evaluations_to_find",
        "wall_seconds", "detail", "total_coverage", "ndt_history",
        "mean_ndt_final", "sim_seconds", "check_seconds"),
    "GeneratorConfig": (
        "test_size", "num_threads", "iterations", "memory", "bias",
        "delay_max", "population_size", "tournament_size",
        "mutation_probability", "crossover_probability",
        "unconditional_selection_probability", "fitaddr_bias",
        "coverage_initial_cutoff", "coverage_low_threshold",
        "coverage_patience"),
    "OperationBias": (
        "read", "read_addr_dp", "write", "rmw", "cache_flush", "delay"),
    "Chromosome": ("slots", "num_threads"),
    "TestOp": ("op_id", "kind", "address", "value", "delay"),
    "SystemConfig": (
        "num_cores", "rob_entries", "lsq_entries", "l1", "l2",
        "l2_hit_latency_max", "memory_latency_min", "memory_latency_max",
        "network_latency_min", "network_latency_max", "issue_width",
        "protocol", "tso_cc_timestamp_group", "tso_cc_max_timestamp",
        "tso_cc_max_accesses"),
    "CacheConfig": ("size_bytes", "line_bytes", "ways", "hit_latency"),
    "TestMemoryLayout": (
        "size_bytes", "stride", "partition_bytes",
        "partition_separation", "base_address"),
    "TransitionKey": ("controller", "state", "event"),
    "VerdictCacheDelta": (
        "entries", "hits", "misses", "evictions", "failed_refreshes",
        "seconds_saved", "check_seconds_observed", "checks_observed"),
    "VerdictCacheState": (
        "capacity", "entries", "hits", "misses", "evictions",
        "failed_refreshes", "seconds_saved", "check_seconds_observed",
        "checks_observed"),
    "CachedVerdict": ("passed",),
    "ReplayShardStats": (
        "traces", "passed", "failed", "corrupt", "sources", "verdicts",
        "first_failure", "detail"),
    "ReplayCheckpoint": (
        "kind", "seed", "evaluations", "stats", "elapsed_seconds",
        "check_seconds"),
    "ReplayCampaignResult": (
        "kind", "found", "evaluations", "evaluations_to_find",
        "wall_seconds", "detail", "total_coverage", "ndt_history",
        "mean_ndt_final", "sim_seconds", "check_seconds", "stats"),
    "CoverageCollector": ("strings", "counted", "counts", "known", "run"),
    "SweepConfig": ("chunk_evaluations", "verdict_memo"),
}

#: Enums admitted to the wire (encoded by value).
WIRE_ENUMS: tuple[str, ...] = ("Fault", "GeneratorKind", "OpKind")

#: Classes encoded through explicit hooks rather than dataclass fields;
#: their ``WIRE_FIELDS`` entry names the hook's field-dict keys and is
#: enforced on decode like any other entry.
WIRE_HOOKS: tuple[str, ...] = ("CoverageCollector",)

#: Sanctioned opaque-payload roots: graphs that cross the wire only as
#: pickled bytes inside a registered envelope (``ChunkPayload``), never
#: as codec-encoded fields.  The static reachability lint (WIRE004)
#: stops here instead of demanding manifest entries for the whole
#: checkpoint graph; unpickling stays confined to the modules
#: ``repro.analysis`` allowlists (``PICKLE_ALLOWED_MODULES``).
WIRE_OPAQUE: tuple[str, ...] = ("CampaignCheckpoint",)

#: Classes that may legitimately appear on the wire but whose defining
#: module is imported lazily (the harness never imports the bridge at
#: module load; see ``repro.harness.parallel._campaign_for``).  On an
#: unknown-name decode the module is imported once — its import-time
#: ``register`` calls fill the registry — and the lookup retried.
_LAZY_MODULES: dict[str, str] = {
    "ReplayShardStats": "repro.bridge.replay",
    "ReplayCheckpoint": "repro.bridge.replay",
    "ReplayCampaignResult": "repro.bridge.replay",
}


def register(cls: type, fields: Iterable[str] | None = None, *,
             encode: Callable | None = None,
             decode: Callable | None = None) -> type:
    """Admit *cls* to the wire format.

    Dataclasses need nothing beyond the class itself (fields are derived
    from the dataclass definition); enums are encoded by value.  Classes
    with private/non-dataclass state pass ``encode`` (instance -> field
    dict) and ``decode`` (field dict -> instance) hooks, plus ``fields``
    naming the hook's field-dict keys for decode-side checking.
    Registering the same class twice is idempotent; a *different* class
    under an already-taken name is a programming error and raises.

    Classes defined under the ``repro`` package are validated against
    the :data:`WIRE_FIELDS` manifest: an unlisted class, or one whose
    fields drifted from its manifest entry, raises at import time.
    """
    name = cls.__name__
    existing = _BY_NAME.get(name)
    if existing is not None:
        if existing.cls is cls:
            return cls
        raise ValueError(f"codec name {name!r} already registered for "
                         f"{existing.cls!r}")
    is_enum = isinstance(cls, type) and issubclass(cls, Enum)
    if is_enum:
        fields = None
    elif encode is None:
        if fields is None:
            if not dataclasses.is_dataclass(cls):
                raise ValueError(f"{cls!r} is not a dataclass; pass fields "
                                 "or encode/decode hooks")
            fields = tuple(entry.name for entry in dataclasses.fields(cls))
        else:
            fields = tuple(fields)
    else:
        fields = tuple(fields) if fields is not None else None
    _validate_against_manifest(cls, fields, is_enum,
                               has_hooks=encode is not None)
    entry = _Registered(
        cls=cls, fields=fields, encode_fn=encode, decode_fn=decode,
        is_enum=is_enum, header=(b"E" if is_enum else b"O") + _name(name),
        field_names=tuple(map(_name, fields or ())))
    _BY_NAME[name] = entry
    _BY_TYPE[cls] = entry
    return cls


def _validate_against_manifest(cls: type,
                               fields: tuple[str, ...] | None,
                               is_enum: bool, has_hooks: bool) -> None:
    """Enforce the closed universe for first-party classes.

    Only classes defined under the ``repro`` package are checked —
    tests and downstream embedders may register their own types without
    touching the manifest (they are outside the audited surface).
    """
    if not getattr(cls, "__module__", "").startswith("repro."):
        return
    name = cls.__name__
    if is_enum:
        if name not in WIRE_ENUMS:
            raise ValueError(
                f"enum {name} is not listed in codec.WIRE_ENUMS; the "
                "wire universe is closed — add it to the manifest")
        return
    if has_hooks and name not in WIRE_HOOKS:
        raise ValueError(
            f"hook-encoded class {name} is not listed in "
            "codec.WIRE_HOOKS; add it (and its field keys to "
            "WIRE_FIELDS)")
    listed = WIRE_FIELDS.get(name)
    if listed is None:
        raise ValueError(
            f"{name} is not listed in codec.WIRE_FIELDS; the wire "
            "universe is closed — add its field tuple to the manifest")
    if fields is not None and fields != listed:
        raise ValueError(
            f"{name} fields drifted from codec.WIRE_FIELDS: class has "
            f"{fields!r}, manifest lists {listed!r} — update the "
            "manifest in the same change as the dataclass")


def registered_names() -> tuple[str, ...]:
    """The admitted class names (stable for docs/tests)."""
    return tuple(sorted(_BY_NAME))


def _entry_for_name(name: str) -> _Registered:
    entry = _BY_NAME.get(name)
    if entry is None and name in _LAZY_MODULES:
        import importlib

        importlib.import_module(_LAZY_MODULES[name])
        entry = _BY_NAME.get(name)
    if entry is None:
        raise CodecError(f"frame names unregistered class {name!r}")
    return entry


# ----------------------------------------------------------------------
# Encoding


def _encode_str(out: bytearray, tag: bytes, text: str) -> None:
    data = text.encode("utf-8")
    out += tag
    out += _U32.pack(len(data))
    out += data


def _name(name: str) -> bytes:
    """A class or field name as it goes on the wire."""
    data = name.encode("utf-8")
    if len(data) > 0xFFFF:
        raise CodecError(f"name too long to encode ({len(data)} bytes)")
    return _U16.pack(len(data)) + data


_INT_ONLY = frozenset({int})


def _packed(value: list | tuple) -> bytes | None:
    """*value* as a column of big-endian i64s, if it is one.

    A non-empty list or tuple qualifies when every item is an exact
    ``int`` (not a ``bool``) within i64; ``struct`` does the range check.
    """
    if not value or type(value[0]) is not int \
            or set(map(type, value)) != _INT_ONLY:
        return None
    try:
        return struct.pack(f">{len(value)}q", *value)
    except struct.error:
        return None


def _encode_value(out: bytearray, value: object, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise CodecError(f"value nests deeper than {MAX_DEPTH} levels")
    kind = type(value)
    if kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            out += b"i"
            out += _I64.pack(value)
        else:
            _encode_str(out, b"I", str(value))
        return
    if kind is str:
        _encode_str(out, b"s", value)
        return
    if kind is float:
        out += b"f"
        out += _F64.pack(value)
        return
    if value is None:
        out += b"N"
        return
    if kind is bool:
        out += b"T" if value else b"F"
        return
    if kind is bytes:
        out += b"b"
        out += _U32.pack(len(value))
        out += value
        return
    if kind in (list, tuple, set, frozenset):
        tag = {list: b"l", tuple: b"t", set: b"S", frozenset: b"R"}[kind]
        if kind is list or kind is tuple:
            column = _packed(value)
            if column is not None:
                out += b"A"
                out += tag
                out += _U32.pack(len(value))
                out += column
                return
        out += tag
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(out, item, depth + 1)
        return
    if kind is dict:
        out += b"d"
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode_value(out, key, depth + 1)
            _encode_value(out, item, depth + 1)
        return
    entry = _BY_TYPE.get(kind)
    if entry is None:
        raise CodecError(
            f"type {kind.__name__!r} is not admitted to the wire codec; "
            "register() it")
    out += entry.header
    if entry.is_enum:
        _encode_value(out, value.value, depth + 1)
        return
    if entry.encode_fn is not None:
        fields = entry.encode_fn(value)
        out += _U32.pack(len(fields))
        for name, item in fields.items():
            out += _name(name)
            _encode_value(out, item, depth + 1)
        return
    out += _U32.pack(len(entry.fields))
    for name, encoded in zip(entry.fields, entry.field_names):
        out += encoded
        _encode_value(out, getattr(value, name), depth + 1)


def encode(message: object) -> bytes:
    """Encode *message* into codec bytes.

    Raises :class:`CodecError` on any value outside the closed type
    universe — encoding is exactly as restrictive as decoding, so a
    message that encodes is guaranteed to decode on a peer with the same
    registrations.
    """
    out = bytearray()
    _encode_value(out, message, 0)
    return bytes(out)


# ----------------------------------------------------------------------
# Decoding

# Tags as the ints that indexing ``bytes`` yields.
_NONE, _TRUE, _FALSE = ord("N"), ord("T"), ord("F")
_INT, _BIG_INT, _FLOAT = ord("i"), ord("I"), ord("f")
_STR, _BYTES, _PACKED = ord("s"), ord("b"), ord("A")
_LIST, _TUPLE, _SET, _FROZENSET = ord("l"), ord("t"), ord("S"), ord("R")
_DICT, _ENUM, _OBJECT = ord("d"), ord("E"), ord("O")


class _Decoder:
    """Offset reads over one frame; every read is bounds-checked first."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes) -> None:
        self.data = data if type(data) is bytes else bytes(data)
        self.pos = 0
        self.end = len(self.data)

    def skip(self, count: int) -> int:
        """Step over *count* bytes; returns the offset they start at."""
        pos = self.pos
        if count < 0 or pos + count > self.end:
            raise CodecError(
                f"truncated frame: needed {count} bytes at offset "
                f"{pos} of {self.end}")
        self.pos = pos + count
        return pos

    def u32(self) -> int:
        return _U32.unpack_from(self.data, self.skip(4))[0]

    def count(self, length: int) -> int:
        """A container count, sanity-bounded by the remaining bytes.

        Every encoded element occupies at least one byte, so a count
        exceeding the unread remainder is hostile (an allocation bomb)
        and rejected before any allocation happens.
        """
        if length > self.end - self.pos:
            raise CodecError(
                f"frame announces {length} elements with only "
                f"{self.end - self.pos} bytes left")
        return length

    def span(self, length: int, width: int = 1) -> int:
        """Step over *length* announced elements of *width* bytes each.

        Returns the offset they start at.  Like :meth:`count`, a length
        the remainder cannot hold is rejected before anything is
        allocated.
        """
        pos = self.pos
        if length * width > self.end - pos:
            raise CodecError(
                f"frame announces {length} elements with only "
                f"{self.end - pos} bytes left")
        self.pos = pos + length * width
        return pos

    def text(self) -> str:
        pos = self.span(self.u32())
        try:
            return str(self.data[pos:self.pos], "utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"invalid utf-8 in frame: {error}") from error

    def name(self) -> str:
        pos = self.span(_U16.unpack_from(self.data, self.skip(2))[0])
        try:
            return str(self.data[pos:self.pos], "utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"invalid utf-8 in frame: {error}") from error

    def value(self, depth: int) -> object:
        if depth > MAX_DEPTH:
            raise CodecError(f"frame nests deeper than {MAX_DEPTH} levels")
        pos = self.pos
        if pos >= self.end:
            self.skip(1)  # raises the truncation error
        tag = self.data[pos]
        self.pos = pos + 1
        if tag == _INT:
            return _I64.unpack_from(self.data, self.skip(8))[0]
        if tag == _STR:
            return self.text()
        if tag == _FLOAT:
            return _F64.unpack_from(self.data, self.skip(8))[0]
        if tag == _OBJECT:
            return self.instance(depth)
        if tag == _NONE:
            return None
        if tag == _TRUE:
            return True
        if tag == _FALSE:
            return False
        if tag in (_LIST, _TUPLE, _SET, _FROZENSET):
            length = self.count(self.u32())
            items = [self.value(depth + 1) for _ in range(length)]
            if tag == _LIST:
                return items
            if tag == _TUPLE:
                return tuple(items)
            try:
                return set(items) if tag == _SET else frozenset(items)
            except TypeError as error:
                raise CodecError(f"unhashable set element: {error}") \
                    from error
        if tag == _PACKED:
            container = self.data[self.skip(1)]
            if container not in (_LIST, _TUPLE):
                raise CodecError(f"unknown packed container tag "
                                 f"{bytes([container])!r}")
            length = self.u32()
            items = struct.unpack_from(f">{length}q", self.data,
                                       self.span(length, 8))
            return list(items) if container == _LIST else items
        if tag == _BYTES:
            pos = self.span(self.u32())
            return self.data[pos:self.pos]
        if tag == _DICT:
            length = self.count(self.u32())
            result = {}
            try:
                for _ in range(length):
                    key = self.value(depth + 1)
                    result[key] = self.value(depth + 1)
            except TypeError as error:
                raise CodecError(f"unhashable dict key: {error}") from error
            return result
        if tag == _BIG_INT:
            text = self.text()
            try:
                return int(text)
            except ValueError as error:
                raise CodecError(f"invalid big-integer literal: {error}") \
                    from error
        if tag == _ENUM:
            entry = _entry_for_name(self.name())
            if not entry.is_enum:
                raise CodecError(
                    f"{entry.cls.__name__!r} encoded as an enum but is not "
                    "one")
            value = self.value(depth + 1)
            try:
                return entry.cls(value)
            except ValueError as error:
                raise CodecError(f"invalid {entry.cls.__name__} value "
                                 f"{value!r}") from error
        raise CodecError(f"unknown frame tag {bytes([tag])!r} at offset "
                         f"{self.pos - 1}")

    def instance(self, depth: int) -> object:
        """The registered object after an ``O`` tag."""
        entry = _entry_for_name(self.name())
        if entry.is_enum:
            raise CodecError(
                f"{entry.cls.__name__!r} encoded as an object but is an "
                "enum")
        length = self.count(self.u32())
        fields: dict[str, object] = {}
        # Encoders write the fields in manifest order, so each name is
        # first compared with the expected one's bytes in place.
        expected = zip(entry.fields or (), entry.field_names)
        for _ in range(length):
            field_name, encoded = next(expected, (None, b""))
            if encoded and self.data.startswith(encoded, self.pos):
                self.pos += len(encoded)
            else:
                field_name = self.name()
            fields[field_name] = self.value(depth + 1)
        allowed = entry.fields
        if allowed is not None:
            unknown = fields.keys() - allowed
            if unknown:
                raise CodecError(
                    f"{entry.cls.__name__} frame carries unknown "
                    f"field(s) {sorted(unknown)}")
        try:
            if entry.decode_fn is not None:
                return entry.decode_fn(fields)
            return entry.cls(**fields)
        except CodecError:
            raise
        except Exception as error:
            # A registered class's own validation (__post_init__ etc.)
            # rejected the field values: hostile or corrupt content.
            raise CodecError(
                f"invalid {entry.cls.__name__} content: {error}") from error


def decode(data: bytes) -> object:
    """Decode one codec frame.

    Raises :class:`CodecError` — never executes embedded code, never
    over-allocates, never hangs — on anything that is not a well-formed
    frame over registered types, including pickles and truncated or
    trailing-garbage frames.
    """
    cursor = _Decoder(data)
    value = cursor.value(0)
    if cursor.pos != cursor.end:
        raise CodecError(
            f"{cursor.end - cursor.pos} trailing byte(s) after the "
            "frame payload")
    return value


# ----------------------------------------------------------------------
# The wire type universe
#
# Everything reachable from a ChunkTask (service -> worker), a
# ChunkOutcome (worker -> service) or a job submission (specs plus a
# SweepConfig).  Resume checkpoints and cache
# shipments stay opaque ``bytes`` (see the module docstring), so
# CampaignCheckpoint and the engine/population graphs are deliberately
# *not* admitted.


def _register_wire_types() -> None:
    from repro.consistency.memo import (CachedVerdict, VerdictCacheDelta,
                                        VerdictCacheState)
    from repro.core.campaign import CampaignResult, GeneratorKind
    from repro.core.config import GeneratorConfig, OperationBias
    from repro.core.program import Chromosome
    from repro.harness.parallel import (CampaignSpec, ChunkOutcome,
                                        ChunkPayload, ChunkTask,
                                        ChunkTelemetry, ShardResult,
                                        SweepConfig)
    from repro.sim.config import CacheConfig, SystemConfig, TestMemoryLayout
    from repro.sim.coverage import CoverageCollector, TransitionKey
    from repro.sim.faults import Fault
    from repro.sim.testprogram import OpKind, TestOp

    for cls in (ChunkTask, ChunkOutcome, ChunkTelemetry, ChunkPayload,
                CampaignSpec, ShardResult, CampaignResult,
                GeneratorConfig, OperationBias, Chromosome, TestOp,
                SystemConfig, CacheConfig, TestMemoryLayout,
                TransitionKey, VerdictCacheDelta, VerdictCacheState,
                CachedVerdict, SweepConfig, GeneratorKind, OpKind, Fault):
        register(cls)

    def encode_coverage(collector: CoverageCollector) -> dict:
        # Each transition is three indices into one string table.  The
        # known set is sorted, so the frame is byte-identical whatever
        # the insertion history or hash seed; counts and the run set
        # keep first-record order, which resume bit-identity needs.
        counted = tuple(collector._counts)
        known = sorted(collector._known)
        run = tuple(collector._run)
        strings = tuple(dict.fromkeys(chain.from_iterable(
            chain(counted, known, run))))
        number = {text: index for index, text in enumerate(strings)}

        def column(transitions) -> tuple[int, ...]:
            return tuple(map(number.__getitem__,
                             chain.from_iterable(transitions)))

        return {"strings": strings, "counted": column(counted),
                "counts": tuple(collector._counts.values()),
                "known": column(known), "run": column(run)}

    def decode_coverage(fields: dict) -> CoverageCollector:
        strings = fields["strings"]
        if type(strings) is not tuple or not set(map(type, strings)) <= {str}:
            raise CodecError("coverage string table holds a non-string")

        def ints(name: str) -> tuple[int, ...]:
            column = fields[name]
            if type(column) is not tuple \
                    or not set(map(type, column)) <= _INT_ONLY:
                raise CodecError(f"coverage {name!r} column is not a tuple "
                                 "of ints")
            return column

        def transitions(name: str) -> list[tuple[str, str, str]]:
            column = ints(name)
            if len(column) % 3:
                raise CodecError(f"coverage {name!r} column is not "
                                 "index triples")
            if column and (min(column) < 0 or max(column) >= len(strings)):
                raise CodecError(f"coverage {name!r} index out of range")
            texts = map(strings.__getitem__, column)
            return list(zip(texts, texts, texts))

        counted, counts = transitions("counted"), ints("counts")
        if len(counts) != len(counted):
            raise CodecError(
                f"coverage columns disagree: {len(counted)} counted "
                f"transitions, {len(counts)} counts")
        collector = CoverageCollector()
        collector._counts = dict(zip(counted, counts))
        collector._known = set(transitions("known"))
        collector._run = dict.fromkeys(transitions("run"))
        return collector

    register(CoverageCollector, WIRE_FIELDS["CoverageCollector"],
             encode=encode_coverage, decode=decode_coverage)


_register_wire_types()
