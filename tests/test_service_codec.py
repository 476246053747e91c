"""Adversarial battery for the wire codec and the service handshake.

The verification service decodes every frame it reads off a socket with
the wire codec, so that a worker (or anything that can reach the socket)
need not be trusted: decoding a frame must never execute attacker bytes,
over-allocate or hang.  This battery attacks both layers:

* the codec itself: truncations at every byte offset, trailing garbage,
  allocation bombs, depth bombs, unknown tags/classes, smuggled pickles
  (with a side-effect sentinel proving nothing ran), random byte soup —
  every case lands in the :class:`CodecError`/:class:`ProtocolError`
  taxonomy, nothing else;
* the live service's worker plane: bad/missing tokens fail the
  challenge/response handshake with :class:`AuthenticationError`, pickle
  frames thrown at a default-built service are rejected without ever
  being unpickled, and type-confused messages after a valid handshake
  drop the connection, never the service;
* the job plane: a pickle posted as a ``POST /jobs`` octet-stream body
  is a 400, never unpickled, and stores no job.
"""

import contextlib
import http.client
import json
import pickle
import socket
import threading
import time

import pytest

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness import codec
from repro.harness.codec import CodecError, MAX_DEPTH
from repro.harness.distributed import (ConnectionClosed, ProtocolError,
                                       recv_raw_frame, send_raw_frame)
from repro.harness.parallel import campaign_matrix, run_campaigns
from repro.harness.service import (AuthenticationError, SERVICE_MAGIC,
                                   SERVICE_VERSION, VerificationService,
                                   run_service_worker)
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault


def tiny_matrix(max_evaluations=4, seeds_per_cell=1):
    return campaign_matrix(
        kinds=[GeneratorKind.MCVERSI_RAND],
        faults=[Fault.SQ_NO_FIFO, None],
        generator_config=GeneratorConfig.quick(memory_kib=1, test_size=32,
                                               iterations=2,
                                               population_size=6),
        system_config=SystemConfig(),
        max_evaluations=max_evaluations,
        seeds_per_cell=seeds_per_cell, base_seed=11)


# ----------------------------------------------------------------------
# Codec round-trips


class TestRoundTrips:
    def test_primitives_and_containers(self):
        message = ("task", 7, None, True, False, -1 << 62, 1 << 100,
                   3.25, "utf-8 ✓", b"\x00\xff raw",
                   [1, [2, [3]]], {"k": (1, 2)}, {4, 5},
                   frozenset({"a"}))
        assert codec.decode(codec.encode(message)) == message

    def test_empty_containers(self):
        message = ([], (), {}, set(), frozenset(), "", b"")
        assert codec.decode(codec.encode(message)) == message

    def test_registered_dataclasses_and_enums(self):
        spec = tiny_matrix()[0]
        blob = codec.encode(("task", "job-1", spec))
        kind, job_id, back = codec.decode(blob)
        assert (kind, job_id) == ("task", "job-1")
        assert back == spec

    def test_real_shard_result_round_trips(self):
        report = run_campaigns(tiny_matrix(), workers=1)
        for shard in report.shards:
            back = codec.decode(codec.encode(shard))
            assert back.result.found == shard.result.found
            assert (back.result.evaluations_to_find
                    == shard.result.evaluations_to_find)
            assert back.spec == shard.spec

    def test_unregistered_type_refused_at_encode(self):
        class NotOnTheWire:
            pass

        with pytest.raises(CodecError, match="not admitted"):
            codec.encode(NotOnTheWire())


# ----------------------------------------------------------------------
# Hostile frames


class TestHostileFrames:
    def test_every_truncation_raises_codec_error(self):
        spec = tiny_matrix()[0]
        blob = codec.encode(("task", "job-1", spec,
                             {"nested": [1, 2.5, b"bytes", None]}))
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                codec.decode(blob[:cut])

    def test_trailing_garbage_raises(self):
        blob = codec.encode(("heartbeat",))
        with pytest.raises(CodecError, match="trailing"):
            codec.decode(blob + b"\x00")

    def test_allocation_bomb_rejected_before_allocating(self):
        # A list announcing 4 billion elements in a 5-byte frame must be
        # rejected by the bounds check, not by the OOM killer.
        bomb = b"l" + (0xFFFFFFFF).to_bytes(4, "big")
        started = time.monotonic()
        with pytest.raises(CodecError, match="elements"):
            codec.decode(bomb)
        assert time.monotonic() - started < 1.0

    def test_string_length_bomb_rejected(self):
        bomb = b"s" + (0xFFFFFFFF).to_bytes(4, "big") + b"hi"
        with pytest.raises(CodecError):
            codec.decode(bomb)

    def test_depth_bomb_hits_depth_cap_not_the_stack(self):
        one_element_list = b"l" + (1).to_bytes(4, "big")
        bomb = one_element_list * (MAX_DEPTH * 4) + b"N"
        with pytest.raises(CodecError, match="nests deeper"):
            codec.decode(bomb)

    def test_unknown_class_name_rejected(self):
        name = b"EvilGadget"
        frame = (b"O" + len(name).to_bytes(2, "big") + name
                 + (0).to_bytes(4, "big"))
        with pytest.raises(CodecError, match="unregistered class"):
            codec.decode(frame)

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown frame tag"):
            codec.decode(b"Z")

    def test_invalid_utf8_rejected(self):
        frame = b"s" + (2).to_bytes(4, "big") + b"\xff\xfe"
        with pytest.raises(CodecError, match="utf-8"):
            codec.decode(frame)

    def test_random_byte_soup_always_codec_error(self):
        import random

        rng = random.Random(0xC0DEC)
        for _ in range(500):
            soup = rng.randbytes(rng.randint(1, 64))
            # CodecError is the only acceptable failure mode.
            with contextlib.suppress(CodecError):
                codec.decode(soup)

    def test_object_frame_with_unknown_field_rejected(self):
        # A hand-built ChunkPayload frame smuggling an extra "__class__"
        # field: the field whitelist must reject it before the
        # constructor ever sees it.
        def name(text):
            return len(text).to_bytes(2, "big") + text.encode()

        frame = (b"O" + name("ChunkPayload") + (2).to_bytes(4, "big")
                 + name("data") + b"b" + (1).to_bytes(4, "big") + b"x"
                 + name("__class__") + b"N")
        with pytest.raises(CodecError, match="unknown field"):
            codec.decode(frame)


# ----------------------------------------------------------------------
# Pickle smuggling


SENTINEL_HITS = []


def _sentinel(*args):  # pragma: no cover - must never run
    SENTINEL_HITS.append(args)
    return None


class _PickleBomb:
    """Pickles to a call of :func:`_sentinel`; decoding must never fire it."""

    def __reduce__(self):
        return (_sentinel, ("pwned",))


class TestPickleSmuggling:
    def setup_method(self):
        SENTINEL_HITS.clear()

    def test_raw_pickle_never_deserialized(self):
        bomb = pickle.dumps(_PickleBomb())
        with pytest.raises(CodecError):
            codec.decode(bomb)
        assert SENTINEL_HITS == []

    def test_pickle_inside_bytes_field_stays_inert(self):
        # Opaque bytes fields (checkpoint payloads, cache shipments) may
        # legitimately carry pickle bytes — they must come back as plain
        # bytes, never be unpickled by the decoder.
        bomb = pickle.dumps(_PickleBomb())
        back = codec.decode(codec.encode({"payload": bomb}))
        assert back == {"payload": bomb}
        assert SENTINEL_HITS == []

    def test_all_pickle_protocols_rejected(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            bomb = pickle.dumps(_PickleBomb(), protocol=protocol)
            with pytest.raises(CodecError):
                codec.decode(bomb)
        assert SENTINEL_HITS == []


# ----------------------------------------------------------------------
# Live-service handshake and frame abuse


@pytest.fixture
def restricted_service(tmp_path):
    service = VerificationService(tmp_path / "store.sqlite",
                                  token="s3cret", handshake_timeout=2.0,
                                  start_http=False)
    yield service
    if not service.crashed:
        service.close()


def _connect(service):
    sock = socket.create_connection(service.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _read_challenge(sock):
    challenge = codec.decode(recv_raw_frame(sock, 1 << 20))
    assert challenge[0] == "challenge" and challenge[1] == SERVICE_MAGIC
    return challenge


def _wait_for(predicate, timeout=5.0):
    """Poll a cross-thread counter; the handler thread may lag the client."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _drained(sock):
    """True once the peer closed the connection (EOF within timeout)."""
    try:
        while True:
            data = recv_raw_frame(sock, 1 << 20)
            del data
    except (ConnectionClosed, ProtocolError, OSError):
        return True


class TestServiceHandshake:
    def test_wrong_token_is_authentication_error(self, restricted_service):
        with pytest.raises(AuthenticationError, match="authentication"):
            run_service_worker(restricted_service.address,
                               token="wrong-token")
        assert _wait_for(lambda: restricted_service.auth_failures == 1)

    def test_missing_token_is_authentication_error(self, restricted_service):
        with pytest.raises(AuthenticationError):
            run_service_worker(restricted_service.address, token=None)
        assert _wait_for(lambda: restricted_service.auth_failures == 1)

    def test_service_survives_auth_failures(self, restricted_service):
        for _ in range(3):
            with pytest.raises(AuthenticationError):
                run_service_worker(restricted_service.address,
                                   token="nope")
        assert _wait_for(lambda: restricted_service.auth_failures == 3)
        # A correctly-authenticated worker still gets in and drains
        # cleanly when the service shuts down.
        done = threading.Event()

        def good_worker():
            run_service_worker(restricted_service.address, token="s3cret")
            done.set()

        thread = threading.Thread(target=good_worker, daemon=True)
        thread.start()
        time.sleep(0.3)
        assert restricted_service.active_workers == 1
        restricted_service.close()
        thread.join(timeout=5.0)
        assert done.is_set()

    def test_pickle_hello_to_restricted_service_never_unpickled(
            self, restricted_service):
        SENTINEL_HITS.clear()
        sock = _connect(restricted_service)
        try:
            # Read the challenge without decoding it: the bomb is the
            # peer's first frame whatever the service speaks.
            recv_raw_frame(sock, 1 << 20)
            send_raw_frame(sock, pickle.dumps(_PickleBomb()), 1 << 20)
            assert _drained(sock)
        finally:
            sock.close()
        assert SENTINEL_HITS == []
        assert _wait_for(
            lambda: restricted_service.stats.disconnects == 1)

    def test_type_confused_hello_rejected(self, restricted_service):
        for frame in ({"hello": 1}, ("hello",), 42,
                      ("hello", "wrong-magic", SERVICE_VERSION, "w", ""),
                      ("hello", SERVICE_MAGIC, 999, "w", "")):
            sock = _connect(restricted_service)
            try:
                _read_challenge(sock)
                send_raw_frame(sock, codec.encode(frame), 1 << 20)
                assert _drained(sock)
            finally:
                sock.close()
        # Wrong shape / magic / version are protocol errors, not auth
        # failures; the service survives them all.
        assert _wait_for(
            lambda: restricted_service.stats.disconnects == 5)
        assert restricted_service.auth_failures == 0

    def test_truncated_frame_then_eof_drops_connection(
            self, restricted_service):
        sock = _connect(restricted_service)
        try:
            _read_challenge(sock)
            sock.sendall(b"\x00\x00\x00")  # partial length prefix
            sock.shutdown(socket.SHUT_WR)
            assert _drained(sock)
        finally:
            sock.close()

    def test_oversized_frame_header_drops_connection(
            self, restricted_service):
        sock = _connect(restricted_service)
        try:
            _read_challenge(sock)
            sock.sendall((1 << 62).to_bytes(8, "big"))
            assert _drained(sock)
        finally:
            sock.close()

    def test_garbage_after_valid_handshake_drops_connection_only(
            self, tmp_path):
        service = VerificationService(tmp_path / "open.sqlite",
                                      handshake_timeout=2.0,
                                      start_http=False)
        try:
            sock = _connect(service)
            try:
                challenge = _read_challenge(sock)
                del challenge
                send_raw_frame(
                    sock,
                    codec.encode(("hello", SERVICE_MAGIC, SERVICE_VERSION,
                                  "confused", "")), 1 << 20)
                welcome = codec.decode(recv_raw_frame(sock, 1 << 20))
                assert welcome == ("welcome", SERVICE_MAGIC,
                                   SERVICE_VERSION)
                send_raw_frame(sock, codec.encode("not-a-tuple"), 1 << 20)
                assert _drained(sock)
            finally:
                sock.close()
            assert _wait_for(lambda: service.stats.disconnects == 1)
            # The service is still fully operational afterwards.
            job_id = service.submit_job(tiny_matrix())
            assert service.job_status(job_id)["state"] == "running"
        finally:
            service.close()


# ----------------------------------------------------------------------
# Job-plane body abuse


def test_pickle_job_body_is_400_and_never_unpickled(tmp_path):
    SENTINEL_HITS.clear()
    service = VerificationService(tmp_path / "http.sqlite", token="s3cret")
    try:
        host, port = service.http_address
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            connection.request(
                "POST", "/jobs", body=pickle.dumps(_PickleBomb()),
                headers={"Content-Type": "application/octet-stream",
                         "Authorization": "Bearer s3cret"})
            response = connection.getresponse()
            status, body = response.status, json.loads(response.read())
        finally:
            connection.close()
        assert SENTINEL_HITS == []
        assert status == 400
        assert "malformed job body" in body["error"]
        assert service.store.jobs() == []
        assert service.job_ids() == []
    finally:
        service.close()


# ----------------------------------------------------------------------
# Packed int columns and the table-coded coverage frame


def _u32(value):
    return value.to_bytes(4, "big")


def _object_frame(class_name, fields):
    """A hand-built ``O`` frame whose field values are codec-encoded."""
    def name(text):
        return len(text).to_bytes(2, "big") + text.encode()

    return (b"O" + name(class_name) + _u32(len(fields))
            + b"".join(name(key) + codec.encode(value)
                       for key, value in fields.items()))


def seeded_collector(seed):
    """A collector with declared, merged and per-run transitions."""
    import random

    from repro.sim.coverage import CoverageCollector, TransitionKey

    rng = random.Random(seed)

    def transition():
        return (rng.choice(("L1", "L2", "L1_TSOCC")), f"S{rng.randrange(7)}",
                f"E{rng.randrange(9)}")

    collector = CoverageCollector()
    collector.declare(TransitionKey(*transition()) for _ in range(20))
    other = CoverageCollector()
    for _ in range(60):
        other.record(*transition())
    for _ in range(3):
        collector.begin_run()
        for _ in range(rng.randrange(20, 120)):
            collector.record(*transition())
        collector.merge(other)
    return collector


def _coverage_fields(seed=1):
    from repro.sim.coverage import CoverageCollector

    entry = codec._BY_TYPE[CoverageCollector]
    return entry.encode_fn(seeded_collector(seed))


class TestPackedColumns:
    def test_int_sequences_pack_and_keep_their_type(self):
        for value in ([1, -2, 3], (1 << 62, -(1 << 63), (1 << 63) - 1)):
            frame = codec.encode(value)
            assert frame[:2] == b"A" + (b"l" if type(value) is list
                                         else b"t")
            assert len(frame) == 6 + 8 * len(value)
            back = codec.decode(frame)
            assert back == value and type(back) is type(value)

    def test_only_exact_i64_ints_pack(self):
        for value in ([], (), [True, 1], [1, 2.0], [1, None],
                      [1, 1 << 63], (-(1 << 63) - 1,)):
            frame = codec.encode(value)
            assert frame[:1] != b"A"
            back = codec.decode(frame)
            assert back == value and type(back) is type(value)
            assert [type(item) for item in back] == [type(item)
                                                     for item in value]

    def test_packed_column_truncated_at_every_byte(self):
        blob = codec.encode(("head", list(range(-5, 40)), (7, 8), "tail"))
        assert blob.count(b"Al") == 1 and blob.count(b"At") == 1
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                codec.decode(blob[:cut])

    def test_count_overrunning_its_width_rejected_before_allocating(self):
        # 64 bytes left would hold 64 one-byte elements but only 8 packed
        # ints: a count of 32 must fail on its width.
        frame = b"Al" + _u32(32) + bytes(64)
        with pytest.raises(CodecError, match="32 elements"):
            codec.decode(frame)
        started = time.monotonic()
        with pytest.raises(CodecError, match="elements"):
            codec.decode(b"At" + _u32(0xFFFFFFFF) + bytes(16))
        assert time.monotonic() - started < 1.0

    def test_unknown_packed_container_rejected(self):
        for container in (b"S", b"R", b"d", b"A", b"\x00"):
            with pytest.raises(CodecError, match="packed container"):
                codec.decode(b"A" + container + _u32(1) + bytes(8))


class TestCoverageFrames:
    def test_well_formed_fields_decode(self):
        frame = _object_frame("CoverageCollector", _coverage_fields())
        collector = codec.decode(frame)
        assert codec.encode(collector) == frame

    @pytest.mark.parametrize("column", ["counted", "known", "run"])
    @pytest.mark.parametrize("where", ["negative", "past-the-table"])
    def test_out_of_range_index_rejected(self, column, where):
        fields = _coverage_fields()
        bad = -1 if where == "negative" else len(fields["strings"])
        fields[column] = (bad, *fields[column][1:])
        with pytest.raises(CodecError, match="index out of range"):
            codec.decode(_object_frame("CoverageCollector", fields))

    @pytest.mark.parametrize("entry", [5, None, b"L1", ("L1",), 1.5])
    def test_non_str_string_table_entry_rejected(self, entry):
        fields = _coverage_fields()
        strings = fields["strings"]
        fields["strings"] = (*strings[:1], entry, *strings[2:])
        with pytest.raises(CodecError, match="non-string"):
            codec.decode(_object_frame("CoverageCollector", fields))

    @pytest.mark.parametrize("column", ["counted", "known", "run"])
    def test_column_not_index_triples_rejected(self, column):
        fields = _coverage_fields()
        fields[column] = fields[column][:-1]
        with pytest.raises(CodecError, match="triples"):
            codec.decode(_object_frame("CoverageCollector", fields))

    @pytest.mark.parametrize("change", [-1, 1])
    def test_counts_of_another_width_rejected(self, change):
        fields = _coverage_fields()
        counts = fields["counts"]
        fields["counts"] = counts[:-1] if change < 0 else (*counts, 1)
        with pytest.raises(CodecError, match="columns disagree"):
            codec.decode(_object_frame("CoverageCollector", fields))

    @pytest.mark.parametrize("column", ["counted", "counts", "known", "run"])
    @pytest.mark.parametrize("bad", [[0, 1, 2], (0, 1.0, 2), (0, True, 2),
                                     "012"])
    def test_column_that_is_not_an_int_tuple_rejected(self, column, bad):
        fields = _coverage_fields()
        fields[column] = bad
        with pytest.raises(CodecError, match="not a tuple of ints"):
            codec.decode(_object_frame("CoverageCollector", fields))

    def test_missing_column_rejected(self):
        fields = _coverage_fields()
        del fields["run"]
        with pytest.raises(CodecError, match="invalid CoverageCollector"):
            codec.decode(_object_frame("CoverageCollector", fields))


class TestCoverageRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_keeps_counts_known_and_run_order(self, seed):
        original = seeded_collector(seed)
        back = codec.decode(codec.encode(original))
        assert list(back._counts.items()) == list(original._counts.items())
        assert back._known == original._known
        assert list(back._run) == list(original._run)
        assert all(type(transition) is tuple
                   for transition in (*back._counts, *back._known,
                                      *back._run))

    def test_bytes_identical_under_another_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        tests = Path(__file__).resolve().parent
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(tests)!r})\n"
            "from repro.harness.codec import encode\n"
            "from test_service_codec import seeded_collector\n"
            "print(' '.join(encode(seeded_collector(seed)).hex()\n"
            "               for seed in range(6)))\n")
        env = dict(os.environ, PYTHONHASHSEED="4242",
                   PYTHONPATH=str(tests.parent / "src"))
        other = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True)
        here = " ".join(codec.encode(seeded_collector(seed)).hex()
                        for seed in range(6))
        assert other.stdout.split() == here.split()


def test_previous_version_worker_refused_at_handshake(restricted_service):
    sock = _connect(restricted_service)
    try:
        _read_challenge(sock)
        send_raw_frame(sock, codec.encode(
            ("hello", SERVICE_MAGIC, SERVICE_VERSION - 1, "old", "")),
            1 << 20)
        reply = codec.decode(recv_raw_frame(sock, 1 << 20))
        assert reply == ("error", "protocol version mismatch: service "
                         f"speaks {SERVICE_VERSION}, worker speaks "
                         f"{SERVICE_VERSION - 1}")
        assert _drained(sock)
    finally:
        sock.close()
    assert restricted_service.auth_failures == 0
