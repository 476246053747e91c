"""Tests for the worker plane: sweeps served as jobs on a service.

Every sweep on TCP workers is a job on a
:class:`~repro.harness.service.VerificationService`, the one TCP
coordinator.  Layers:

* framing unit tests for :func:`send_raw_frame` / :func:`recv_raw_frame`
  and the wire codec the worker plane speaks: truncated frames,
  oversized frames, stalls and connection drops mid-message raise clean
  :class:`ProtocolError`\\ s instead of hanging;
* handshake: bad, mismatched and parent-era worker hellos are refused
  cleanly, and peers that never finish a hello are dropped;
* worker-count resolution and ``service worker --workers N``;
* loopback integration: a job served to real ``service worker``
  subprocesses reproduces the ``workers=1`` serial sweep bit for bit;
* chaos: a worker SIGKILLed or gone silent while holding a lease
  forfeits its chunk, which is re-queued exactly once; a poison chunk
  fails the job; an ephemeral sweep whose workers all die fails loudly;
  external workers join mid-sweep or before the service binds.
"""

import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness import codec, parallel
from repro.harness import service as service_module
from repro.harness.distributed import (MAX_CHUNK_REQUEUES, ConnectionClosed,
                                       FrameTooLargeError, ProtocolError,
                                       TruncatedFrameError, format_address,
                                       parse_address, reap_workers,
                                       recv_raw_frame, send_raw_frame)
from repro.harness.parallel import (SweepConfig, campaign_matrix,
                                    default_workers, execute_chunk_task,
                                    run_campaigns)
from repro.harness.service import (SERVICE_MAGIC, SERVICE_VERSION,
                                   VerificationService, _ServiceLease,
                                   _start_worker_threads,
                                   resolve_worker_count, run_service_sweep,
                                   run_service_worker,
                                   spawn_service_workers)
from repro.harness.store import JOB_FAILED, JOB_RUNNING
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault

CHUNKED = SweepConfig(chunk_evaluations=2)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_config():
    return GeneratorConfig.quick(memory_kib=1, test_size=32, iterations=2,
                                 population_size=6)


def tiny_matrix(faults=(Fault.SQ_NO_FIFO, None), seeds_per_cell=2,
                max_evaluations=5, base_seed=7,
                kinds=(GeneratorKind.MCVERSI_RAND,)):
    return campaign_matrix(kinds=list(kinds), faults=list(faults),
                           generator_config=tiny_config(),
                           system_config=SystemConfig(),
                           max_evaluations=max_evaluations,
                           seeds_per_cell=seeds_per_cell,
                           base_seed=base_seed)


def outcomes(report):
    return [(shard.result.found, shard.result.evaluations_to_find)
            for shard in report.shards]


def send(sock, message):
    send_raw_frame(sock, codec.encode(message))


def recv(sock):
    return codec.decode(recv_raw_frame(sock))


def handshake(sock, name):
    """Answer a service challenge as an untokened worker."""
    challenge = recv(sock)
    assert challenge[:3] == ("challenge", SERVICE_MAGIC, SERVICE_VERSION)
    send(sock, ("hello", SERVICE_MAGIC, SERVICE_VERSION, name, ""))
    assert recv(sock) == ("welcome", SERVICE_MAGIC, SERVICE_VERSION)


def free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def lease_holders(service):
    with service._lock:
        return {lease.worker for lease in service._leases.values()}


def finish(service, job_id, timeout=120.0):
    wait_for(lambda: service.job_status(job_id)["state"] != JOB_RUNNING,
             timeout)
    return service.job_report(job_id)


@pytest.fixture
def make_service(tmp_path):
    """Build in-process services (no HTTP) that are closed afterwards."""
    services = []

    def make(**options):
        options.setdefault("start_http", False)
        service = VerificationService(
            tmp_path / f"store-{len(services)}.sqlite", **options)
        services.append(service)
        return service

    yield make
    for service in services:
        service.close()


# ----------------------------------------------------------------------
# Framing unit tests


@pytest.fixture
def sock_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip(self, sock_pair):
        left, right = sock_pair
        message = ("task", {"numbers": list(range(100))})
        send(left, message)
        assert recv(right) == message

    def test_multiple_frames_in_sequence(self, sock_pair):
        left, right = sock_pair
        for index in range(5):
            send(left, ("heartbeat", index))
        for index in range(5):
            assert recv(right) == ("heartbeat", index)

    def test_clean_close_raises_connection_closed(self, sock_pair):
        left, right = sock_pair
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_raw_frame(right)

    def test_truncated_header_raises(self, sock_pair):
        left, right = sock_pair
        left.sendall(b"\x00\x00\x00")  # partial length prefix, then EOF
        left.close()
        with pytest.raises(TruncatedFrameError, match="mid-message"):
            recv_raw_frame(right)

    def test_connection_drop_mid_payload_raises(self, sock_pair):
        left, right = sock_pair
        left.sendall(struct.pack(">Q", 1 << 16) + b"x" * 100)
        left.close()
        with pytest.raises(TruncatedFrameError, match="mid-message"):
            recv_raw_frame(right)

    def test_mid_frame_stall_raises_instead_of_hanging(self, sock_pair):
        left, right = sock_pair
        right.settimeout(0.05)
        left.sendall(b"\x00\x00\x00\x00")  # partial header, then silence
        with pytest.raises(TruncatedFrameError, match="stalled"):
            recv_raw_frame(right, stall_timeout=0.3)

    def test_oversized_frame_announcement_rejected(self, sock_pair):
        left, right = sock_pair
        left.sendall(struct.pack(">Q", 1 << 40))
        with pytest.raises(FrameTooLargeError, match="announced"):
            recv_raw_frame(right, max_frame_bytes=1 << 20)

    def test_oversized_send_refused_locally(self, sock_pair):
        left, _ = sock_pair
        with pytest.raises(FrameTooLargeError, match="refusing to send"):
            send_raw_frame(left, b"x" * 4096, max_frame_bytes=64)

    def test_malformed_payload_raises_protocol_error(self, sock_pair):
        left, right = sock_pair
        send_raw_frame(left, b"\x80not a codec frame")
        with pytest.raises(ProtocolError, match="unknown frame tag"):
            recv(right)


class TestAddresses:
    def test_parse_forms(self):
        assert parse_address(None) == ("127.0.0.1", 0)
        assert parse_address("10.0.0.5:7777") == ("10.0.0.5", 7777)
        assert parse_address(":7777") == ("127.0.0.1", 7777)
        assert parse_address(("host", 12)) == ("host", 12)
        assert format_address(("h", 1)) == "h:1"

    def test_parse_bracketed_ipv6(self):
        """Brackets are stripped: sockets want the bare literal."""
        assert parse_address("[::1]:8080") == ("::1", 8080)
        assert parse_address("[fe80::1%eth0]:7777") == ("fe80::1%eth0", 7777)
        assert parse_address(
            "[2001:db8::42]:80") == ("2001:db8::42", 80)

    def test_format_rebrackets_ipv6(self):
        assert format_address(("::1", 8080)) == "[::1]:8080"
        assert parse_address(format_address(("::1", 8080))) == ("::1", 8080)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address(42)

    def test_parse_rejects_malformed_ipv6(self):
        with pytest.raises(ValueError, match=r"\[ipv6\]:port"):
            parse_address("[::1]")  # bracketed but portless
        with pytest.raises(ValueError, match=r"\[ipv6\]:port"):
            parse_address("[::1]:")  # empty port
        with pytest.raises(ValueError, match="ambiguous"):
            parse_address("::1:8080")  # unbracketed multi-colon

    def test_ipv6_loopback_round_trip(self, make_service):
        """A service bound via the bracketed form is reachable."""
        service = make_service(bind="[::1]:0")
        host = service.address[0]
        assert host == "::1"
        with socket.create_connection((host, service.address[1]),
                                      timeout=5) as sock:
            handshake(sock, "v6-worker")


# ----------------------------------------------------------------------
# Handshake


class TestHandshake:
    def test_version_mismatch_hello_is_rejected_cleanly(self, make_service):
        service = make_service()
        with socket.create_connection(service.address, timeout=5) as sock:
            assert recv(sock)[0] == "challenge"
            send(sock, ("hello", SERVICE_MAGIC, SERVICE_VERSION + 1,
                        "time-traveller", ""))
            reply = recv(sock)
            assert reply[0] == "error"
            assert "version mismatch" in reply[1]

    def test_version_5_worker_is_refused(self, make_service):
        """Version 6 dropped the transport fields from ``SweepConfig``'s
        wire manifest; a worker of the release before speaks 5."""
        assert SERVICE_VERSION == 6
        service = make_service()
        with socket.create_connection(service.address, timeout=5) as sock:
            assert recv(sock)[0] == "challenge"
            send(sock, ("hello", SERVICE_MAGIC, 5, "parent-worker", ""))
            assert recv(sock) == (
                "error", "protocol version mismatch: service speaks 6, "
                "worker speaks 5")
        wait_for(lambda: service.active_workers == 0, timeout=5.0)

    def test_non_hello_peer_is_rejected(self, make_service):
        service = make_service()
        with socket.create_connection(service.address, timeout=5) as sock:
            assert recv(sock)[0] == "challenge"
            send(sock, "GET / HTTP/1.1")
            assert recv(sock)[0] == "error"

    def test_parent_era_worker_is_refused_and_sweep_still_matches_serial(
            self, make_service):
        """A worker of the deleted single-sweep protocol gets a clean no.

        It speaks first with the old pickled 4-tuple hello; the service
        answers with its challenge, then drops the connection without
        unpickling the hello (EOF, no hang), and the spawned workers
        still finish the job bit-identically.
        """
        specs = tiny_matrix()
        serial = run_campaigns(specs, workers=1)
        service = make_service()
        job_id = service.submit_job(specs, CHUNKED)
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.settimeout(5.0)
            send_raw_frame(sock, pickle.dumps(
                ("hello", "mcversi-distributed", 3, "old-worker")))
            replies = []
            with pytest.raises(ConnectionClosed):
                while True:
                    replies.append(recv(sock))
        assert [reply[0] for reply in replies] == ["challenge"]
        processes = spawn_service_workers(service.address, 2)
        try:
            report = finish(service, job_id)
        finally:
            service.close()
            reap_workers(processes)
        assert outcomes(report) == outcomes(serial)
        assert report.coverage.global_counts == serial.coverage.global_counts

    def test_worker_rejects_mismatched_service(self):
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()[:2]

        def fake_service():
            connection, _ = listener.accept()
            with connection:
                send(connection, ("challenge", SERVICE_MAGIC,
                                  SERVICE_VERSION + 9, "nonce"))
                with pytest.raises(ProtocolError):
                    recv(connection)

        thread = threading.Thread(target=fake_service, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="version mismatch"):
                run_service_worker(address, name="w")
        finally:
            listener.close()
            thread.join(timeout=5)

    def test_silent_peer_is_dropped_after_handshake_timeout(
            self, make_service):
        """A connection that never sends a hello must not pin a handler."""
        service = make_service(handshake_timeout=0.6)
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.settimeout(5.0)
            assert recv(sock)[0] == "challenge"
            # Send nothing: the service drops us, observable as EOF, and
            # stops counting us as an active worker.
            with pytest.raises(ConnectionClosed):
                recv(sock)
        wait_for(lambda: service.active_workers == 0, timeout=5.0)

    def test_trickling_peer_dropped_after_mid_frame_stall(
            self, make_service):
        """A peer that starts a frame and stalls is dropped, not served."""
        service = make_service(handshake_timeout=0.5)
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.settimeout(5.0)
            assert recv(sock)[0] == "challenge"
            sock.sendall(b"\x00\x00\x00")  # begin a frame, never finish
            with pytest.raises((ProtocolError, OSError)):
                recv(sock)  # the service closes on us
        wait_for(lambda: service.active_workers == 0, timeout=5.0)

    def test_lease_timeout_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            VerificationService(tmp_path / "store.sqlite",
                                lease_timeout=0.0, start_http=False)


# ----------------------------------------------------------------------
# Worker-count resolution (REPRO_WORKERS) and the worker CLI


class TestWorkerCount:
    def test_default_workers_uses_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(parallel, "available_cpus", lambda: 6)
        assert default_workers() == 6

    def test_env_override_respected(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_override_capped_at_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
        monkeypatch.setenv("REPRO_WORKERS", "64")
        assert default_workers() == 4

    @pytest.mark.parametrize("value", ["zero", "", "0", "-2", "1.5"])
    def test_invalid_env_override(self, monkeypatch, value):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
        monkeypatch.setenv("REPRO_WORKERS", value)
        if value.strip() == "":
            assert default_workers() == 4  # unset/empty: fall back
        else:
            with pytest.raises(ValueError, match="REPRO_WORKERS"):
                default_workers()

    def test_worker_cli_resolution(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_worker_count(None) == 2       # env honoured
        assert resolve_worker_count(5) == 5          # explicit flag wins
        with pytest.raises(ValueError):
            resolve_worker_count(0)

    def test_worker_cli_runs_n_processes(self, make_service):
        """``--workers 2`` runs two workers; no flag reads REPRO_WORKERS."""
        service = make_service()

        def worker_cli(name, repro_workers, *flags):
            environment = dict(os.environ, PYTHONPATH="src",
                               REPRO_WORKERS=repro_workers)
            return subprocess.Popen(
                [sys.executable, "-m", "repro.harness.service", "worker",
                 "--connect", format_address(service.address),
                 "--name", name, *flags],
                cwd=REPO_ROOT, env=environment,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

        # REPRO_WORKERS=2 is capped at the CPUs the worker may use.
        from_env = min(2, parallel.available_cpus())
        expected = {"flag-0", "flag-1", "single"} | (
            {f"env-{index}" for index in range(from_env)}
            if from_env > 1 else {"env"})
        processes = [worker_cli("flag", "1", "--workers", "2"),
                     worker_cli("single", "1"),
                     worker_cli("env", "2")]
        try:
            wait_for(lambda: set(service.stats.workers_seen) == expected,
                     timeout=60.0)
            specs = tiny_matrix(faults=(None,), seeds_per_cell=1,
                                max_evaluations=2)
            report = finish(service, service.submit_job(specs, CHUNKED))
            serial = run_campaigns(specs, workers=1, config=CHUNKED)
            assert outcomes(report) == outcomes(serial)
        finally:
            service.close()
            reap_workers(processes, timeout=30.0)
        assert [process.returncode for process in processes] == [0, 0, 0]


# ----------------------------------------------------------------------
# Loopback integration


class TestLoopbackSweep:
    def test_process_workers_match_serial_bit_for_bit(self, make_service):
        specs = tiny_matrix()
        serial = run_campaigns(specs, workers=1)
        service = make_service()
        job_id = service.submit_job(specs, CHUNKED)
        processes = spawn_service_workers(service.address, 2)
        try:
            distributed = finish(service, job_id)
        finally:
            service.close()
            reap_workers(processes)
        assert outcomes(serial) == outcomes(distributed)
        assert (serial.coverage.global_counts
                == distributed.coverage.global_counts)
        # Matrix order is restored regardless of completion order.
        assert [shard.spec.seed for shard in distributed.shards] == \
            [spec.seed for spec in specs]

    def test_empty_sweep_is_refused(self):
        with pytest.raises(ValueError, match="at least one CampaignSpec"):
            run_service_sweep([], workers=1)

    def test_shard_failure_propagates_from_a_worker(self, make_service):
        bad = parallel.CampaignSpec(
            kind=GeneratorKind.DIRECTED, generator_config=tiny_config(),
            system_config=SystemConfig(), fault=None,
            seed=1, max_evaluations=2)  # missing chromosome
        with pytest.raises(RuntimeError, match="failed in a worker"):
            run_service_sweep([bad, bad], workers=1)
        service = make_service()
        job_id = service.submit_job([bad, bad])
        processes = spawn_service_workers(service.address, 1)
        try:
            status = service.wait_job(job_id, timeout=60.0)
        finally:
            service.close()
            reap_workers(processes)
        assert status["state"] == JOB_FAILED
        assert "failed in a worker" in status["error"]


# ----------------------------------------------------------------------
# Chaos / fault tolerance


class TestChaos:
    def test_killed_worker_chunk_requeued_exactly_once(self, make_service):
        """SIGKILL mid-chunk: no loss, no duplication.

        A real ``service worker`` subprocess is frozen (SIGSTOP) while
        it holds a lease — checked again after the service has drained
        any frame already sent — and then SIGKILLed.  The service must
        re-queue that chunk exactly once, and healthy workers must
        finish the sweep bit-identically to the serial run.
        """
        specs = tiny_matrix(seeds_per_cell=3, max_evaluations=6)
        serial = run_campaigns(specs, workers=1)
        service = make_service(lease_timeout=20.0)
        job_id = service.submit_job(specs, CHUNKED)
        victim = spawn_service_workers(service.address, 1,
                                       name_prefix="victim")[0]
        processes = [victim]
        try:
            while True:
                wait_for(lambda: "victim-0" in lease_holders(service))
                victim.send_signal(signal.SIGSTOP)
                time.sleep(0.3)  # let the service fold in-flight frames
                if "victim-0" in lease_holders(service):
                    break
                victim.send_signal(signal.SIGCONT)
            victim.kill()
            victim.wait(timeout=10)
            processes += spawn_service_workers(service.address, 2,
                                               name_prefix="healthy")
            report = finish(service, job_id)
        finally:
            service.close()
            reap_workers(processes)
        assert outcomes(report) == outcomes(serial)
        assert report.coverage.global_counts == serial.coverage.global_counts
        assert service.stats.total_requeues == 1
        assert max(service.stats.requeues.values()) == 1
        assert service.stats.disconnects >= 1

    def test_silent_lease_holder_loses_its_chunk(self, make_service):
        """A worker that takes a task and stops heartbeating forfeits it."""
        specs = tiny_matrix(seeds_per_cell=2, max_evaluations=6, base_seed=3)
        serial = run_campaigns(specs, workers=1, config=CHUNKED)
        service = make_service(lease_timeout=1.0)
        job_id = service.submit_job(specs, CHUNKED)
        threads = []
        try:
            with socket.create_connection(service.address,
                                          timeout=5) as sock:
                sock.settimeout(5.0)
                handshake(sock, "silent")
                send(sock, ("request",))
                kind, task_job, task = recv(sock)
                assert (kind, task_job) == ("task", job_id)
                wait_for(lambda: service.stats.requeues[task.index] == 1,
                         timeout=10.0)
                # Reporting after the lease is gone: dropped as stale.
                send(sock, ("result", job_id, execute_chunk_task(task)))
                wait_for(lambda: service.stats.stale_results == 1)
                threads = _start_worker_threads(service.address, 2, None)
                report = finish(service, job_id)
        finally:
            service.close()
            for thread in threads:
                thread.join(timeout=10.0)
        assert outcomes(report) == outcomes(serial)
        assert service.stats.total_requeues == 1

    def test_poison_chunk_fails_job_after_requeue_cap(self, make_service):
        """A chunk that keeps losing workers fails its job, not livelocks.

        White-box: forfeit the same chunk's lease past
        MAX_CHUNK_REQUEUES (as if every worker that touched it died) and
        assert the job fails with the shard's identity.
        """
        specs = tiny_matrix(faults=[Fault.SQ_NO_FIFO], seeds_per_cell=1)
        service = make_service(lease_timeout=30.0)
        job_id = service.submit_job(specs)
        scheduler = service._jobs[job_id].scheduler
        task = scheduler.next_task()
        for attempt in range(MAX_CHUNK_REQUEUES + 1):
            lease = _ServiceLease(job_id=job_id, task=task, worker="doomed",
                                  deadline=0.0)
            with service._lock:
                service._leases[(job_id, task.index)] = lease
            service._forfeit(lease)
            if attempt < MAX_CHUNK_REQUEUES:
                assert service.job_status(job_id)["state"] == JOB_RUNNING
                task = scheduler.next_task()
                assert task.index == 0
        status = service.job_status(job_id)
        assert status["state"] == JOB_FAILED
        assert "poison" in status["error"]
        assert specs[0].describe() in status["error"]

    def test_all_workers_dead_fails_loudly(self, monkeypatch):
        """If every worker dies, an ephemeral sweep raises, not hangs.

        Mirrors the local pool's dead-worker detection: no worker
        survives and no connection is open, so the sweep aborts with a
        diagnosable error.
        """
        def doomed_worker(address, **_options):
            raise ProtocolError("worker died before its handshake")

        monkeypatch.setattr(service_module, "run_service_worker",
                            doomed_worker)
        specs = tiny_matrix(faults=[Fault.SQ_NO_FIFO], seeds_per_cell=1,
                            max_evaluations=3)
        with pytest.raises(RuntimeError,
                           match=r"all 2 worker\(s\) exited while 1 "
                                 r"shard\(s\) were still pending"):
            run_service_sweep(specs, workers=2, timeout=60.0)

    def test_external_worker_joining_mid_sweep_contributes(
            self, make_service):
        # Unchunked shards on the correct system each run the full
        # budget, so most of the sweep is still queued when the first
        # shard lands and the late worker joins.
        specs = tiny_matrix(faults=(None,), seeds_per_cell=8,
                            max_evaluations=24, base_seed=11)
        serial = run_campaigns(specs, workers=1)
        service = make_service()
        job_id = service.submit_job(specs)
        processes = spawn_service_workers(service.address, 1,
                                          name_prefix="worker")
        try:
            wait_for(lambda: service.job_status(job_id)["completed"] > 0,
                     timeout=120.0)
            processes += spawn_service_workers(service.address, 1,
                                               name_prefix="late")
            report = finish(service, job_id)
        finally:
            service.close()
            reap_workers(processes)
        assert outcomes(report) == outcomes(serial)
        assert set(service.stats.chunks_by_worker) == {"worker-0", "late-0"}

# ----------------------------------------------------------------------
# Drain race and bringup ordering


class TestDrainRace:
    def test_worker_connected_mid_drain_gets_clean_shutdown(
            self, make_service):
        # A connection accepted before close() begins — challenge read,
        # no hello sent yet — must receive a clean ("shutdown",) frame,
        # not an error teardown or a hang against a dead port.
        service = make_service(handshake_timeout=5.0)
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.settimeout(5.0)
            assert recv(sock)[0] == "challenge"
            closer = threading.Thread(target=service.close, daemon=True)
            closer.start()
            assert recv(sock) == ("shutdown",)
            closer.join(timeout=10.0)
            assert not closer.is_alive()

    def test_worker_told_to_shut_down_at_handshake_exits_cleanly(self):
        # A service already draining answers a hello with ("shutdown",)
        # instead of a welcome: the worker returns normally with zero
        # chunks instead of raising.
        listener = socket.create_server(("127.0.0.1", 0))

        def draining_service():
            connection, _ = listener.accept()
            with connection:
                send(connection, ("challenge", SERVICE_MAGIC,
                                  SERVICE_VERSION, "nonce"))
                assert recv(connection)[0] == "hello"
                send(connection, ("shutdown",))

        thread = threading.Thread(target=draining_service, daemon=True)
        thread.start()
        try:
            stats = run_service_worker(listener.getsockname()[:2],
                                       name="drain-prober")
        finally:
            listener.close()
            thread.join(timeout=5)
        assert stats.chunks == 0
        assert not thread.is_alive()


class TestBringupOrdering:
    def test_worker_started_before_its_service_retries_and_connects(
            self, make_service):
        # Service-started-last bringup: reserve a port, launch an
        # external worker first, then bind a service there and submit;
        # the worker's bounded connect backoff carries it through.
        port = free_port()
        specs = tiny_matrix(faults=(None,), seeds_per_cell=1,
                            max_evaluations=2)
        serial = run_campaigns(specs, workers=1)
        stats_box = {}

        def early_worker():
            stats_box["stats"] = run_service_worker(
                ("127.0.0.1", port), name="early-bird",
                connect_retries=40, connect_backoff=0.05)

        worker = threading.Thread(target=early_worker, daemon=True)
        worker.start()
        time.sleep(0.3)  # several refused connects happen in here
        service = make_service(bind=f"127.0.0.1:{port}")
        try:
            report = finish(service, service.submit_job(specs, CHUNKED))
        finally:
            service.close()
        assert outcomes(report) == outcomes(serial)
        worker.join(timeout=10.0)
        assert stats_box["stats"].chunks > 0

    def test_exhausted_retries_raise_the_underlying_oserror(self):
        with pytest.raises(OSError):
            run_service_worker(("127.0.0.1", free_port()),
                               connect_retries=1, connect_backoff=0.01)
