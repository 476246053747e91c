"""Latency battery for the service's event-driven worker plane.

The service waits on events, not on sleeps or socket timeouts:

* both ends of every worker connection set ``TCP_NODELAY``, so a small
  ``request`` right behind a large ``result`` frame is not held back by
  Nagle's algorithm until the delayed ACK;
* a drain wakes every service thread (the blocked ``accept()``, the
  lease monitor, handlers parked in a held request), so ``close()``
  returns at once instead of after a timer tick;
* a worker's ``request`` with nothing queued is held on the service's
  condition until a task appears (a re-queue included), the service
  drains or a bounded hold passes; only the bound answers
  ``("idle", 0.0)``, and the worker then re-requests.
"""

import socket
import threading
import time

import pytest

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness import codec
from repro.harness import service as service_module
from repro.harness.distributed import (DEFAULT_RESPONSE_TIMEOUT,
                                       recv_raw_frame, send_raw_frame)
from repro.harness.parallel import SweepConfig, campaign_matrix, run_campaigns
from repro.harness.service import (REQUEST_HOLD_SECONDS, SERVICE_MAGIC,
                                   SERVICE_VERSION, VerificationService,
                                   _start_worker_threads)
from repro.harness.store import JOB_DONE
from repro.sim.config import SystemConfig

CHUNKED = SweepConfig(chunk_evaluations=1)


def tiny_matrix(max_evaluations=2):
    config = GeneratorConfig.quick(memory_kib=1, test_size=32, iterations=2,
                                   population_size=6)
    return campaign_matrix(kinds=[GeneratorKind.MCVERSI_RAND], faults=[None],
                           generator_config=config,
                           system_config=SystemConfig(),
                           max_evaluations=max_evaluations, seeds_per_cell=1,
                           base_seed=7)


def outcomes(report):
    return [(shard.result.found, shard.result.evaluations_to_find,
             shard.result.evaluations) for shard in report.shards]


def send(sock, message):
    send_raw_frame(sock, codec.encode(message))


def recv(sock):
    return codec.decode(recv_raw_frame(sock))


def connect_worker(address, name):
    """A raw-socket worker that has finished the untokened handshake."""
    sock = socket.create_connection(address, timeout=30.0)
    challenge = recv(sock)
    assert challenge[:3] == ("challenge", SERVICE_MAGIC, SERVICE_VERSION)
    send(sock, ("hello", SERVICE_MAGIC, SERVICE_VERSION, name, ""))
    assert recv(sock) == ("welcome", SERVICE_MAGIC, SERVICE_VERSION)
    return sock


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def seen(service, *names):
    with service._lock:
        return set(names) <= service.stats.workers_seen


@pytest.fixture
def service(tmp_path):
    service = VerificationService(tmp_path / "store.sqlite",
                                  start_http=False)
    yield service
    service.close()


def test_hold_bound_is_far_below_the_worker_response_timeout():
    assert REQUEST_HOLD_SECONDS * 10 <= DEFAULT_RESPONSE_TIMEOUT


def test_both_ends_set_tcp_nodelay(service, monkeypatch):
    worker_sockets = []
    connect = service_module.connect_with_backoff

    def recording_connect(*args, **kwargs):
        sock = connect(*args, **kwargs)
        worker_sockets.append(sock)
        return sock

    monkeypatch.setattr(service_module, "connect_with_backoff",
                        recording_connect)
    threads = _start_worker_threads(service.address, 1, None)
    try:
        wait_for(lambda: seen(service, "thread-worker-0"))
        (worker_socket,) = worker_sockets
        assert worker_socket.getsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY)
        with service._lock:
            accepted = list(service._connections)
        assert len(accepted) == 1
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        service.close()
        for thread in threads:
            thread.join(timeout=5.0)
    assert not any(thread.is_alive() for thread in threads)


def test_close_with_two_idle_workers_is_prompt(service):
    threads = _start_worker_threads(service.address, 2, None)
    wait_for(lambda: seen(service, "thread-worker-0", "thread-worker-1"))
    time.sleep(0.02)  # both requests are now parked in the hold
    start = time.perf_counter()
    service.close()
    elapsed = time.perf_counter() - start
    for thread in threads:
        thread.join(timeout=5.0)
    assert not any(thread.is_alive() for thread in threads)
    # Timer ticks (a 0.2 s accept timeout, a 0.2 s monitor sleep) would
    # put this at 0.19 s or more.
    assert elapsed < 0.1, f"close() took {elapsed:.3f}s"


def test_parked_worker_gets_a_requeued_chunk_promptly(service, monkeypatch):
    # Only the re-queue's notification can wake the parked request in
    # time: the hold bound is far longer than the test allows.
    monkeypatch.setattr(service_module, "REQUEST_HOLD_SECONDS", 60.0)
    specs = tiny_matrix()
    job_id = service.submit_job(specs, CHUNKED)
    holder = connect_worker(service.address, "lease-holder")
    threads = []
    try:
        send(holder, ("request",))
        assert recv(holder)[:2] == ("task", job_id)
        threads = _start_worker_threads(service.address, 1, None)
        wait_for(lambda: seen(service, "thread-worker-0"))
        time.sleep(0.2)  # its request is parked: the only chunk is leased
        start = time.monotonic()
        holder.close()
        status = service.wait_job(job_id, timeout=30.0)
        elapsed = time.monotonic() - start
    finally:
        holder.close()
        service.close()
        for thread in threads:
            thread.join(timeout=5.0)
    assert not any(thread.is_alive() for thread in threads)
    assert status["state"] == JOB_DONE
    assert elapsed < 10.0, f"re-queued chunk took {elapsed:.2f}s to land"
    assert service.stats.requeues[0] == 1
    serial = run_campaigns(specs, workers=1, config=CHUNKED)
    assert outcomes(service.job_report(job_id)) == outcomes(serial)


def test_hold_bound_answers_idle_zero(service, monkeypatch):
    monkeypatch.setattr(service_module, "REQUEST_HOLD_SECONDS", 0.2)
    sock = connect_worker(service.address, "raw-idler")
    try:
        start = time.monotonic()
        send(sock, ("request",))
        assert recv(sock) == ("idle", 0.0)
        assert time.monotonic() - start >= 0.15
        # The re-request is held again, and a task that appears during
        # the hold answers it at once.
        monkeypatch.setattr(service_module, "REQUEST_HOLD_SECONDS", 60.0)
        send(sock, ("request",))
        job_id = service.submit_job(tiny_matrix(), CHUNKED)
        assert recv(sock)[:2] == ("task", job_id)
    finally:
        sock.close()


def test_worker_re_requests_after_idle(service, monkeypatch):
    monkeypatch.setattr(service_module, "REQUEST_HOLD_SECONDS", 0.05)
    sent = []
    lock = threading.Lock()
    send_frame = service_module.send_raw_frame

    def recording_send(sock, payload, *args, **kwargs):
        with lock:
            sent.append(codec.decode(payload))
        return send_frame(sock, payload, *args, **kwargs)

    monkeypatch.setattr(service_module, "send_raw_frame", recording_send)
    threads = _start_worker_threads(service.address, 1, None)
    try:
        def count(message):
            with lock:
                return sent.count(message)

        wait_for(lambda: count(("idle", 0.0)) >= 3)
        assert count(("request",)) >= count(("idle", 0.0))
        job_id = service.submit_job(tiny_matrix(), CHUNKED)
        assert service.wait_job(job_id, timeout=60.0)["state"] == JOB_DONE
    finally:
        service.close()
        for thread in threads:
            thread.join(timeout=5.0)
    assert not any(thread.is_alive() for thread in threads)
