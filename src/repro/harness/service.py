"""Verification service: the one TCP coordinator, for one sweep or many.

Every sweep on TCP workers runs here, as a job.  A long-lived ``serve``
process runs many jobs over one worker pool: hosts join with ``worker
--connect`` and clients ``submit`` matrices (or a replay corpus) over
HTTP, or set ``ExperimentSettings(service=url)``.
:func:`run_service_sweep` runs one job on an ephemeral in-process
service (temp-dir store, no HTTP, worker threads).  Both are the same
:class:`VerificationService`:

* a **job API** (HTTP): submit a campaign or replay matrix, poll status,
  stream completed-shard results, cancel — multiple concurrent sweeps
  multiplex over one worker pool, round-robin per work request;
* a **durable store** (:class:`repro.harness.store.SweepStore`): every
  job spec, :class:`~repro.harness.parallel.ChunkPayload` checkpoint,
  folded shard result and verdict-cache shipment is written through, so
  a service restart (crash, kill -9) reconstructs every scheduler via
  :meth:`~repro.harness.parallel.ChunkScheduler.restore_progress` and
  resumes every in-flight sweep exactly where it last committed;
* a **token-authenticated worker handshake** (HMAC-SHA256
  challenge/response); every frame the service reads off a socket is
  decoded by the closed-universe wire codec (:mod:`repro.harness.codec`)
  and nothing else;
* a ``/metrics`` endpoint exporting the existing
  :class:`~repro.harness.parallel.ChunkTelemetry` /
  :class:`~repro.harness.distributed.CoordinatorStats` / verdict-cache
  counters in Prometheus text format.

Durability model (see ``docs/service.md``): the scheduler fold and the
store commit happen back to back under the service lock —
``scheduler.record(outcome)`` then
:meth:`~repro.harness.store.SweepStore.commit_outcome` in one SQLite
transaction.  A crash *between* them loses only the in-memory fold; the
chunk's lease dies with the process, the restarted service re-dispatches
the chunk from its last committed checkpoint, and the replay is
bit-identical by the determinism contract.  The chaos battery
(``tests/test_service_recovery.py``) SIGKILLs the service at exactly
these points (via the ``REPRO_SERVICE_CRASH`` environment hook) and
asserts the resumed sweep's final report equals an uninterrupted serial
run.

Threat model: the *worker plane* (TCP) may face untrusted peers — hence
the challenge/response token and the wire codec.  The *job plane* (HTTP)
is operator-facing and token-gated; its octet-stream submission and
result bodies are codec frames too, and the JSON submission form carries
no binary at all.  The store serializes its own rows.  Checkpoint
payload bytes from workers are opaque — stored and re-dispatched
verbatim, never deserialized by the service.  Only the worker that
resumes a chunk deserializes them, which is the residual trust edge
(see ``docs/service.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import hmac
import http.client
import json
import multiprocessing
import os
import secrets
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.consistency.memo import VerdictCache
from repro.harness import codec
from repro.harness.distributed import (DEFAULT_CONNECT_BACKOFF,
                                       DEFAULT_HANDSHAKE_TIMEOUT,
                                       DEFAULT_HEARTBEAT_INTERVAL,
                                       DEFAULT_LEASE_TIMEOUT,
                                       DEFAULT_MAX_FRAME_BYTES,
                                       DEFAULT_RESPONSE_TIMEOUT,
                                       DEFAULT_STALL_TIMEOUT, SEND_TIMEOUT,
                                       MAX_CHUNK_REQUEUES, CoordinatorStats,
                                       FrameTooLargeError, ProtocolError,
                                       WorkerStats, _IdleTimeout,
                                       _worker_environment,
                                       connect_with_backoff, format_address,
                                       parse_address, recv_raw_frame,
                                       send_raw_frame)
from repro.harness.parallel import (CampaignSpec, ChunkTask, ShardFailure,
                                    ShardResult, SweepAccumulator,
                                    SweepConfig, SweepReport,
                                    build_chunk_scheduler, default_workers,
                                    execute_chunk_task)
from repro.locking import TracedLock, guarded_by, requires_lock
from repro.harness.store import (JOB_CANCELLED, JOB_DONE, JOB_FAILED,
                                 JOB_RUNNING, JOB_STATES, SweepStore)

SERVICE_MAGIC = "mcversi-service"
SERVICE_VERSION = 6

#: Environment variable naming the shared worker-auth token (the CLI
#: reads it so tokens never appear in ``ps`` output).
TOKEN_ENV = "REPRO_SERVICE_TOKEN"

#: Crash-point hook for the restart chaos battery:
#: ``REPRO_SERVICE_CRASH="point"`` or ``"point:N"`` makes the service
#: die abruptly (``os._exit(137)``, like a SIGKILL) the Nth time it
#: reaches that point.  Points: ``before-commit`` (after the scheduler
#: fold, before the store transaction), ``after-commit`` (transaction
#: durable, in-memory bookkeeping may be lost) and ``drain`` (entering
#: graceful shutdown).
CRASH_ENV = "REPRO_SERVICE_CRASH"
CRASH_POINTS = ("before-commit", "after-commit", "drain")

_CRASH_COUNTS: Counter = Counter()

#: Longest a worker's ``request`` is held when nothing is queued (a
#: task, drain or crash ends it at once); only then is it answered
#: ``("idle", 0.0)``.  Far below ``DEFAULT_RESPONSE_TIMEOUT``.
REQUEST_HOLD_SECONDS = 5.0


class AuthenticationError(ProtocolError):
    """The peer failed the token handshake (bad or missing token)."""


class ServiceCrash(Exception):
    """Raised by an armed in-process crash hook (tests only)."""


class ServiceError(RuntimeError):
    """A job-API request failed (HTTP error from the service)."""


def _maybe_crash(point: str) -> None:
    """Die like SIGKILL at ``point`` if ``REPRO_SERVICE_CRASH`` says so."""
    spec = os.environ.get(CRASH_ENV, "")
    if not spec:
        return
    target, _, nth = spec.partition(":")
    if target != point:
        return
    _CRASH_COUNTS[point] += 1
    if _CRASH_COUNTS[point] >= max(1, int(nth or 1)):
        os._exit(137)


def _auth_digest(token: str, nonce: str) -> str:
    return hmac.new(token.encode("utf-8"), nonce.encode("utf-8"),
                    "sha256").hexdigest()


# ----------------------------------------------------------------------
# Service state


@dataclass
class _ServiceLease:
    """One outstanding chunk of one job: who holds it and until when."""

    job_id: str
    task: ChunkTask
    worker: str
    deadline: float


class _ServiceJob:
    """One sweep the service owns: scheduler, results, lifecycle state."""

    def __init__(self, job_id: str, specs: list[CampaignSpec],
                 config: SweepConfig, scheduler) -> None:
        self.job_id = job_id
        self.specs = specs
        self.config = config
        self.scheduler = scheduler
        self.state = JOB_RUNNING
        self.error: str | None = None
        #: Completed shards, keyed by shard index.
        self.results: dict[int, ShardResult] = {}
        #: Indices in completion order (the results-stream cursor space;
        #: rebuilt in *index* order after a restart, so clients should
        #: restart their cursor at 0 when the service identity changes).
        self.completion_log: list[int] = []
        #: Fault-tolerance re-queues per shard (poison-chunk detection).
        self.requeues: Counter = Counter()
        #: verdict-cache ``inserts`` already committed to the store, so
        #: unchanged caches do not re-serialize on every outcome.
        self.committed_cache_inserts = -1

    @property
    def total(self) -> int:
        return len(self.specs)


@guarded_by("_lock", "_jobs", "_rotation", "_rr", "_leases",
            "_connections", "_threads", "auth_failures", "stats")
class VerificationService:
    """The long-lived coordinator: many sweeps, one worker pool, a store.

    Construction opens (or creates) the durable store at ``store_path``,
    **recovers** every job the store holds — running jobs get a fresh
    scheduler rebuilt via :func:`build_chunk_scheduler` (the same
    derivation the original submission used, so budgets match exactly)
    and :meth:`~repro.harness.parallel.ChunkScheduler.restore_progress`
    over the committed shard rows — then binds the worker-plane TCP
    listener and (unless ``start_http=False``) the job-plane HTTP
    server.  Workers may connect immediately; jobs are submitted via
    :meth:`submit_job` (in-process) or the HTTP API
    (:class:`ServiceClient`).

    ``token`` enables the HMAC challenge/response worker handshake and
    gates the HTTP API (``Authorization: Bearer <token>``).
    """

    def __init__(self, store_path: str | os.PathLike,
                 bind: str | tuple[str, int] | None = None,
                 http_bind: str | tuple[str, int] | None = None,
                 token: str | None = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
                 start_http: bool = True) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self._token = token
        self._lease_timeout = lease_timeout
        self._max_frame_bytes = max_frame_bytes
        self._handshake_timeout = handshake_timeout
        self.stats = CoordinatorStats()
        #: Handshakes rejected for a bad or missing token.
        self.auth_failures = 0
        self.store = SweepStore(store_path)
        self._lock = TracedLock("service")
        #: Notified on submit, record, re-queue, finish, fail, cancel,
        #: disconnect, crash and drain: every event a waiter parks for.
        self._changed = threading.Condition(self._lock)
        self._jobs: dict[str, _ServiceJob] = {}
        #: Round-robin dispatch order across running jobs.
        self._rotation: list[str] = []
        self._rr = 0
        self._leases: dict[tuple[str, int], _ServiceLease] = {}
        self._draining = threading.Event()
        self._crashed = threading.Event()
        #: In-process crash hooks for the recovery tests (see
        #: :meth:`arm_crash`); the subprocess battery uses
        #: ``REPRO_SERVICE_CRASH`` instead.
        self.test_crash_hooks: dict[str, Callable[[], None]] = {}
        with self._lock:
            self._recover()
        bind_address = parse_address(bind)
        family = (socket.AF_INET6 if ":" in bind_address[0]
                  else socket.AF_INET)
        self._listener = socket.create_server(bind_address, family=family)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._connections: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True,
                                               name="service-accept")
        self._monitor_thread = threading.Thread(target=self._lease_monitor,
                                                daemon=True,
                                                name="service-leases")
        self._accept_thread.start()
        self._monitor_thread.start()
        self._http = None
        self._http_thread = None
        self.http_address: tuple[str, int] | None = None
        if start_http:
            http_address = parse_address(http_bind)
            self._http = _ServiceHTTPServer(http_address, _ServiceHTTPHandler)
            self._http.service = self
            self.http_address = self._http.server_address[:2]
            self._http_thread = threading.Thread(
                target=self._http.serve_forever, daemon=True,
                name="service-http")
            self._http_thread.start()

    # -- recovery ------------------------------------------------------

    @requires_lock("_lock")
    def _recover(self) -> None:
        """Rebuild every stored job; resume the running ones."""
        for job_id, state, _total, error in self.store.jobs():
            specs, config = self.store.job_definition(job_id)
            results = (self.store.results(job_id)
                       if state in (JOB_RUNNING, JOB_DONE) else {})
            scheduler = None
            if state == JOB_RUNNING:
                scheduler = build_chunk_scheduler(
                    specs, config, max_frame_bytes=self._max_frame_bytes)
                scheduler.restore_progress(
                    completed=results.keys(),
                    checkpoints=self.store.checkpoints(job_id),
                    cache_state=self.store.cache_state(job_id))
            job = _ServiceJob(job_id, specs, config, scheduler)
            job.state = state
            job.error = error
            job.results.update(results)
            job.completion_log.extend(sorted(results))
            self._jobs[job_id] = job
            if state == JOB_RUNNING:
                self._rotation.append(job_id)
                if scheduler.done:
                    # Every shard was already committed; only the final
                    # state flip was lost to the crash.
                    self._retire(job, JOB_DONE)

    # -- job API (in-process surface; HTTP routes through these) -------

    def submit_job(self, specs: list[CampaignSpec],
                   config: SweepConfig | None = None,
                   job_id: str | None = None) -> str:
        """Register a new sweep; workers start pulling it immediately."""
        if not specs:
            raise ValueError("a job needs at least one CampaignSpec")
        config = config if config is not None else SweepConfig()
        job_id = job_id if job_id is not None else secrets.token_hex(8)
        scheduler = build_chunk_scheduler(
            specs, config, max_frame_bytes=self._max_frame_bytes)
        with self._lock:
            if job_id in self._jobs:
                raise ValueError(f"job id {job_id!r} already exists")
            self.store.create_job(job_id, specs, config)
            self._jobs[job_id] = _ServiceJob(job_id, specs, config,
                                             scheduler)
            self._rotation.append(job_id)
            self._changed.notify_all()
        return job_id

    def job_status(self, job_id: str) -> dict:
        return self.wait_job(job_id, timeout=0)

    def wait_job(self, job_id: str, timeout: float | None = None) -> dict:
        """Wait for the job to leave ``running``; returns its status.

        Also returns when the service drains or crashes and after
        ``timeout`` seconds (``None``: no bound).
        """
        with self._lock:
            job = self._job(job_id)
            self._changed.wait_for(
                lambda: (job.state != JOB_RUNNING
                         or self._draining.is_set()
                         or self._crashed.is_set()), timeout)
            return {"job_id": job.job_id, "state": job.state,
                    "total": job.total,
                    "completed": len(job.completion_log),
                    "error": job.error}

    def job_ids(self) -> list[str]:
        with self._lock:
            return list(self._jobs)

    def job_results(self, job_id: str,
                    since: int = 0) -> tuple[int, list[tuple[int,
                                                             ShardResult]]]:
        """Completed shards from completion-order cursor ``since``.

        Returns ``(next_cursor, [(shard_index, result), ...])``; feed
        ``next_cursor`` back as ``since`` to stream only new results.
        """
        with self._lock:
            job = self._job(job_id)
            log = job.completion_log[since:]
            return since + len(log), [(index, job.results[index])
                                      for index in log]

    def cancel_job(self, job_id: str) -> None:
        """Stop a running job; its leases die and results stop folding."""
        with self._lock:
            job = self._job(job_id)
            if job.state == JOB_RUNNING:
                self._retire(job, JOB_CANCELLED)

    def job_report(self, job_id: str, workers: int = 1) -> SweepReport:
        """The completed job's :class:`SweepReport` (raises if not done)."""
        with self._lock:
            job = self._job(job_id)
            if job.state != JOB_DONE:
                raise RuntimeError(
                    f"job {job_id} is {job.state}, not {JOB_DONE}"
                    + (f": {job.error}" if job.error else ""))
            accumulator = SweepAccumulator(total=job.total, workers=workers)
            for index in job.completion_log:
                accumulator.add(index, job.results[index])
            return accumulator.finalize()

    @requires_lock("_lock")
    def _job(self, job_id: str) -> _ServiceJob:
        """Caller holds the lock."""
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    # -- crash machinery -----------------------------------------------

    def _crash_point(self, point: str) -> None:
        _maybe_crash(point)
        hook = self.test_crash_hooks.get(point)
        if hook is not None:
            hook()

    def arm_crash(self, point: str, nth: int = 1) -> None:
        """In-process analogue of ``REPRO_SERVICE_CRASH`` (tests).

        The ``nth`` time ``point`` is reached, the service flips into a
        crashed state: it stops folding, committing and replying — as
        dead as a SIGKILL from the store's point of view — so a test can
        :meth:`kill` it and restart from the same store path without
        spawning a subprocess.
        """
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}; "
                             f"expected one of {CRASH_POINTS}")
        counter = Counter()

        def hook() -> None:
            counter["hits"] += 1
            if counter["hits"] >= nth:
                self._crashed.set()
                raise ServiceCrash(point)

        self.test_crash_hooks[point] = hook

    @property
    def crashed(self) -> bool:
        return self._crashed.is_set()

    # -- observability -------------------------------------------------

    def metrics_text(self) -> str:
        """The ``/metrics`` payload (Prometheus text exposition format)."""
        with self._lock:
            states = Counter(job.state for job in self._jobs.values())
            schedulers = [job.scheduler for job in self._jobs.values()
                          if job.scheduler is not None]

            def total(attribute: str, start: int | float = 0):
                return sum((getattr(scheduler, attribute)
                            for scheduler in schedulers), start)

            metrics = [
                ("shards_completed_total", "counter",
                 sum(len(job.completion_log) for job in self._jobs.values())),
                ("chunks_recorded_total", "counter",
                 sum(self.stats.chunks_by_worker.values())),
                ("evaluations_total", "counter",
                 total("total_chunk_evaluations")),
                ("chunk_seconds_total", "counter",
                 round(total("total_chunk_seconds", 0.0), 6)),
                ("checkpoint_bytes_total", "counter",
                 total("total_checkpoint_bytes")),
                ("requeues_total", "counter", self.stats.total_requeues),
                ("stale_results_total", "counter", self.stats.stale_results),
                ("disconnects_total", "counter", self.stats.disconnects),
                ("auth_failures_total", "counter", self.auth_failures),
                ("store_commits_total", "counter", self.store.commits),
                ("workers_connected", "gauge", len(self._connections)),
                ("verdict_cache_hits_total", "counter", total("cache_hits")),
                ("verdict_cache_misses_total", "counter",
                 total("cache_misses")),
                ("verdict_cache_seconds_saved", "counter",
                 round(total("cache_seconds_saved", 0.0), 6)),
            ]
        lines = ["# TYPE mcversi_service_jobs gauge"]
        lines += [f'mcversi_service_jobs{{state="{state}"}} '
                  f"{states.get(state, 0)}" for state in JOB_STATES]
        for name, kind, value in metrics:
            lines += [f"# TYPE mcversi_service_{name} {kind}",
                      f"mcversi_service_{name} {value}"]
        return "\n".join(lines) + "\n"

    @property
    def active_workers(self) -> int:
        with self._lock:
            return len(self._connections)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drain gracefully: running jobs stay ``running`` in the store
        (a later service over the same path resumes them); workers get a
        shutdown reply on their next request."""
        # A crash armed at ``drain`` marks the service crashed, and the
        # rest is then exactly :meth:`kill`.
        with contextlib.suppress(ServiceCrash):
            self._crash_point("drain")
        self._shutdown_sockets()
        self.store.close()

    def kill(self) -> None:
        """Tear down abruptly (in-process stand-in for SIGKILL): close
        sockets and the store handle with no further commits."""
        self._crashed.set()
        self._shutdown_sockets()
        self.store.close()

    def _shutdown_sockets(self) -> None:
        self._draining.set()
        with self._lock:
            self._changed.notify_all()
        if self._accept_thread.is_alive():
            # Closing the listener does not wake a blocked accept(); a
            # connection does, and the accept loop drops it and exits.
            with contextlib.suppress(OSError):
                socket.create_connection(self.address, timeout=1.0).close()
        with contextlib.suppress(OSError):  # pragma: no cover - already closed
            self._listener.close()
        self._accept_thread.join(timeout=2.0)
        # No handler is added now.  Snapshot under the lock, join outside
        # it (joining a handler that itself wants the lock deadlocks).
        with self._lock:
            threads = list(self._threads)
            connections = list(self._connections)
        deadline = time.monotonic() + 3.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for connection in connections:
            with contextlib.suppress(OSError):  # pragma: no cover - defensive cleanup
                connection.close()
        for thread in threads:
            thread.join(timeout=1.0)
        self._monitor_thread.join(timeout=2.0)
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout=2.0)

    # -- worker plane --------------------------------------------------

    def _send(self, connection: socket.socket, message: object,
              stall_timeout: float | None = None) -> None:
        send_raw_frame(connection, codec.encode(message),
                       self._max_frame_bytes, stall_timeout=stall_timeout)

    def _recv(self, connection: socket.socket, idle_ok: bool = False,
              stall_timeout: float | None = None) -> object:
        data = recv_raw_frame(connection, self._max_frame_bytes,
                              idle_ok=idle_ok, stall_timeout=stall_timeout)
        return codec.decode(data)

    def _accept_loop(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            if self._draining.is_set():
                connection.close()
                return
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handler = threading.Thread(target=self._handle,
                                       args=(connection,), daemon=True,
                                       name="service-worker")
            with self._lock:
                self._connections.append(connection)
                self._threads.append(handler)
            handler.start()

    def _lease_monitor(self) -> None:
        while not self._draining.wait(0.2):
            now = time.monotonic()
            with self._lock:
                expired = [(key, lease)
                           for key, lease in self._leases.items()
                           if lease.deadline < now]
                for key, lease in expired:
                    del self._leases[key]
                    self._requeue_lost(lease)

    def _handle(self, connection: socket.socket) -> None:
        connection.settimeout(0.5)
        lease: _ServiceLease | None = None
        name = "<unknown>"
        try:
            name = self._handshake(connection)
            if name is None:
                return
            with self._lock:
                self.stats.workers_seen.add(name)
            while True:
                if self._crashed.is_set():
                    # Simulated process death: fall silent, like SIGKILL.
                    return
                try:
                    message = self._recv(connection, idle_ok=True,
                                         stall_timeout=DEFAULT_STALL_TIMEOUT)
                except _IdleTimeout:
                    if self._draining.is_set() and lease is None:
                        return
                    continue
                if not isinstance(message, tuple) or not message:
                    raise ProtocolError(
                        f"expected a (kind, ...) tuple, got {type(message)}")
                kind = message[0]
                if kind == "request":
                    lease, shut_down = self._reply_to_request(connection,
                                                              name)
                    if shut_down:
                        return
                elif kind == "heartbeat":
                    self._renew(lease)
                elif kind == "result":
                    if len(message) != 3:
                        raise ProtocolError("malformed result message")
                    lease = self._record(message[1], message[2], lease,
                                         name)
                elif kind == "goodbye":
                    return
                else:
                    raise ProtocolError(f"unknown message kind {kind!r}")
        except ServiceCrash:
            return
        except (ProtocolError, OSError) as error:
            with self._lock:
                if isinstance(error, AuthenticationError):
                    self.auth_failures += 1
                self.stats.disconnects += 1
        finally:
            self._forfeit(lease)
            with contextlib.suppress(OSError):  # pragma: no cover - defensive cleanup
                connection.close()
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)
                # A disconnect, and the exit of a crashed handler.
                self._changed.notify_all()

    def _handshake(self, connection: socket.socket) -> str | None:
        """Challenge/response hello; ``None``: drained, told to shut down.

        The service speaks first: a random nonce rides the challenge
        frame, the worker answers with
        ``HMAC-SHA256(token, nonce)`` in its hello, and the digests are
        compared constant-time.  With no token configured the digest is
        ignored (open/local mode).  A draining service answers any
        stage with a clean shutdown frame instead of an error teardown,
        and never hands a late worker a task whose lease nothing would
        collect.
        """
        nonce = secrets.token_hex(16)
        self._send(connection, ("challenge", SERVICE_MAGIC, SERVICE_VERSION,
                                nonce))
        deadline = time.monotonic() + self._handshake_timeout
        while True:
            try:
                hello = self._recv(connection, idle_ok=True,
                                   stall_timeout=self._handshake_timeout)
                break
            except _IdleTimeout:
                if self._draining.is_set():
                    self._send(connection, ("shutdown",))
                    return None
                if time.monotonic() > deadline:
                    raise ProtocolError(
                        "peer sent no hello within the handshake "
                        f"timeout ({self._handshake_timeout}s)") from None
        if (not isinstance(hello, tuple) or len(hello) != 5
                or hello[0] != "hello" or hello[1] != SERVICE_MAGIC):
            self._send(connection, ("error", "not a mcversi service hello"))
            raise ProtocolError("peer did not send a valid service hello")
        if hello[2] != SERVICE_VERSION:
            self._send(connection, (
                "error",
                f"protocol version mismatch: service speaks "
                f"{SERVICE_VERSION}, worker speaks {hello[2]}"))
            raise ProtocolError(f"worker protocol version {hello[2]} != "
                                f"{SERVICE_VERSION}")
        if self._token is not None:
            digest = hello[4]
            expected = _auth_digest(self._token, nonce)
            if not isinstance(digest, str) \
                    or not hmac.compare_digest(digest, expected):
                self._send(connection, (
                    "error", "authentication failed: bad or missing token"))
                raise AuthenticationError(
                    "worker failed token authentication")
        if self._draining.is_set():
            self._send(connection, ("shutdown",))
            return None
        self._send(connection, ("welcome", SERVICE_MAGIC, SERVICE_VERSION))
        return str(hello[3])

    @requires_lock("_lock")
    def _next_assignment(self) -> tuple[str, ChunkTask] | None:
        """Round-robin the next task across running jobs (lock held)."""
        running = [job_id for job_id in self._rotation
                   if self._jobs[job_id].state == JOB_RUNNING]
        if not running:
            return None
        for offset in range(len(running)):
            job_id = running[(self._rr + offset) % len(running)]
            task = self._jobs[job_id].scheduler.next_task()
            if task is not None:
                self._rr = (self._rr + offset + 1) % len(running)
                return job_id, task
        return None

    def _reply_to_request(self, connection: socket.socket,
                          name: str) -> tuple[_ServiceLease | None, bool]:
        deadline = time.monotonic() + REQUEST_HOLD_SECONDS
        with self._lock:
            while True:
                if self._crashed.is_set():
                    return None, True
                if self._draining.is_set():
                    self._send(connection, ("shutdown",))
                    return None, True
                assignment = self._next_assignment()
                if assignment is not None:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._send(connection, ("idle", 0.0))
                    return None, False
                self._changed.wait(remaining)  # the hold
            job_id, task = assignment
            lease = _ServiceLease(job_id=job_id, task=task, worker=name,
                                  deadline=(time.monotonic()
                                            + self._lease_timeout))
            self._leases[(job_id, task.index)] = lease
        try:
            self._send(connection, ("task", job_id, task),
                       stall_timeout=SEND_TIMEOUT)
        except FrameTooLargeError as error:
            # Deterministic: this chunk's frame can never fit.  Fail the
            # *job* (not the service) with the actionable message.
            with self._lock:
                if self._leases.get((job_id, task.index)) is lease:
                    del self._leases[(job_id, task.index)]
                job = self._jobs.get(job_id)
                if job is not None and job.state == JOB_RUNNING:
                    self._retire(job, JOB_FAILED, f"shard {task.index} "
                                 f"cannot be dispatched: {error}")
            raise
        except (OSError, ProtocolError):
            self._forfeit(lease)
            raise
        self._renew(lease)
        return lease, False

    def _renew(self, lease: _ServiceLease | None) -> None:
        if lease is None:
            return
        with self._lock:
            key = (lease.job_id, lease.task.index)
            if self._leases.get(key) is lease:
                lease.deadline = time.monotonic() + self._lease_timeout

    def _record(self, job_id: object, outcome: object,
                lease: _ServiceLease | None, name: str) -> None:
        """Fold one worker outcome in and write it through the store.

        The write-through ordering is the durability contract: scheduler
        fold, then one store transaction (checkpoint payload *or* shard
        result, plus the verdict-cache snapshot when it changed), both
        under the service lock.  ``before-commit`` / ``after-commit``
        crash points bracket the transaction for the chaos battery.
        """
        if not isinstance(job_id, str) or not hasattr(outcome, "index"):
            raise ProtocolError("malformed result message")
        with self._lock:
            if self._crashed.is_set():
                return None
            job = self._jobs.get(job_id)
            key = (job_id, outcome.index)
            if (job is None or job.state != JOB_RUNNING or lease is None
                    or self._leases.get(key) is not lease):
                # Lease lost (expired, job cancelled/failed, or a
                # duplicate): the re-queued replay is bit-identical, so
                # dropping this result is safe.
                self.stats.stale_results += 1
                return None
            del self._leases[key]
            self.stats.chunks_by_worker[name] += 1
            scheduler = job.scheduler
            try:
                completed = scheduler.record(outcome)
            except ShardFailure as error:
                self._retire(job, JOB_FAILED, str(error))
                raise ProtocolError(
                    "shard failed; dropping worker") from error
            # A recorded pause re-queued its continuation.
            self._changed.notify_all()
            cache_state = None
            cache = scheduler.verdict_cache
            if cache is not None \
                    and cache.inserts != job.committed_cache_inserts:
                cache_state = cache.snapshot()
            if completed is None and outcome.payload is None:
                return None
            # The durable unit is the shard result or, for a pause, the
            # continuation's checkpoint bytes — stored verbatim, never
            # deserialized here (worker bytes stay opaque to the service).
            shard = completed[1] if completed is not None else None
            self._crash_point("before-commit")
            self.store.commit_outcome(
                job_id, outcome.index, result=shard,
                payload=outcome.payload.data if shard is None else None,
                cache_state=cache_state)
            self._crash_point("after-commit")
            if cache is not None:
                job.committed_cache_inserts = cache.inserts
            if shard is not None:
                job.results[outcome.index] = shard
                job.completion_log.append(outcome.index)
                if scheduler.done:
                    self._retire(job, JOB_DONE)
        return None

    @requires_lock("_lock")
    def _retire(self, job: _ServiceJob, state: str,
                error: str | None = None) -> None:
        """Caller holds the lock; ``job`` leaves ``running`` for good."""
        job.state = state
        job.error = error
        self.store.set_job_state(job.job_id, state, error)
        if job.job_id in self._rotation:
            self._rotation.remove(job.job_id)
        for key in [key for key in self._leases if key[0] == job.job_id]:
            del self._leases[key]
        self._changed.notify_all()

    def _forfeit(self, lease: _ServiceLease | None) -> None:
        if lease is None:
            return
        with self._lock:
            key = (lease.job_id, lease.task.index)
            if self._leases.get(key) is lease:
                del self._leases[key]
                self._requeue_lost(lease)

    @requires_lock("_lock")
    def _requeue_lost(self, lease: _ServiceLease) -> None:
        """Caller holds the lock; fail the job if the chunk is poison."""
        job = self._jobs.get(lease.job_id)
        if job is None or job.state != JOB_RUNNING:
            return
        job.scheduler.requeue(lease.task)
        self._changed.notify_all()
        job.requeues[lease.task.index] += 1
        self.stats.requeues[lease.task.index] += 1
        if job.requeues[lease.task.index] > MAX_CHUNK_REQUEUES:
            self._retire(job, JOB_FAILED, (
                f"shard {lease.task.index} "
                f"({job.specs[lease.task.index].describe()}) was re-queued "
                f"{job.requeues[lease.task.index]} times after repeated "
                "worker loss (poison chunk?)"))


# ----------------------------------------------------------------------
# Job plane (HTTP)


#: Hard cap on one HTTP request body (submissions are small; the cap
#: exists so a hostile client cannot balloon the handler).
MAX_HTTP_BODY_BYTES = 16 * 1024 * 1024


def _matrix_from_json(matrix: Mapping) -> list[CampaignSpec]:
    """Build sweep specs from a JSON matrix description (plain JSON).

    ``{"kinds": [...], "faults": [...], "seeds_per_cell": N,
    "base_seed": N, "max_evaluations": N, "memory_kib": N}`` mirrors the
    ``submit`` CLI's matrix flags; ``{"replay_corpus": dir,
    "shard_traces": N, "base_seed": N}`` shards an ingested trace corpus
    instead (the trace-ingestion bridge).
    """
    from repro.core.campaign import GeneratorKind
    from repro.core.config import GeneratorConfig
    from repro.harness.parallel import campaign_matrix
    from repro.sim.config import SystemConfig
    from repro.sim.faults import Fault

    if "replay_corpus" in matrix:
        from repro.bridge.replay import replay_specs
        return replay_specs(matrix["replay_corpus"],
                            shard_traces=int(matrix.get("shard_traces", 25)),
                            base_seed=int(matrix.get("base_seed", 1)))
    kinds = [GeneratorKind(value)
             for value in matrix.get("kinds", ["McVerSi-RAND"])]
    faults = [None if str(value).lower() in ("none", "correct")
              else Fault(value)
              for value in matrix.get("faults", ["SQ+no-FIFO", "none"])]
    generator_config = GeneratorConfig.quick(
        memory_kib=int(matrix.get("memory_kib", 1)))
    return campaign_matrix(
        kinds=kinds, faults=faults, generator_config=generator_config,
        system_config=SystemConfig(),
        max_evaluations=int(matrix.get("max_evaluations", 20)),
        seeds_per_cell=int(matrix.get("seeds_per_cell", 2)),
        base_seed=int(matrix.get("base_seed", 1)))


def _submission_from_frame(body: bytes
                           ) -> tuple[list[CampaignSpec], SweepConfig | None]:
    """Decode a ``POST /jobs`` octet-stream body: a codec frame of
    ``(list[CampaignSpec], SweepConfig | None)``.

    A bad :class:`SweepConfig` fails its own ``__post_init__`` on
    decode and is reported with that message, as ``SweepConfig(...)``
    would; anything else that is not such a pair raises ``ValueError``.
    """
    try:
        message = codec.decode(body)
    except codec.CodecError as error:
        if isinstance(error.__cause__, ValueError):
            raise error.__cause__ from None
        raise ValueError(f"malformed job body: {error}") from None
    if (not isinstance(message, tuple) or len(message) != 2
            or not isinstance(message[0], list)
            or not all(isinstance(spec, CampaignSpec)
                       for spec in message[0])
            or not isinstance(message[1], (SweepConfig, type(None)))):
        raise ValueError("job body must be a codec frame of "
                         "(list[CampaignSpec], SweepConfig | None)")
    return message


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Set right after construction by :class:`VerificationService`.
    service: "VerificationService"


class _ServiceHTTPHandler(BaseHTTPRequestHandler):
    """Routes the job API; every handler answers, nothing ever hangs."""

    server_version = "mcversi-service"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> VerificationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _reply(self, status: int, body: bytes,
               content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, payload: object, status: int = 200) -> None:
        self._reply(status, json.dumps(payload).encode("utf-8"))

    def _authorized(self) -> bool:
        token = self.service._token
        if token is None:
            return True
        header = self.headers.get("Authorization", "")
        return hmac.compare_digest(header, f"Bearer {token}")

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length", "0"))
        if length > MAX_HTTP_BODY_BYTES:
            raise ValueError(f"request body of {length} bytes exceeds the "
                             f"{MAX_HTTP_BODY_BYTES}-byte cap")
        return self.rfile.read(length)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route(self._get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._route(self._post)

    def _route(self, handler: Callable[..., None]) -> None:
        if not self._authorized():
            self._reply_json({"error": "missing or bad bearer token"}, 401)
            return
        path, _, query = self.path.partition("?")
        try:
            handler(path, [part for part in path.split("/") if part], query)
        except KeyError as error:
            self._reply_json({"error": str(error)}, 404)
        except (ValueError, RuntimeError, TypeError) as error:
            self._reply_json({"error": str(error)}, 400)

    def _get(self, path: str, parts: list[str], query: str) -> None:
        if path == "/metrics":
            self._reply(200, self.service.metrics_text().encode("utf-8"),
                        "text/plain; version=0.0.4")
        elif path == "/jobs":
            self._reply_json([self.service.job_status(job_id)
                              for job_id in self.service.job_ids()])
        elif len(parts) == 2 and parts[0] == "jobs":
            self._reply_json(self.service.job_status(parts[1]))
        elif (len(parts) == 3 and parts[0] == "jobs"
              and parts[2] == "results"):
            since = int(parse_qs(query).get("since", ["0"])[0])
            cursor, shards = self.service.job_results(parts[1], since=since)
            self._reply(200, codec.encode({"next": cursor, "shards": shards}),
                        "application/octet-stream")
        else:
            self._reply_json({"error": f"no such route {path}"}, 404)

    def _post(self, path: str, parts: list[str], query: str) -> None:
        if path == "/jobs":
            body = self._body()
            content_type = self.headers.get("Content-Type", "")
            if content_type.startswith("application/json"):
                payload = json.loads(body.decode("utf-8"))
                specs = _matrix_from_json(payload.get("matrix", {}))
                config = None
                if payload.get("config"):
                    config = SweepConfig.from_json_dict(payload["config"])
            else:
                specs, config = _submission_from_frame(body)
            job_id = self.service.submit_job(specs, config)
            self._reply_json({"job_id": job_id}, 201)
        elif (len(parts) == 3 and parts[0] == "jobs"
              and parts[2] == "cancel"):
            self.service.cancel_job(parts[1])
            self._reply_json({"job_id": parts[1], "state": JOB_CANCELLED})
        else:
            self._reply_json({"error": f"no such route {path}"}, 404)


class ServiceClient:
    """Thin HTTP client for the job API (stdlib ``http.client`` only).

    ``url`` is ``"host:port"`` or ``"http://host:port"`` — the service's
    ``http_address``.  Result streams arrive as wire-codec frames.
    Submission has two forms: :meth:`submit_specs` sends ``(specs,
    config)`` as a codec frame, :meth:`submit_matrix` sends pure JSON.
    """

    def __init__(self, url: str, token: str | None = None,
                 timeout: float = 30.0) -> None:
        if "//" not in url:
            url = "http://" + url
        parsed = urlsplit(url)
        if parsed.hostname is None or parsed.port is None:
            raise ValueError(f"service url {url!r} needs host and port")
        self._host = parsed.hostname
        self._port = parsed.port
        self._token = token
        self._timeout = timeout

    def _request(self, method: str, path: str, body: bytes | None = None,
                 content_type: str | None = None) -> bytes:
        connection = http.client.HTTPConnection(self._host, self._port,
                                                timeout=self._timeout)
        headers = {}
        if self._token is not None:
            headers["Authorization"] = f"Bearer {self._token}"
        if content_type is not None:
            headers["Content-Type"] = content_type
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
            if response.status >= 400:
                detail = data.decode("utf-8", "replace")[:300]
                raise ServiceError(
                    f"{method} {path} -> HTTP {response.status}: {detail}")
            return data
        finally:
            connection.close()

    def submit_specs(self, specs: list[CampaignSpec],
                     config: SweepConfig | None = None) -> str:
        data = self._request("POST", "/jobs",
                             body=codec.encode((list(specs), config)),
                             content_type="application/octet-stream")
        return json.loads(data)["job_id"]

    def submit_matrix(self, matrix: Mapping,
                      config: SweepConfig | None = None) -> str:
        payload: dict = {"matrix": dict(matrix)}
        if config is not None:
            payload["config"] = config.to_json_dict()
        data = self._request("POST", "/jobs",
                             body=json.dumps(payload).encode("utf-8"),
                             content_type="application/json")
        return json.loads(data)["job_id"]

    def jobs(self) -> list[dict]:
        return json.loads(self._request("GET", "/jobs"))

    def status(self, job_id: str) -> dict:
        return json.loads(self._request("GET", f"/jobs/{job_id}"))

    def results(self, job_id: str,
                since: int = 0) -> tuple[int, list[tuple[int,
                                                         ShardResult]]]:
        data = self._request("GET", f"/jobs/{job_id}/results?since={since}")
        payload = codec.decode(data)
        return payload["next"], payload["shards"]

    def cancel(self, job_id: str) -> None:
        self._request("POST", f"/jobs/{job_id}/cancel")

    def metrics(self) -> str:
        return self._request("GET", "/metrics").decode("utf-8")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> dict:
        """Block until the job leaves ``running``; returns final status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] != JOB_RUNNING:
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout}s ({status['completed']}/{status['total']} "
                    "shards)")
            time.sleep(poll)

    def fetch_report(self, job_id: str, workers: int = 1) -> SweepReport:
        """Assemble the completed job's :class:`SweepReport`."""
        status = self.status(job_id)
        if status["state"] != JOB_DONE:
            raise ServiceError(f"job {job_id} is {status['state']}, "
                               f"not {JOB_DONE}: {status.get('error')}")
        _, shards = self.results(job_id)
        accumulator = SweepAccumulator(total=status["total"],
                                       workers=workers)
        for index, shard in shards:
            accumulator.add(index, shard)
        return accumulator.finalize()

    def run(self, specs: list[CampaignSpec],
            config: SweepConfig | None = None,
            on_result: Callable[[int, ShardResult], None] | None = None,
            timeout: float = 300.0, poll: float = 0.05) -> SweepReport:
        """Submit, stream completed shards as they land, return the report."""
        job_id = self.submit_specs(specs, config)
        accumulator = SweepAccumulator(total=len(specs))
        cursor = 0
        deadline = time.monotonic() + timeout
        while True:
            cursor, shards = self.results(job_id, since=cursor)
            for index, shard in shards:
                accumulator.add(index, shard)
                if on_result is not None:
                    on_result(index, shard)
            status = self.status(job_id)
            if status["state"] == JOB_DONE \
                    and accumulator.completed == len(specs):
                return accumulator.finalize()
            if status["state"] not in (JOB_RUNNING, JOB_DONE):
                raise ServiceError(f"job {job_id} ended {status['state']}: "
                                   f"{status.get('error')}")
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} incomplete after "
                                   f"{timeout}s")
            time.sleep(poll)


# ----------------------------------------------------------------------
# Worker client (service protocol)


def run_service_worker(address: object, token: str | None = None,
                       name: str | None = None,
                       heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                       max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                       response_timeout: float = DEFAULT_RESPONSE_TIMEOUT,
                       connect_retries: int = 0,
                       connect_backoff: float = DEFAULT_CONNECT_BACKOFF
                       ) -> WorkerStats:
    """Pull job-tagged chunks from a verification service until shut down.

    A heartbeat thread keeps the worker's lease alive while a chunk
    computes; a service that stops replying for ``response_timeout``
    seconds (silent host death, network partition) makes the worker exit
    with an error instead of blocking forever.  ``connect_retries`` > 0
    retries a refused initial connect with exponential backoff, so the
    worker may be started before its service.  The handshake answers the
    service's challenge (with an HMAC of ``token`` when one is set) and
    every frame goes through the wire codec.  Verdict caches are kept
    *per job* (``task.cache`` shipments from different sweeps must not
    mix).  A worker outlives any single job: it keeps pulling until the
    service drains.
    """
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    sock = connect_with_backoff(address, connect_retries=connect_retries,
                                connect_backoff=connect_backoff)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    # A small request right behind a large result must not wait for the
    # result's delayed ACK (Nagle).
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(0.5)
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(message: object) -> None:
        with send_lock:
            send_raw_frame(sock, codec.encode(message), max_frame_bytes,
                           stall_timeout=SEND_TIMEOUT)

    def recv_reply() -> object:
        deadline = time.monotonic() + response_timeout
        while True:
            try:
                data = recv_raw_frame(sock, max_frame_bytes, idle_ok=True,
                                      stall_timeout=DEFAULT_STALL_TIMEOUT)
                return codec.decode(data)
            except _IdleTimeout:
                if time.monotonic() > deadline:
                    raise ProtocolError(
                        "service sent no reply within "
                        f"{response_timeout}s (host down or network "
                        "partition?)") from None

    def heartbeat_loop() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                send(("heartbeat",))
            except OSError:
                return

    stats = WorkerStats()
    try:
        challenge = recv_reply()
        if (not isinstance(challenge, tuple) or len(challenge) != 4
                or challenge[0] != "challenge"
                or challenge[1] != SERVICE_MAGIC):
            raise ProtocolError("service did not send a valid challenge")
        if challenge[2] != SERVICE_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: worker speaks "
                f"{SERVICE_VERSION}, service speaks {challenge[2]}")
        digest = _auth_digest(token, str(challenge[3])) if token else ""
        send(("hello", SERVICE_MAGIC, SERVICE_VERSION, worker_name, digest))
        welcome = recv_reply()
        kind = welcome[0] if isinstance(welcome, tuple) and welcome else None
        if kind == "error":
            detail = str(welcome[1]) if len(welcome) > 1 else ""
            rejected = (AuthenticationError if "authentication" in detail
                        else ProtocolError)
            raise rejected(f"service rejected worker: {detail}")
        if kind == "shutdown":
            return stats
        if kind != "welcome" or len(welcome) != 3 \
                or welcome[1] != SERVICE_MAGIC:
            raise ProtocolError("service did not send a valid welcome")
        heartbeats = threading.Thread(target=heartbeat_loop, daemon=True,
                                      name="service-worker-heartbeats")
        heartbeats.start()
        caches: defaultdict[str, VerdictCache] = defaultdict(VerdictCache)
        while True:
            send(("request",))
            message = recv_reply()
            if not isinstance(message, tuple) or not message:
                raise ProtocolError("service sent a malformed reply")
            kind = message[0]
            if kind == "shutdown":
                with contextlib.suppress(OSError):  # pragma: no cover - racing close
                    send(("goodbye",))
                return stats
            if kind == "idle":
                time.sleep(message[1])
                continue
            if kind == "error":
                raise ProtocolError(str(message[1]))
            if kind != "task" or len(message) != 3:
                raise ProtocolError(f"unknown service message {kind!r}")
            job_id, task = str(message[1]), message[2]
            outcome = execute_chunk_task(task, verdict_cache=caches[job_id])
            stats.chunks += 1
            if outcome.shard is not None:
                stats.shards_completed += 1
            send(("result", job_id, outcome))
    finally:
        stop.set()
        with contextlib.suppress(OSError):  # pragma: no cover - defensive cleanup
            sock.close()


def spawn_service_workers(address: tuple[str, int], count: int,
                          token: str | None = None,
                          name_prefix: str = "svc-worker"
                          ) -> list[subprocess.Popen]:
    """Spawn ``count`` single-process workers against a service.

    Worker ``n`` is named ``<name_prefix>-<n>``.  The token travels via
    the :data:`TOKEN_ENV` environment variable, never the command line
    (no ``ps`` leakage).
    """
    environment = _worker_environment()
    if token is not None:
        environment[TOKEN_ENV] = token
    processes = []
    for index in range(count):
        command = [sys.executable, "-m", "repro.harness.service", "worker",
                   "--connect", format_address(address),
                   "--workers", "1",
                   "--name", f"{name_prefix}-{index}"]
        processes.append(subprocess.Popen(command, env=environment,
                                          stdout=subprocess.DEVNULL))
    return processes


def _start_worker_threads(address: tuple[str, int], count: int,
                          token: str | None) -> list[threading.Thread]:
    """In-process worker threads (tests and :func:`run_service_sweep`)."""

    def target(index: int) -> None:
        # If the service dies (or the chaos battery kills it), the thread
        # exits; a restarted service gets fresh workers.
        with contextlib.suppress(ProtocolError, OSError):
            run_service_worker(address, token=token,
                               name=f"thread-worker-{index}",
                               connect_retries=3)

    threads = [threading.Thread(target=target, args=(index,), daemon=True,
                                name=f"service-worker-{index}")
               for index in range(count)]
    for thread in threads:
        thread.start()
    return threads


#: Bound on one job wait: a worker dying unconnected sends no event.
_WORKER_CHECK_SECONDS = 0.5


def run_service_sweep(specs: list[CampaignSpec],
                      config: SweepConfig | None = None, *,
                      workers: int = 2,
                      store_path: str | os.PathLike | None = None,
                      token: str | None = None,
                      crash_point: str | None = None,
                      crash_nth: int = 1,
                      timeout: float = 300.0) -> SweepReport:
    """One sweep through an ephemeral service; returns its report.

    The service analogue of
    :func:`repro.harness.parallel.run_campaigns`: binds a private
    service on a loopback-ephemeral port (no HTTP; a temp-dir store
    unless ``store_path`` is given), submits ``specs`` as one job and
    serves it to ``workers`` in-process worker threads.  A failed job
    (a shard raised, or a poison chunk exhausted its re-queues), a
    sweep whose workers have all exited and one still running after
    ``timeout`` seconds raise.  With ``crash_point`` set, the service is
    armed to crash in-process (:meth:`VerificationService.arm_crash`)
    the ``crash_nth`` time that point is reached; the sweep then kills
    it, restarts a service over the same store and finishes there — so
    callers can assert crash-resume ≡ uninterrupted, bit for bit.
    """
    own_dir = None
    if store_path is None:
        own_dir = tempfile.mkdtemp(prefix="mcversi-sweep-")
        store_path = os.path.join(own_dir, "sweep.sqlite")
    deadline = time.monotonic() + timeout
    service: VerificationService | None = None
    threads: list[threading.Thread] = []

    def stop() -> None:
        if service is not None:
            (service.kill if service.crashed else service.close)()
        for thread in threads:
            thread.join(timeout=5.0)

    try:
        service = VerificationService(store_path, token=token,
                                      start_http=False)
        if crash_point is not None:
            service.arm_crash(crash_point, nth=crash_nth)
        job_id = service.submit_job(specs, config)
        while True:
            threads = _start_worker_threads(service.address, workers, token)
            while not service.crashed:
                # Read before the status: with no worker alive and no
                # connection open, no result can land after this.
                lost = (bool(threads) and not service.active_workers
                        and not any(thread.is_alive() for thread in threads))
                status = service.job_status(job_id)
                if status["state"] == JOB_DONE:
                    return service.job_report(job_id, workers=workers)
                if status["state"] != JOB_RUNNING:
                    raise RuntimeError(f"service sweep {status['state']}: "
                                       f"{status['error']}")
                if lost:
                    raise RuntimeError(
                        f"all {len(threads)} worker(s) exited while "
                        f"{status['total'] - status['completed']} shard(s) "
                        "were still pending")
                wait = min(_WORKER_CHECK_SECONDS, deadline - time.monotonic())
                if wait <= 0:
                    raise TimeoutError(
                        f"service sweep incomplete after {timeout}s")
                service.wait_job(job_id, wait)
            # An armed crash point fired: restart over the same store
            # (the recovery path under test).
            stop()
            threads = []
            service = VerificationService(store_path, token=token,
                                          start_http=False)
    finally:
        stop()
        if own_dir is not None:
            shutil.rmtree(own_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# CLI


def _resolve_token(args: argparse.Namespace) -> str | None:
    token = getattr(args, "token", None)
    if token:
        return token
    return os.environ.get(TOKEN_ENV) or None


def _serve_main(args: argparse.Namespace) -> int:
    service = VerificationService(
        args.store, bind=args.bind, http_bind=args.http_bind,
        token=_resolve_token(args), lease_timeout=args.lease_timeout,
        max_frame_bytes=args.max_frame_bytes)
    # One parseable line so wrappers (CI, tests) can find the ports.
    print(json.dumps({
        "worker": format_address(service.address),
        "http": format_address(service.http_address),
        "store": service.store.path,
        "jobs": len(service.job_ids())}), flush=True)
    try:
        with contextlib.suppress(KeyboardInterrupt):
            threading.Event().wait()  # serve until Ctrl-C
    finally:
        service.close()
    return 0


def resolve_worker_count(requested: int | None) -> int:
    """Worker processes one ``service worker`` invocation runs.

    An explicit ``--workers`` wins; otherwise ``REPRO_WORKERS`` (capped at
    the CPUs this process may use) via
    :func:`repro.harness.parallel.default_workers`.
    """
    if requested is None:
        return default_workers()
    if requested < 1:
        raise ValueError("--workers must be at least 1")
    return requested


def _run_cli_worker(**options) -> int:
    """Run one worker until its service drains; the process exit code."""
    try:
        stats = run_service_worker(**options)
    except (ProtocolError, OSError) as error:
        # A killed service is an expected event for a service worker
        # (the chaos battery SIGKILLs services on purpose): report it as
        # a one-line failure, not a traceback.
        print(f"worker lost its service: {type(error).__name__}: {error}",
              file=sys.stderr)
        return 1
    print(f"worker finished: {stats.chunks} chunk(s), "
          f"{stats.shards_completed} shard(s) completed")
    return 0


def _cli_worker_process(options: dict) -> None:
    sys.exit(_run_cli_worker(**options))


def _worker_cli_main(args: argparse.Namespace) -> int:
    try:
        count = resolve_worker_count(args.workers)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    options = dict(address=args.connect, token=_resolve_token(args),
                   heartbeat_interval=args.heartbeat_interval,
                   max_frame_bytes=args.max_frame_bytes,
                   connect_retries=args.connect_retries,
                   connect_backoff=args.connect_backoff)
    if count == 1:
        return _run_cli_worker(name=args.name, **options)
    # One command, N worker processes per host: each is a full worker
    # with its own connection, named <name>-<n>.
    context = multiprocessing.get_context("spawn")
    base = args.name or f"{socket.gethostname()}-{os.getpid()}"
    processes = [context.Process(target=_cli_worker_process,
                                 args=(dict(options,
                                            name=f"{base}-{index}"),))
                 for index in range(count)]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    return 1 if any(process.exitcode for process in processes) else 0


def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.url, token=_resolve_token(args))


def _submit_main(args: argparse.Namespace) -> int:
    matrix = {"kinds": args.kinds.split(","),
              "faults": args.faults.split(","),
              "seeds_per_cell": args.seeds_per_cell,
              "base_seed": args.base_seed,
              "max_evaluations": args.max_evaluations,
              "memory_kib": args.memory_kib}
    if args.replay_corpus is not None:
        matrix = {"replay_corpus": args.replay_corpus,
                  "shard_traces": args.shard_traces,
                  "base_seed": args.base_seed}
    config = SweepConfig(chunk_evaluations=args.chunk_evaluations,
                         verdict_memo=args.verdict_memo)
    job_id = _client(args).submit_matrix(matrix, config)
    print(job_id)
    return 0


def _status_main(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.job is not None:
        print(json.dumps(client.status(args.job), indent=2))
    else:
        print(json.dumps(client.jobs(), indent=2))
    return 0


def _results_main(args: argparse.Namespace) -> int:
    from repro.harness.reporting import format_sweep_report
    client = _client(args)
    if args.wait:
        client.wait(args.job, timeout=args.timeout)
    report = client.fetch_report(args.job)
    print(format_sweep_report(report, title=f"Service job {args.job}"))
    return 0


def _cancel_main(args: argparse.Namespace) -> int:
    _client(args).cancel(args.job)
    print(f"cancelled {args.job}")
    return 0


def _metrics_main(args: argparse.Namespace) -> int:
    print(_client(args).metrics(), end="")
    return 0


def _add_token_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--token", default=None,
                        help="shared auth token (default: the "
                             f"{TOKEN_ENV} environment variable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.service",
        description="Durable verification service: job API, crash-safe "
                    "store, authenticated workers.")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run the service (recovers in-flight sweeps from "
                      "the store)")
    serve.add_argument("--store", required=True,
                       help="path of the durable SQLite sweep store")
    serve.add_argument("--bind", default="127.0.0.1:0",
                       help="worker-plane host:port (port 0: ephemeral)")
    serve.add_argument("--http-bind", default="127.0.0.1:0",
                       help="job-API host:port (port 0: ephemeral)")
    serve.add_argument("--lease-timeout", type=float,
                       default=DEFAULT_LEASE_TIMEOUT)
    serve.add_argument("--max-frame-bytes", type=int,
                       default=DEFAULT_MAX_FRAME_BYTES)
    _add_token_arg(serve)
    serve.set_defaults(entry=_serve_main)

    worker = commands.add_parser(
        "worker", help="pull job-tagged chunks from a service")
    worker.add_argument("--connect", required=True,
                        help="service worker-plane host:port")
    worker.add_argument("--workers", type=int, default=None,
                        help="worker processes to run (default: "
                             "REPRO_WORKERS, capped at available CPUs)")
    worker.add_argument("--name", default=None,
                        help="worker name in the service's per-worker "
                             "counters (with --workers N: <name>-<n>)")
    worker.add_argument("--heartbeat-interval", type=float,
                        default=DEFAULT_HEARTBEAT_INTERVAL)
    worker.add_argument("--max-frame-bytes", type=int,
                        default=DEFAULT_MAX_FRAME_BYTES)
    worker.add_argument("--connect-retries", type=int, default=5,
                        help="re-attempts while the service comes up "
                             "(workers may be started first)")
    worker.add_argument("--connect-backoff", type=float,
                        default=DEFAULT_CONNECT_BACKOFF)
    _add_token_arg(worker)
    worker.set_defaults(entry=_worker_cli_main)

    submit = commands.add_parser("submit",
                                 help="submit a campaign or replay matrix")
    submit.add_argument("--url", required=True,
                        help="service job-API host:port")
    submit.add_argument("--kinds", default="McVerSi-RAND")
    submit.add_argument("--faults", default="SQ+no-FIFO,none")
    submit.add_argument("--replay-corpus", default=None,
                        help="replay an ingested trace corpus directory "
                             "instead of a generator matrix")
    submit.add_argument("--shard-traces", type=int, default=25)
    submit.add_argument("--seeds-per-cell", type=int, default=2)
    submit.add_argument("--base-seed", type=int, default=1)
    submit.add_argument("--max-evaluations", type=int, default=20)
    submit.add_argument("--memory-kib", type=int, default=1)
    submit.add_argument("--chunk-evaluations", type=int, default=5)
    submit.add_argument("--verdict-memo", action="store_true")
    _add_token_arg(submit)
    submit.set_defaults(entry=_submit_main)

    status = commands.add_parser("status", help="job status (or all jobs)")
    status.add_argument("--url", required=True)
    status.add_argument("--job", default=None)
    _add_token_arg(status)
    status.set_defaults(entry=_status_main)

    results = commands.add_parser(
        "results", help="fetch a completed job's sweep report")
    results.add_argument("--url", required=True)
    results.add_argument("--job", required=True)
    results.add_argument("--wait", action="store_true",
                         help="block until the job completes")
    results.add_argument("--timeout", type=float, default=300.0)
    _add_token_arg(results)
    results.set_defaults(entry=_results_main)

    cancel = commands.add_parser("cancel", help="cancel a running job")
    cancel.add_argument("--url", required=True)
    cancel.add_argument("--job", required=True)
    _add_token_arg(cancel)
    cancel.set_defaults(entry=_cancel_main)

    metrics = commands.add_parser("metrics",
                                  help="scrape the /metrics endpoint")
    metrics.add_argument("--url", required=True)
    _add_token_arg(metrics)
    metrics.set_defaults(entry=_metrics_main)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.entry(args)


if __name__ == "__main__":
    sys.exit(main())
