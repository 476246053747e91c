"""Cross-host campaign sharding over TCP (coordinator / worker).

The work-stealing scheduler of :mod:`repro.harness.parallel` already
produces exactly the unit a remote worker needs: a picklable
``(CampaignSpec, CampaignCheckpoint)`` chunk
(:class:`repro.harness.parallel.ChunkTask`).  This module serves that
chunked task queue over a TCP socket protocol so a sweep can shard across
hosts:

* :class:`Coordinator` binds a listening socket, hands
  :class:`ChunkTask`\\ s to connecting workers, folds
  :class:`ChunkOutcome`\\ s back through the shared
  :class:`~repro.harness.parallel.ChunkScheduler`, and streams completed
  shards in completion order through the same ``iter_campaigns`` /
  ``SweepAccumulator`` surface as the local transports.
* :func:`run_worker` is the worker client: connect, handshake, pull
  chunks, run them via
  :func:`repro.harness.parallel.execute_chunk_task`, stream results back.
* ``python -m repro.harness.distributed {coordinator,worker}`` is the CLI
  entry point for running either side standalone.

Fault tolerance
---------------
The coordinator owns it entirely, so workers stay trivial:

* every assigned chunk carries a *lease*; the worker's heartbeat thread
  renews it while the chunk computes.  A worker that dies (connection
  drop) or stalls (lease expires without heartbeats) forfeits its chunk,
  which is re-queued for any other worker;
* re-queue is idempotent because chunks are resumable checkpoints: the
  re-run replays bit-for-bit, and stale results from a worker that lost
  its lease (or duplicate completions) are dropped, so a shard result can
  be neither lost nor double-counted;
* on drain (sweep finished) workers are told to shut down gracefully on
  their next request.

Determinism
-----------
Shard seeds and checkpoints are fixed before any transport is involved,
so ``workers=1`` local ≡ N local ≡ N remote, bit for bit — the
distributed test battery (``tests/test_distributed.py``,
``tests/test_determinism_fuzz.py``) asserts this.

Framing
-------
Messages are length-prefixed pickles: an 8-byte big-endian payload length
followed by the pickled message, capped at ``max_frame_bytes``.
Truncated frames, oversized frames and version-mismatched hellos raise
:class:`ProtocolError` subclasses instead of hanging.  Pickle implies
*trusted-cluster* use only: never expose a coordinator or worker to an
untrusted network.

Resume checkpoints cross the wire as pre-serialized
:class:`repro.harness.parallel.ChunkPayload` bytes embedded in the frame:
the worker that paused the chunk pickled the checkpoint exactly once, and
framing a ``bytes`` field is a copy, not a second serialization — see the
*Single-serialization checkpoint transport* section of
:mod:`repro.harness.parallel`.  ``max_checkpoint_bytes`` (default
``max_frame_bytes // 4``) feeds the observed payload sizes back into
chunk sizing so a growing checkpoint shrinks the next chunk instead of
ever hitting the fatal frame cap.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pickle
import queue
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.harness.parallel import (CHECKPOINT_FRAME_FRACTION,
                                    CHUNK_SIZING_FIXED, CHUNK_SIZING_MODES,
                                    DEFAULT_TARGET_CHUNK_SECONDS,
                                    CampaignSpec, ChunkTask,
                                    ShardFailure, ShardResult, SweepConfig,
                                    build_chunk_scheduler, default_workers,
                                    execute_chunk_task, merge_shipped_cache)
from repro.locking import TracedLock, guarded_by, requires_lock

PROTOCOL_MAGIC = "mcversi-distributed"
PROTOCOL_VERSION = 3

#: 8-byte big-endian unsigned payload length.
_HEADER = struct.Struct(">Q")
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024
DEFAULT_LEASE_TIMEOUT = 30.0
DEFAULT_HEARTBEAT_INTERVAL = 2.0
DEFAULT_HANDSHAKE_TIMEOUT = 10.0
#: Bound on transmitting one (possibly checkpoint-sized) frame.
SEND_TIMEOUT = 60.0
#: How long a worker waits for a coordinator to *start* replying to a
#: request before declaring the coordinator host dead.  Replies are sent
#: immediately on request, so this only fires on a silent host death or a
#: network partition that drops packets without RST/FIN.
DEFAULT_RESPONSE_TIMEOUT = 300.0
#: How long an idle worker sleeps before re-requesting work.
IDLE_DELAY = 0.05
#: Fault-tolerance re-queues allowed per chunk before the sweep aborts:
#: a chunk that keeps killing or stalling every worker that touches it
#: (a poison chunk) must fail the sweep loudly, not livelock it.
MAX_CHUNK_REQUEUES = 5
#: Bounded connect retry (workers may start before their coordinator;
#: see ``--connect-retries``): default backoff seed and its upper clamp.
DEFAULT_CONNECT_BACKOFF = 0.5
MAX_CONNECT_BACKOFF = 5.0


# ----------------------------------------------------------------------
# Errors


class ProtocolError(RuntimeError):
    """The peer violated the wire protocol (bad frame, bad handshake)."""


class FrameTooLargeError(ProtocolError):
    """A frame announced a payload larger than ``max_frame_bytes``."""


class TruncatedFrameError(ProtocolError):
    """The connection dropped mid-message (incomplete frame)."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection cleanly at a frame boundary."""


class _IdleTimeout(Exception):
    """Internal: no frame began before the socket timeout (retryable)."""


# ----------------------------------------------------------------------
# Length-prefixed pickle framing


#: Maximum seconds a peer may stall (send no bytes at all) mid-frame
#: before the connection is declared dead.  Requires a socket timeout to
#: tick; trickling data resets the clock, so slow links stay healthy.
DEFAULT_STALL_TIMEOUT = 60.0


def _recv_exact(sock: socket.socket, count: int,
                idle_ok: bool = False,
                stall_timeout: float | None = None) -> bytes:
    """Read exactly ``count`` bytes.

    A socket timeout with *no* bytes read yet raises :class:`_IdleTimeout`
    when ``idle_ok`` (the caller polls at frame boundaries); once a frame
    has started, timeouts keep waiting for more data — but only for
    ``stall_timeout`` seconds of *silence*: a peer that starts a frame and
    then stalls raises :class:`TruncatedFrameError` instead of pinning the
    reader forever (every received byte resets the stall clock).  EOF
    raises :class:`ConnectionClosed` at a frame boundary and
    :class:`TruncatedFrameError` mid-frame.
    """
    chunks: list[bytes] = []
    received = 0
    last_progress = time.monotonic()
    while received < count:
        try:
            chunk = sock.recv(count - received)
        except socket.timeout:
            if idle_ok and not received:
                raise _IdleTimeout from None
            if (stall_timeout is not None
                    and time.monotonic() - last_progress > stall_timeout):
                raise TruncatedFrameError(
                    f"peer stalled mid-message ({received}/{count} bytes "
                    f"received, no data for {stall_timeout}s)") from None
            continue
        if not chunk:
            if received:
                raise TruncatedFrameError(
                    f"connection dropped mid-message ({received}/{count} "
                    "bytes received)")
            raise ConnectionClosed("connection closed by peer")
        chunks.append(chunk)
        received += len(chunk)
        last_progress = time.monotonic()
    return b"".join(chunks)


def send_raw_frame(sock: socket.socket, payload: bytes,
                   max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                   stall_timeout: float | None = None) -> None:
    """Send one length-prefixed payload of already-serialized bytes.

    The codec-agnostic half of :func:`send_frame` — the verification
    service frames restricted-codec payloads through here.  With
    ``stall_timeout`` set (and a short socket timeout configured), the
    transfer is performed in a progress loop: each ``send`` tick may
    time out and retry, and only ``stall_timeout`` seconds with *zero*
    bytes accepted aborts the send.  This lets large (checkpoint-sized)
    frames cross slow links without touching the socket's polling
    timeout — important when another thread is concurrently receiving on
    the same socket.  Without it, a plain ``sendall`` is used, whose
    total duration is capped by the socket timeout.
    """
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(max_frame_bytes={max_frame_bytes}); raise max_frame_bytes "
            "or lower chunk_evaluations to shrink checkpoints")
    data = _HEADER.pack(len(payload)) + payload
    if stall_timeout is None:
        sock.sendall(data)
        return
    view = memoryview(data)
    sent = 0
    last_progress = time.monotonic()
    while sent < len(data):
        try:
            written = sock.send(view[sent:])
        except socket.timeout:
            if time.monotonic() - last_progress > stall_timeout:
                raise TruncatedFrameError(
                    f"peer accepted no data for {stall_timeout}s "
                    f"({sent}/{len(data)} bytes sent)") from None
            continue
        sent += written
        if written:
            last_progress = time.monotonic()


def recv_raw_frame(sock: socket.socket,
                   max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                   idle_ok: bool = False,
                   stall_timeout: float | None = None) -> bytes:
    """Receive one length-prefixed payload, undecoded.

    The codec-agnostic half of :func:`recv_frame`: all the framing
    guarantees (oversize rejection, truncation/stall detection, clean
    EOF) with the payload bytes handed back verbatim for the caller's
    codec to interpret.
    """
    header = _recv_exact(sock, _HEADER.size, idle_ok=idle_ok,
                         stall_timeout=stall_timeout)
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"peer announced a {length}-byte frame "
            f"(max_frame_bytes={max_frame_bytes})")
    return _recv_exact(sock, length, stall_timeout=stall_timeout)


def send_frame(sock: socket.socket, message: object,
               max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
               stall_timeout: float | None = None) -> None:
    """Send one length-prefixed pickled message (trusted-cluster framing).

    See :func:`send_raw_frame` for the transfer semantics.
    """
    send_raw_frame(sock,
                   pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL),
                   max_frame_bytes, stall_timeout=stall_timeout)


def recv_frame(sock: socket.socket,
               max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
               idle_ok: bool = False,
               stall_timeout: float | None = None) -> object:
    """Receive one length-prefixed pickled message.

    Raises :class:`ConnectionClosed` on clean EOF between frames,
    :class:`TruncatedFrameError` on EOF (or, with ``stall_timeout`` set
    and a socket timeout configured, prolonged silence) mid-frame,
    :class:`FrameTooLargeError` on an oversized announcement and
    :class:`ProtocolError` on an undecodable payload — never hangs on a
    malformed peer.
    """
    payload = recv_raw_frame(sock, max_frame_bytes, idle_ok=idle_ok,
                             stall_timeout=stall_timeout)
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise ProtocolError(f"malformed frame payload: {error}") from error


def parse_address(value: object) -> tuple[str, int]:
    """Normalise ``None`` / ``"host:port"`` / ``(host, port)`` addresses.

    IPv6 literals use the standard bracketed form (``"[::1]:8080"``);
    the brackets are stripped from the returned host, which is what
    :func:`socket.create_connection` / :func:`socket.create_server`
    expect.  An unbracketed multi-colon string is rejected as ambiguous
    (``"::1:8080"`` could split almost anywhere) rather than silently
    mis-split.
    """
    if value is None:
        return ("127.0.0.1", 0)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return (str(value[0]), int(value[1]))
    if isinstance(value, str):
        if value.startswith("["):
            host, separator, port = value.rpartition("]:")
            if not separator or not port:
                raise ValueError(f"address {value!r} is not of the form "
                                 "'[ipv6]:port'")
            return (host[1:], int(port))
        host, separator, port = value.rpartition(":")
        if not separator:
            raise ValueError(f"address {value!r} is not of the form "
                             "'host:port'")
        if ":" in host:
            raise ValueError(f"address {value!r} is ambiguous; write IPv6 "
                             "literals as '[ipv6]:port'")
        return (host or "127.0.0.1", int(port))
    raise ValueError(f"cannot parse address {value!r}; expected "
                     "'host:port' or a (host, port) pair")


def format_address(address: tuple[str, int]) -> str:
    """Render a ``(host, port)`` pair, re-bracketing IPv6 literals."""
    host, port = address[0], address[1]
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


# ----------------------------------------------------------------------
# Coordinator


@dataclass
class CoordinatorStats:
    """Observability counters the coordinator maintains under its lock."""

    #: completed *shards* per worker name (per-host progress).
    completed_by_worker: Counter = field(default_factory=Counter)
    #: completed *chunks* per worker name (includes paused chunks).
    chunks_by_worker: Counter = field(default_factory=Counter)
    #: fault-tolerance re-queues per shard index (lease expiry or
    #: disconnect while holding a chunk) — ordinary pause re-queues are
    #: not counted here.
    requeues: Counter = field(default_factory=Counter)
    #: results dropped because the sender had lost its lease.
    stale_results: int = 0
    disconnects: int = 0
    workers_seen: set = field(default_factory=set)
    #: evaluations completed per worker name (from chunk telemetry).
    evaluations_by_worker: Counter = field(default_factory=Counter)
    #: worker-side wall-clock seconds spent computing, per worker name.
    busy_seconds_by_worker: dict = field(default_factory=dict)

    @property
    def total_requeues(self) -> int:
        return sum(self.requeues.values())

    def evals_per_second(self, worker: str) -> float | None:
        """The worker's measured throughput over every chunk it reported."""
        busy = self.busy_seconds_by_worker.get(worker, 0.0)
        if busy <= 0.0:
            return None
        return self.evaluations_by_worker[worker] / busy


@dataclass
class _Lease:
    """One outstanding chunk: who holds it and until when."""

    task: ChunkTask
    worker: str
    deadline: float


@guarded_by("_lock", "_leases", "_connections", "_threads", "stats")
class Coordinator:
    """Serves a sweep's chunked task queue to TCP workers.

    Thread-safety: the coordinator lock ("coordinator") guards lease,
    connection and stats state; it sits at the top of the sanctioned
    hierarchy and may be held while taking the scheduler lock
    ("chunk_scheduler").  The lock is non-reentrant — lock-held helpers
    are marked ``@requires_lock``.

    Construction binds the listening socket (``bind``: a ``(host, port)``
    pair or ``"host:port"`` string, loopback-ephemeral by default) and
    starts the accept and lease-monitor threads, so workers may connect
    immediately; :meth:`serve` streams ``(shard_index, ShardResult)``
    pairs in completion order and :meth:`close` (idempotent, also called
    by ``serve``'s cleanup) drains gracefully: workers receive a shutdown
    reply on their next request.

    ``chunk_evaluations`` seeds the chunk size;
    ``chunk_sizing="adaptive"`` re-sizes dispatched chunks from worker
    telemetry so each takes about ``target_chunk_seconds`` of worker
    wall-clock (see :class:`repro.harness.parallel.ChunkSizeController`).
    ``max_checkpoint_bytes`` (default: a quarter of ``max_frame_bytes``
    when chunking is on) byte-budgets resume checkpoints: a cell whose
    observed checkpoints approach the budget gets smaller chunks,
    minimizing growth per hop and keeping frame headroom.  The budget
    cannot shrink the checkpoint itself (size mostly tracks cumulative
    campaign progress), so a campaign whose checkpoint fundamentally
    exceeds ``max_frame_bytes`` still aborts via the frame-cap backstop.
    ``verdict_memo=True`` turns on collective checking: the coordinator
    folds every outcome's verdict-cache delta into a sweep-wide cache and
    piggybacks its state (capped to a quarter of ``max_frame_bytes``,
    oldest entries trimmed first) on each dispatched task, so every
    worker hits on what every other worker already checked — results
    stay bit-identical, only checker time moves.
    ``hosts_out`` / ``telemetry_out`` are caller-owned mutable mappings
    updated in place (under the coordinator lock) with per-host
    completion counts and live telemetry for progress displays.
    """

    def __init__(self, specs: list[CampaignSpec],
                 chunk_evaluations: int | None = None,
                 chunk_sizing: str = CHUNK_SIZING_FIXED,
                 target_chunk_seconds: float = DEFAULT_TARGET_CHUNK_SECONDS,
                 bind: str | tuple[str, int] | None = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 max_checkpoint_bytes: int | None = None,
                 verdict_memo: bool = False,
                 hosts_out: dict | None = None,
                 telemetry_out: dict | None = None,
                 handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT
                 ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        # Byte-budget derivation (checkpoint budget, cache-shipment cap)
        # lives in build_chunk_scheduler, shared with the verification
        # service so recovered sweeps re-derive the identical scheduler.
        self._scheduler = build_chunk_scheduler(
            specs,
            SweepConfig(chunk_evaluations=chunk_evaluations,
                        chunk_sizing=chunk_sizing,
                        target_chunk_seconds=target_chunk_seconds,
                        max_checkpoint_bytes=max_checkpoint_bytes,
                        verdict_memo=verdict_memo,
                        max_frame_bytes=max_frame_bytes))
        self._lease_timeout = lease_timeout
        self._max_frame_bytes = max_frame_bytes
        self._hosts_out = hosts_out
        self._telemetry_out = telemetry_out
        self._handshake_timeout = handshake_timeout
        self.stats = CoordinatorStats()
        self._lock = TracedLock("coordinator")
        self._leases: dict[int, _Lease] = {}
        self._results: queue.Queue = queue.Queue()
        self._draining = threading.Event()
        self._served = False
        bind_address = parse_address(bind)
        # An IPv6 literal needs the matching socket family; create_server
        # defaults to AF_INET and would refuse to bind "::1".
        family = (socket.AF_INET6 if ":" in bind_address[0]
                  else socket.AF_INET)
        self._listener = socket.create_server(bind_address, family=family)
        self._listener.settimeout(0.2)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._connections: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True,
                                               name="coordinator-accept")
        self._monitor_thread = threading.Thread(target=self._lease_monitor,
                                                daemon=True,
                                                name="coordinator-leases")
        self._accept_thread.start()
        self._monitor_thread.start()

    @classmethod
    def from_config(cls, specs: list[CampaignSpec], config: SweepConfig,
                    bind: str | tuple[str, int] | None = None,
                    hosts_out: dict | None = None,
                    telemetry_out: dict | None = None,
                    handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT
                    ) -> "Coordinator":
        """Build a coordinator from one :class:`SweepConfig`.

        The single place config fields map onto coordinator arguments —
        the CLI and :func:`iter_distributed` both funnel through here.
        ``bind`` overrides ``config.coordinator`` (the CLI's ``--bind``);
        a ``None`` ``max_frame_bytes`` means the default frame cap.
        """
        return cls(specs,
                   chunk_evaluations=config.chunk_evaluations,
                   chunk_sizing=config.chunk_sizing,
                   target_chunk_seconds=config.target_chunk_seconds,
                   bind=bind if bind is not None else config.coordinator,
                   lease_timeout=config.lease_timeout,
                   max_frame_bytes=(config.max_frame_bytes
                                    if config.max_frame_bytes is not None
                                    else DEFAULT_MAX_FRAME_BYTES),
                   max_checkpoint_bytes=config.max_checkpoint_bytes,
                   verdict_memo=config.verdict_memo,
                   hosts_out=hosts_out, telemetry_out=telemetry_out,
                   handshake_timeout=handshake_timeout)

    # -- host-facing surface -------------------------------------------

    def serve(self) -> Iterator[tuple[int, ShardResult]]:
        """Yield completed shards until the sweep drains (or a shard fails)."""
        if self._served:
            raise RuntimeError("Coordinator.serve() may only be called once")
        self._served = True
        try:
            while True:
                try:
                    kind, payload = self._results.get(timeout=0.2)
                except queue.Empty:
                    with self._lock:
                        if self._scheduler.done and self._results.empty():
                            return
                    continue
                if kind == "error":
                    raise payload
                yield payload
        finally:
            self.close()

    def close(self) -> None:
        """Drain gracefully: stop accepting, shut workers down, join."""
        self._draining.set()
        with contextlib.suppress(OSError):  # pragma: no cover - already closed
            self._listener.close()
        self._accept_thread.join(timeout=2.0)
        # Idle workers poll every IDLE_DELAY seconds and receive a shutdown
        # reply on their next request; give the handlers a moment to say
        # goodbye before force-closing whatever is left (e.g. a worker
        # still grinding a stale chunk).
        deadline = time.monotonic() + 3.0
        # Snapshot under the lock, then join outside it (joining a
        # handler thread that itself wants the lock would deadlock).
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):  # pragma: no cover - defensive cleanup
                connection.close()
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=1.0)
        self._monitor_thread.join(timeout=2.0)

    @property
    def pending(self) -> int:
        with self._lock:
            return self._scheduler.pending

    @property
    def active_workers(self) -> int:
        """Worker connections currently open."""
        with self._lock:
            return len(self._connections)

    def abort(self, error: BaseException) -> None:
        """Fail the sweep: :meth:`serve` raises *error* on its next get."""
        self._results.put(("error", error))

    # -- accept / lease machinery --------------------------------------

    def _accept_loop(self) -> None:
        while not self._draining.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            handler = threading.Thread(target=self._handle,
                                       args=(connection,), daemon=True,
                                       name="coordinator-worker")
            with self._lock:
                self._connections.append(connection)
                self._threads.append(handler)
            handler.start()

    def _lease_monitor(self) -> None:
        while not self._draining.is_set():
            time.sleep(0.2)
            now = time.monotonic()
            with self._lock:
                expired = [(index, lease)
                           for index, lease in self._leases.items()
                           if lease.deadline < now]
                for index, lease in expired:
                    # The holder stalled (no heartbeats): forfeit the
                    # chunk.  If the holder ever reports it after all,
                    # the result is dropped as stale.
                    del self._leases[index]
                    self._requeue_lost(lease)

    def _handle(self, connection: socket.socket) -> None:
        connection.settimeout(0.5)
        lease: _Lease | None = None
        name = "<unknown>"
        try:
            name = self._handshake(connection)
            if name is None:
                # Drained during the handshake: the worker was told to
                # shut down cleanly — not a disconnect, never a lease.
                return
            with self._lock:
                self.stats.workers_seen.add(name)
            while True:
                try:
                    message = recv_frame(connection, self._max_frame_bytes,
                                         idle_ok=True,
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
                    lease = self._record(message[1], lease, name)
                elif kind == "goodbye":
                    return
                else:
                    raise ProtocolError(f"unknown message kind {kind!r}")
        except (ProtocolError, OSError):
            with self._lock:
                self.stats.disconnects += 1
        finally:
            self._forfeit(lease)
            with contextlib.suppress(OSError):  # pragma: no cover - defensive cleanup
                connection.close()
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _handshake(self, connection: socket.socket) -> str | None:
        """Validate a hello; ``None``: drained — worker was shut down cleanly.

        A worker that connects while the coordinator is draining gets a
        clean ``("shutdown",)`` frame in place of the welcome (and exits
        normally) instead of an error teardown — and, crucially, is
        never handed a task whose lease nothing would ever collect.
        """
        # A connected peer that never sends a hello (a port probe, a
        # monitoring check, a stray `nc`) must not pin this handler — and
        # must not count as an active worker forever, which would defeat
        # the all-spawned-workers-dead watchdog.
        deadline = time.monotonic() + self._handshake_timeout
        while True:
            try:
                hello = recv_frame(connection, self._max_frame_bytes,
                                   idle_ok=True,
                                   stall_timeout=self._handshake_timeout)
                break
            except _IdleTimeout:
                if self._draining.is_set():
                    # Draining with no hello yet: tell the peer (a late
                    # worker, most likely) to shut down rather than
                    # leaving it to time out against a dead port.
                    send_frame(connection, ("shutdown",))
                    return None
                if time.monotonic() > deadline:
                    raise ProtocolError(
                        "peer sent no hello within the handshake "
                        f"timeout ({self._handshake_timeout}s)") from None
        if (not isinstance(hello, tuple) or len(hello) != 4
                or hello[0] != "hello" or hello[1] != PROTOCOL_MAGIC):
            send_frame(connection, ("error", "not a mcversi worker hello"))
            raise ProtocolError("peer did not send a valid hello")
        if hello[2] != PROTOCOL_VERSION:
            send_frame(connection, (
                "error",
                f"protocol version mismatch: coordinator speaks "
                f"{PROTOCOL_VERSION}, worker speaks {hello[2]}"))
            raise ProtocolError(f"worker protocol version {hello[2]} != "
                                f"{PROTOCOL_VERSION}")
        if self._draining.is_set():
            # Late-handshake drain race: a valid worker arrived after
            # close() began.  Shut it down cleanly instead of welcoming
            # it into a sweep that is already over.
            send_frame(connection, ("shutdown",))
            return None
        send_frame(connection, ("welcome", PROTOCOL_MAGIC, PROTOCOL_VERSION,
                                self._scheduler.total))
        return str(hello[3])

    def _reply_to_request(self, connection: socket.socket,
                          name: str) -> tuple[_Lease | None, bool]:
        """Reply to a work request: ``(assigned lease, sent shutdown?)``.

        The lease is registered *before* the task frame is sent, so an
        assignment that never reaches the worker is forfeited (re-queued)
        immediately instead of waiting for the lease monitor.
        """
        with self._lock:
            if self._scheduler.done or self._draining.is_set():
                send_frame(connection, ("shutdown",))
                return None, True
            task = self._scheduler.next_task()
            if task is None:
                send_frame(connection, ("idle", IDLE_DELAY))
                return None, False
            lease = _Lease(task=task, worker=name,
                           deadline=time.monotonic() + self._lease_timeout)
            self._leases[task.index] = lease
        try:
            send_frame(connection, ("task", task), self._max_frame_bytes,
                       stall_timeout=SEND_TIMEOUT)
        except FrameTooLargeError as error:
            # Deterministic failure: this chunk's frame will never fit, so
            # re-queuing it would only poison worker after worker.  Fail
            # the sweep with the actionable message instead.
            self.abort(RuntimeError(
                f"shard {task.index} "
                f"({self._scheduler.specs[task.index].describe()}) cannot "
                f"be dispatched: {error}"))
            with self._lock:
                if self._leases.get(task.index) is lease:
                    del self._leases[task.index]
            raise
        except (OSError, ProtocolError):
            self._forfeit(lease)
            raise
        # The transfer itself may have consumed a large part of the lease
        # (and this thread cannot process heartbeat renewals while blocked
        # in sendall), so the lease clock starts when the worker actually
        # has the task.
        with self._lock:
            if self._leases.get(task.index) is lease:
                lease.deadline = time.monotonic() + self._lease_timeout
        return lease, False

    def _renew(self, lease: _Lease | None) -> None:
        if lease is None:
            return
        with self._lock:
            if self._leases.get(lease.task.index) is lease:
                lease.deadline = time.monotonic() + self._lease_timeout

    def _record(self, outcome, lease: _Lease | None,
                name: str) -> _Lease | None:
        """Fold a worker's ChunkOutcome in; drop it if the lease was lost."""
        with self._lock:
            index = outcome.index
            if lease is None or lease.task.index != index \
                    or self._leases.get(index) is not lease:
                # The lease expired and the chunk was re-queued (or already
                # completed elsewhere): this result is a duplicate replay,
                # bit-identical by determinism, so dropping it is safe.
                self.stats.stale_results += 1
                return None
            del self._leases[index]
            self.stats.chunks_by_worker[name] += 1
            if outcome.telemetry is not None:
                self.stats.evaluations_by_worker[name] += \
                    outcome.telemetry.evaluations
                self.stats.busy_seconds_by_worker[name] = (
                    self.stats.busy_seconds_by_worker.get(name, 0.0)
                    + outcome.telemetry.wall_seconds)
            try:
                completed = self._scheduler.record(outcome)
            except ShardFailure as error:
                self._results.put(("error", error))
                raise ProtocolError("shard failed; dropping worker") from error
            if self._telemetry_out is not None:
                self._telemetry_out.update(
                    self._scheduler.telemetry_snapshot())
                self._telemetry_out["hosts"] = {
                    worker: round(rate, 2)
                    for worker in sorted(self.stats.workers_seen)
                    if (rate := self.stats.evals_per_second(worker))
                    is not None}
            if completed is not None:
                self.stats.completed_by_worker[name] += 1
                if self._hosts_out is not None:
                    self._hosts_out[name] = self.stats.completed_by_worker[name]
                self._results.put(("shard", completed))
        return None

    def _forfeit(self, lease: _Lease | None) -> None:
        """Re-queue the chunk a dying connection still holds (exactly once)."""
        if lease is None:
            return
        with self._lock:
            if self._leases.get(lease.task.index) is lease:
                del self._leases[lease.task.index]
                self._requeue_lost(lease)

    @requires_lock("_lock")
    def _requeue_lost(self, lease: _Lease) -> None:
        """Re-queue a forfeited chunk; abort the sweep if it is poison.

        Caller holds the lock.  A chunk that has burned through
        ``MAX_CHUNK_REQUEUES`` workers (each re-queue means a worker died
        or stalled while holding it) would keep consuming workers forever;
        fail the sweep with the shard's identity instead.
        """
        index = lease.task.index
        self._scheduler.requeue(lease.task)
        self.stats.requeues[index] += 1
        if self.stats.requeues[index] > MAX_CHUNK_REQUEUES:
            self._results.put(("error", RuntimeError(
                f"shard {index} ({self._scheduler.specs[index].describe()}) "
                f"was re-queued {self.stats.requeues[index]} times after "
                "repeated worker loss; aborting the sweep (poison chunk?)")))


# ----------------------------------------------------------------------
# Worker client


@dataclass
class WorkerStats:
    """What one worker process contributed to a sweep."""

    chunks: int = 0
    shards_completed: int = 0


def connect_with_backoff(address: object, connect_retries: int = 0,
                         connect_backoff: float = DEFAULT_CONNECT_BACKOFF,
                         timeout: float = 30.0) -> socket.socket:
    """Connect to a coordinator/service, retrying while it comes up.

    Bounded exponential backoff (doubling from ``connect_backoff``,
    clamped at :data:`MAX_CONNECT_BACKOFF`) over ``connect_retries``
    re-attempts, so workers may be launched *before* the server binds —
    the service-started-last bringup order.  The final failure
    propagates as the underlying ``OSError``.
    """
    host, port = parse_address(address)
    attempt = 0
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError:
            if attempt >= connect_retries:
                raise
            time.sleep(min(connect_backoff * (2 ** attempt),
                           MAX_CONNECT_BACKOFF))
            attempt += 1


def run_worker(address: object, name: str | None = None,
               heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
               max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
               response_timeout: float = DEFAULT_RESPONSE_TIMEOUT,
               connect_retries: int = 0,
               connect_backoff: float = DEFAULT_CONNECT_BACKOFF,
               chaos_die_after_chunks: int | None = None,
               chaos_hang_after_chunks: int | None = None) -> WorkerStats:
    """Connect to a coordinator and pull chunks until told to shut down.

    The heartbeat thread keeps the worker's lease alive while a chunk
    computes; a coordinator that stops replying for ``response_timeout``
    seconds (silent host death, network partition) makes the worker exit
    with an error instead of blocking forever.  ``connect_retries`` >
    0 retries a refused/unreachable initial connect with exponential
    backoff (seeded by ``connect_backoff``), so the worker may be
    started before its coordinator.  The two ``chaos_*`` hooks
    exist for the fault-tolerance test battery: after ``N`` completed
    chunks the worker either dies abruptly on its next assignment
    (``os._exit``, like a SIGKILL — the coordinator sees the connection
    drop) or hangs silently without heartbeating (the coordinator sees
    the lease expire).
    """
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    sock = connect_with_backoff(address, connect_retries=connect_retries,
                                connect_backoff=connect_backoff)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    sock.settimeout(0.5)
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(message: object) -> None:
        # The progress-loop send keeps the socket's 0.5s polling timeout
        # untouched (the main thread may be concurrently receiving on it)
        # while still letting checkpoint-sized result frames take up to
        # SEND_TIMEOUT of stalled-peer silence.
        with send_lock:
            send_frame(sock, message, max_frame_bytes,
                       stall_timeout=SEND_TIMEOUT)

    def recv_reply() -> object:
        """One coordinator reply, bounded by ``response_timeout``."""
        deadline = time.monotonic() + response_timeout
        while True:
            try:
                return recv_frame(sock, max_frame_bytes, idle_ok=True,
                                  stall_timeout=DEFAULT_STALL_TIMEOUT)
            except _IdleTimeout:
                if time.monotonic() > deadline:
                    raise ProtocolError(
                        "coordinator sent no reply within "
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
        send(("hello", PROTOCOL_MAGIC, PROTOCOL_VERSION, worker_name))
        welcome = recv_reply()
        if isinstance(welcome, tuple) and welcome and welcome[0] == "error":
            raise ProtocolError(f"coordinator rejected worker: {welcome[1]}")
        if isinstance(welcome, tuple) and welcome \
                and welcome[0] == "shutdown":
            # The coordinator is already draining (late-handshake race):
            # a clean no-work shutdown, not an error.
            return stats
        if (not isinstance(welcome, tuple) or len(welcome) != 4
                or welcome[0] != "welcome" or welcome[1] != PROTOCOL_MAGIC):
            raise ProtocolError("coordinator did not send a valid welcome")
        if welcome[2] != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: worker speaks "
                f"{PROTOCOL_VERSION}, coordinator speaks {welcome[2]}")
        heartbeats = threading.Thread(target=heartbeat_loop, daemon=True,
                                      name="worker-heartbeats")
        heartbeats.start()
        # Collective checking: one persistent cache across every chunk
        # this worker runs, fed by the sweep-wide shipment each
        # cache-bearing task carries (see parallel.merge_shipped_cache).
        verdict_cache = None
        while True:
            send(("request",))
            message = recv_reply()
            if not isinstance(message, tuple) or not message:
                raise ProtocolError("coordinator sent a malformed reply")
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
            if kind != "task":
                raise ProtocolError(f"unknown coordinator message {kind!r}")
            task = message[1]
            if (chaos_die_after_chunks is not None
                    and stats.chunks >= chaos_die_after_chunks):
                # Chaos hook: die abruptly while holding an assigned chunk
                # (equivalent to a SIGKILL mid-chunk).
                os._exit(137)
            if (chaos_hang_after_chunks is not None
                    and stats.chunks >= chaos_hang_after_chunks):
                # Chaos hook: stall silently — stop heartbeating so the
                # coordinator's lease expires and re-queues the chunk.
                stop.set()
                time.sleep(3600.0)
            if task.cache is not None:
                verdict_cache = merge_shipped_cache(task.cache, verdict_cache)
                outcome = execute_chunk_task(task,
                                             verdict_cache=verdict_cache)
            else:
                outcome = execute_chunk_task(task)
            stats.chunks += 1
            if outcome.shard is not None:
                stats.shards_completed += 1
            send(("result", outcome))
    finally:
        stop.set()
        with contextlib.suppress(OSError):  # pragma: no cover - defensive cleanup
            sock.close()


# ----------------------------------------------------------------------
# Host-side orchestration (the transport="tcp" entry point)


def _worker_environment() -> dict[str, str]:
    """Environment for spawned workers: make ``repro`` importable."""
    environment = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    existing = environment.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        environment["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else ""))
    return environment


def spawn_local_workers(address: tuple[str, int], count: int,
                        name_prefix: str = "worker",
                        extra_args: tuple[str, ...] = ()
                        ) -> list[subprocess.Popen]:
    """Spawn ``count`` loopback worker processes against a coordinator."""
    processes = []
    for index in range(count):
        command = [sys.executable, "-m", "repro.harness.distributed",
                   "worker", "--connect", format_address(address),
                   "--workers", "1", "--name", f"{name_prefix}-{index}",
                   *extra_args]
        processes.append(subprocess.Popen(command,
                                          env=_worker_environment(),
                                          stdout=subprocess.DEVNULL))
    return processes


def reap_workers(processes: list[subprocess.Popen],
                 timeout: float = 10.0) -> None:
    """Wait for spawned workers to exit; escalate to terminate/kill."""
    deadline = time.monotonic() + timeout
    for process in processes:
        try:
            process.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                process.kill()
                process.wait(timeout=2.0)


def _watch_spawned_workers(server: Coordinator,
                           processes: list[subprocess.Popen],
                           stop: threading.Event) -> None:
    """Fail the sweep loudly if every spawned worker dies mid-sweep.

    Counterpart of the local transport's dead-worker detection: with no
    spawned worker left alive and no other connection open, the queue can
    never drain, so abort instead of letting :meth:`Coordinator.serve`
    block forever.  External workers (connections the watchdog can see)
    keep the sweep alive even after every spawned process is gone.
    """
    while not stop.wait(0.5):
        if server.pending == 0:
            return
        if any(process.poll() is None for process in processes):
            continue
        if server.active_workers:
            continue
        codes = sorted({process.returncode for process in processes})
        server.abort(RuntimeError(
            f"all {len(processes)} spawned worker process(es) exited with "
            f"code(s) {codes} while {server.pending} shard(s) were still "
            "pending"))
        return


def iter_distributed(specs: list[CampaignSpec],
                     coordinator: Coordinator | None = None,
                     workers: int = 1,
                     chunk_evaluations: int | None = None,
                     chunk_sizing: str = CHUNK_SIZING_FIXED,
                     target_chunk_seconds: float = DEFAULT_TARGET_CHUNK_SECONDS,
                     max_checkpoint_bytes: int | None = None,
                     verdict_memo: bool = False,
                     lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                     max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                     hosts_out: dict | None = None,
                     telemetry_out: dict | None = None
                     ) -> Iterator[tuple[int, ShardResult]]:
    """Serve ``specs`` over TCP, yielding shards in completion order.

    The calling process becomes the coordinator (bound to ``coordinator``,
    loopback-ephemeral by default) and ``workers`` local worker processes
    are spawned against it; ``workers=0`` spawns none and waits for
    external workers to connect.  Binding and spawning happen eagerly (at
    call time); results stream through the returned iterator.
    ``chunk_sizing="adaptive"`` re-sizes chunks from worker telemetry and
    ``max_checkpoint_bytes`` byte-budgets checkpoints (default: derived
    from ``max_frame_bytes``; see
    :class:`repro.harness.parallel.ChunkSizeController`);
    ``verdict_memo=True`` memoizes checker verdicts sweep-wide (see
    :class:`Coordinator`); ``telemetry_out`` receives live per-cell and
    per-host throughput.
    """
    server = Coordinator.from_config(
        specs,
        SweepConfig(chunk_evaluations=chunk_evaluations,
                    chunk_sizing=chunk_sizing,
                    target_chunk_seconds=target_chunk_seconds,
                    max_checkpoint_bytes=max_checkpoint_bytes,
                    verdict_memo=verdict_memo,
                    transport="tcp", coordinator=coordinator,
                    lease_timeout=lease_timeout,
                    max_frame_bytes=max_frame_bytes),
        hosts_out=hosts_out, telemetry_out=telemetry_out)
    worker_args: tuple[str, ...] = ()
    if max_frame_bytes != DEFAULT_MAX_FRAME_BYTES:
        # Spawned workers must agree with the coordinator's frame cap, or
        # a frame the coordinator considers fine would be rejected (or an
        # oversized one accepted) on the other side.
        worker_args = ("--max-frame-bytes", str(max_frame_bytes))

    def stream() -> Iterator[tuple[int, ShardResult]]:
        # Workers are spawned lazily, on first advance: an iterator that
        # is created but never consumed must not leave subprocesses
        # chewing through the sweep with nobody collecting results (the
        # cleanup below only runs once iteration has started).
        processes: list[subprocess.Popen] = []
        stop_watchdog = threading.Event()
        watchdog = None
        try:
            processes = spawn_local_workers(server.address, workers,
                                            extra_args=worker_args)
            if processes:
                watchdog = threading.Thread(
                    target=_watch_spawned_workers,
                    args=(server, processes, stop_watchdog),
                    daemon=True, name="worker-watchdog")
                watchdog.start()
            yield from server.serve()
        finally:
            stop_watchdog.set()
            server.close()
            if watchdog is not None:
                watchdog.join(timeout=2.0)
            reap_workers(processes)

    return stream()


# ----------------------------------------------------------------------
# CLI


def _coordinator_main(args: argparse.Namespace) -> int:
    from repro.core.campaign import GeneratorKind
    from repro.core.config import GeneratorConfig
    from repro.harness.parallel import SweepAccumulator, campaign_matrix
    from repro.harness.reporting import ProgressPrinter, format_sweep_report
    from repro.sim.config import SystemConfig
    from repro.sim.faults import Fault

    if args.replay_corpus is not None:
        # Replay mode: shard an ingested corpus instead of a generator
        # matrix (the trace-ingestion bridge, repro.bridge).
        from repro.bridge.replay import replay_specs
        specs = replay_specs(args.replay_corpus,
                             shard_traces=args.shard_traces,
                             base_seed=args.base_seed)
    else:
        kinds = [GeneratorKind(value) for value in args.kinds.split(",")]
        faults = [None if value.lower() in ("none", "correct")
                  else Fault(value) for value in args.faults.split(",")]
        config = GeneratorConfig.quick(memory_kib=args.memory_kib)
        specs = campaign_matrix(kinds=kinds, faults=faults,
                                generator_config=config,
                                system_config=SystemConfig(),
                                max_evaluations=args.max_evaluations,
                                seeds_per_cell=args.seeds_per_cell,
                                base_seed=args.base_seed)
    hosts: dict[str, int] = {}
    telemetry: dict = {}
    # The CLI's single SweepConfig construction: every orchestration
    # flag folds into the config, which from_config maps onto the
    # coordinator in one place.
    sweep_config = SweepConfig(
        chunk_evaluations=args.chunk_evaluations,
        chunk_sizing=args.chunk_sizing,
        target_chunk_seconds=args.target_chunk_seconds,
        max_checkpoint_bytes=args.max_checkpoint_bytes,
        verdict_memo=args.verdict_memo,
        transport="tcp",
        lease_timeout=args.lease_timeout,
        max_frame_bytes=args.max_frame_bytes)
    server = Coordinator.from_config(specs, sweep_config, bind=args.bind,
                                     hosts_out=hosts,
                                     telemetry_out=telemetry)
    worker_command = (f"python -m repro.harness.distributed worker "
                      f"--connect {format_address(server.address)}")
    if args.max_frame_bytes != DEFAULT_MAX_FRAME_BYTES:
        # Both sides enforce the frame cap; a copy-pasted worker command
        # must carry the coordinator's value or oversized frames kill
        # every worker that receives one.
        worker_command += f" --max-frame-bytes {args.max_frame_bytes}"
    print(f"coordinator listening on {format_address(server.address)} "
          f"({len(specs)} shards); start workers with:\n"
          f"  {worker_command}", flush=True)
    accumulator = SweepAccumulator(total=len(specs))
    printer = ProgressPrinter(total=len(specs))
    try:
        for index, shard in server.serve():
            accumulator.add(index, shard)
            printer.update(completed=accumulator.completed,
                           found=accumulator.found_count,
                           elapsed_seconds=accumulator.elapsed_seconds,
                           hosts=hosts, telemetry=telemetry)
        printer.finish()
    finally:
        server.close()
    report = accumulator.finalize()
    if args.replay_corpus is not None:
        from repro.harness.reporting import format_replay_report
        print(format_replay_report(report, title="Distributed replay sweep"))
    else:
        print(format_sweep_report(report, title="Distributed sweep"))
    for worker_name in sorted(server.stats.workers_seen):
        rate = server.stats.evals_per_second(worker_name)
        rate_note = f", {rate:.1f} evals/s" if rate is not None else ""
        print(f"  {worker_name}: "
              f"{server.stats.completed_by_worker[worker_name]} shard(s), "
              f"{server.stats.chunks_by_worker[worker_name]} chunk(s)"
              f"{rate_note}")
    if server.stats.total_requeues:
        print(f"  re-queued {server.stats.total_requeues} chunk(s) from "
              "dead or stalled workers")
    return 0


def resolve_worker_count(requested: int | None) -> int:
    """Worker processes a worker CLI invocation should run.

    An explicit ``--workers`` wins; otherwise ``REPRO_WORKERS`` (capped at
    the CPUs this process may use) via
    :func:`repro.harness.parallel.default_workers`.
    """
    if requested is None:
        return default_workers()
    if requested < 1:
        raise ValueError("--workers must be at least 1")
    return requested


def _worker_main(args: argparse.Namespace) -> int:
    try:
        count = resolve_worker_count(args.workers)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    chaos = dict(chaos_die_after_chunks=args.chaos_die_after_chunks,
                 chaos_hang_after_chunks=args.chaos_hang_after_chunks,
                 max_frame_bytes=args.max_frame_bytes,
                 connect_retries=args.connect_retries,
                 connect_backoff=args.connect_backoff)
    if count == 1:
        stats = run_worker(args.connect, name=args.name,
                           heartbeat_interval=args.heartbeat_interval,
                           **chaos)
        print(f"worker finished: {stats.chunks} chunk(s), "
              f"{stats.shards_completed} shard(s) completed")
        return 0
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    base = args.name or f"{socket.gethostname()}-{os.getpid()}"
    processes = [
        context.Process(target=run_worker, args=(args.connect,),
                        kwargs=dict(name=f"{base}-{index}",
                                    heartbeat_interval=args.heartbeat_interval,
                                    **chaos),
                        daemon=False)
        for index in range(count)]
    for process in processes:
        process.start()
    exit_code = 0
    for process in processes:
        process.join()
        if process.exitcode:
            exit_code = 1
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.distributed",
        description="Cross-host campaign sharding: TCP coordinator/worker.")
    commands = parser.add_subparsers(dest="command", required=True)

    coordinator = commands.add_parser(
        "coordinator", help="serve a campaign matrix to TCP workers")
    coordinator.add_argument("--bind", default="127.0.0.1:0",
                             help="host:port to listen on (port 0: ephemeral)")
    coordinator.add_argument("--kinds", default="McVerSi-RAND",
                             help="comma-separated GeneratorKind values")
    coordinator.add_argument("--faults", default="SQ+no-FIFO,none",
                             help="comma-separated Fault paper names "
                                  "('none' for the correct system)")
    coordinator.add_argument("--replay-corpus", default=None,
                             help="replay an ingested trace corpus "
                                  "directory instead of running a "
                                  "generator matrix (repro.bridge)")
    coordinator.add_argument("--shard-traces", type=int, default=25,
                             help="trace files per replay shard "
                                  "(with --replay-corpus)")
    coordinator.add_argument("--seeds-per-cell", type=int, default=2)
    coordinator.add_argument("--base-seed", type=int, default=1)
    coordinator.add_argument("--max-evaluations", type=int, default=20)
    coordinator.add_argument("--chunk-evaluations", type=int, default=5)
    coordinator.add_argument("--chunk-sizing", choices=CHUNK_SIZING_MODES,
                             default=CHUNK_SIZING_FIXED,
                             help="'adaptive' re-sizes chunks from worker "
                                  "telemetry so each takes about "
                                  "--target-chunk-seconds of worker time")
    coordinator.add_argument("--target-chunk-seconds", type=float,
                             default=DEFAULT_TARGET_CHUNK_SECONDS,
                             help="worker wall-clock an adaptively sized "
                                  "chunk should take")
    coordinator.add_argument("--memory-kib", type=int, default=1)
    coordinator.add_argument("--lease-timeout", type=float,
                             default=DEFAULT_LEASE_TIMEOUT,
                             help="seconds before a silent worker's chunk "
                                  "is re-queued")
    coordinator.add_argument("--max-frame-bytes", type=int,
                             default=DEFAULT_MAX_FRAME_BYTES,
                             help="hard cap on one wire frame (workers "
                                  "must be started with the same value)")
    coordinator.add_argument("--max-checkpoint-bytes", type=int,
                             default=None,
                             help="checkpoint byte budget: shrink a "
                                  "cell's chunks as its checkpoints "
                                  "approach this size (default: "
                                  "max-frame-bytes/"
                                  f"{CHECKPOINT_FRAME_FRACTION})")
    coordinator.add_argument("--verdict-memo", action="store_true",
                             help="memoize checker verdicts sweep-wide: "
                                  "workers ship exact-graph cache "
                                  "deltas back with each chunk and the "
                                  "folded cache rides out on dispatch")
    coordinator.set_defaults(entry=_coordinator_main)

    worker = commands.add_parser(
        "worker", help="pull chunks from a coordinator and run them")
    worker.add_argument("--connect", required=True,
                        help="coordinator host:port")
    worker.add_argument("--workers", type=int, default=None,
                        help="worker processes to run (default: "
                             "REPRO_WORKERS, capped at available CPUs)")
    worker.add_argument("--name", default=None,
                        help="worker name shown in coordinator progress")
    worker.add_argument("--heartbeat-interval", type=float,
                        default=DEFAULT_HEARTBEAT_INTERVAL)
    worker.add_argument("--max-frame-bytes", type=int,
                        default=DEFAULT_MAX_FRAME_BYTES,
                        help="hard cap on one wire frame (match the "
                             "coordinator's value)")
    worker.add_argument("--connect-retries", type=int, default=0,
                        help="re-attempts if the coordinator is not up "
                             "yet (exponential backoff; lets workers be "
                             "launched before the coordinator/service)")
    worker.add_argument("--connect-backoff", type=float,
                        default=DEFAULT_CONNECT_BACKOFF,
                        help="initial retry backoff in seconds (doubles "
                             f"per attempt, capped at "
                             f"{MAX_CONNECT_BACKOFF:g}s)")
    worker.add_argument("--chaos-die-after-chunks", type=int, default=None,
                        help="fault-tolerance testing: die abruptly (like "
                             "SIGKILL) on the next assignment after N chunks")
    worker.add_argument("--chaos-hang-after-chunks", type=int, default=None,
                        help="fault-tolerance testing: hang without "
                             "heartbeats on the next assignment after N "
                             "chunks")
    worker.set_defaults(entry=_worker_main)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.entry(args)


if __name__ == "__main__":
    sys.exit(main())
