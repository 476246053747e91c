"""Wire framing and shared plumbing for the TCP worker plane.

The verification service (:mod:`repro.harness.service`) is the one TCP
coordinator: every sweep on TCP workers is a job on a service, a
long-lived ``python -m repro.harness.service serve`` or the ephemeral
one :func:`~repro.harness.service.run_service_sweep` hosts.  This module
holds the pieces below the service protocol:

* length-prefixed framing (:func:`send_raw_frame` /
  :func:`recv_raw_frame`): an 8-byte big-endian payload length followed
  by the payload, capped at ``max_frame_bytes``.  Truncated frames,
  oversized frames and stalled peers raise :class:`ProtocolError`
  subclasses instead of hanging.  The payload bytes are wire-codec
  frames (:mod:`repro.harness.codec`);
* the transport constants (frame cap, lease, heartbeat, handshake and
  stall timeouts, the poison-chunk re-queue cap);
* address parsing, the bounded connect retry workers use
  (:func:`connect_with_backoff`), the per-worker counters
  (:class:`CoordinatorStats`, :class:`WorkerStats`) and the helpers that
  launch and reap local worker processes.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, field

#: 8-byte big-endian unsigned payload length.
_HEADER = struct.Struct(">Q")
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024
DEFAULT_LEASE_TIMEOUT = 30.0
DEFAULT_HEARTBEAT_INTERVAL = 2.0
DEFAULT_HANDSHAKE_TIMEOUT = 10.0
#: Bound on transmitting one (possibly checkpoint-sized) frame.
SEND_TIMEOUT = 60.0
#: How long a worker waits for the service to *start* replying to a
#: request before declaring the service host dead.  Replies come at once
#: or after a hold far shorter than this, so it only fires on a silent
#: host death or a network partition that drops packets without RST/FIN.
DEFAULT_RESPONSE_TIMEOUT = 300.0
#: Fault-tolerance re-queues allowed per chunk before the job fails:
#: a chunk that keeps killing or stalling every worker that touches it
#: (a poison chunk) must fail the sweep loudly, not livelock it.
MAX_CHUNK_REQUEUES = 5
#: Bounded connect retry (workers may start before their service; see
#: ``--connect-retries``): default backoff seed and its upper clamp.
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
# Length-prefixed framing


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

    The caller encodes (with :mod:`repro.harness.codec`) and this
    only frames.  With
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

    Raises :class:`ConnectionClosed` on clean EOF between frames,
    :class:`TruncatedFrameError` on EOF (or, with ``stall_timeout`` set
    and a socket timeout configured, prolonged silence) mid-frame and
    :class:`FrameTooLargeError` on an oversized announcement — never
    hangs on a malformed peer.  The payload bytes are handed back
    verbatim for the caller's codec to interpret.
    """
    header = _recv_exact(sock, _HEADER.size, idle_ok=idle_ok,
                         stall_timeout=stall_timeout)
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"peer announced a {length}-byte frame "
            f"(max_frame_bytes={max_frame_bytes})")
    return _recv_exact(sock, length, stall_timeout=stall_timeout)


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
# Worker counters


@dataclass
class CoordinatorStats:
    """Per-worker counters the service maintains under its lock."""

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

    @property
    def total_requeues(self) -> int:
        return sum(self.requeues.values())


@dataclass
class WorkerStats:
    """What one worker process contributed to a sweep."""

    chunks: int = 0
    shards_completed: int = 0


def connect_with_backoff(address: object, connect_retries: int = 0,
                         connect_backoff: float = DEFAULT_CONNECT_BACKOFF,
                         timeout: float = 30.0) -> socket.socket:
    """Connect to a service, retrying while it comes up.

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


# ----------------------------------------------------------------------
# Local worker processes


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
