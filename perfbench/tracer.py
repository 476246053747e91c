"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer *where their caller binds
them* (a module attribute or a class attribute) and records one span per
call: its layer, wall duration and self time.  Self time is the span's
thread CPU time minus that of its child spans on the same thread, so
every thread keeps its own parent stack.  CPU time rather than wall time,
because the service workload interleaves worker threads with service
handler threads under one interpreter lock: a span's wall time would also
count the other threads' work while it waited for the lock.  Time spent
blocked on a socket is read from the wall durations instead.  Counts that
the wrapped call returns (simulated events, memo hits, frame bytes, ...)
are recorded at the same boundary.

Spans stay in per-thread memory lists, tagged with the timed round that
was current when they started; :meth:`Tracer.round_stats` folds them
when the run ends.  Nothing inside ``src/`` is modified: :class:`Hooks`
patches attributes and :meth:`Hooks.uninstall` restores the originals.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Worker-side threads of ``run_service_sweep`` are named
#: ``service-worker-<n>``; the service's own handler threads are
#: ``service-worker`` with no suffix.
WORKER_THREAD_PREFIX = "service-worker-"

#: Layers whose span time is blocking on a socket, not work.  They are
#: left out of the attributed share.
WAIT_LAYERS = ("harness.wire.recv",)


@dataclass
class _ThreadLog:
    name: str
    spans: list = field(default_factory=list)  # (round, layer, wall, self)
    counters: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Collects spans and counters; only while :attr:`round` is set."""

    def __init__(self) -> None:
        self.round: int | None = None
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> tuple[list, _ThreadLog]:
        local = self._local
        try:
            return local.stack, local.log
        except AttributeError:
            local.stack = []
            local.log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self._logs.append(local.log)
            return local.stack, local.log

    def wrap(self, layer: str, function, count=None):
        """A traced stand-in for *function*.

        *count*, if given, is called as ``count(args, kwargs, result)``
        and returns ``(counter name, value)`` pairs to add for this call.
        """
        tracer = self
        perf_counter = time.perf_counter
        thread_time = time.thread_time

        def traced(*args, **kwargs):
            current = tracer.round
            if current is None:
                return function(*args, **kwargs)
            stack, log = tracer._log()
            children = [0.0]
            stack.append(children)
            started = perf_counter()
            cpu_started = thread_time()
            try:
                result = function(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu_started
                duration = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += cpu
                log.spans.append((current, layer, duration,
                                  cpu - children[0]))
            if count is not None:
                for name, value in count(args, kwargs, result):
                    log.counters[(current, name)] += value
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", layer)
        return traced

    def round_stats(self, indices: set) -> dict:
        """Per-layer calls, self time and counters of the given rounds."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counters: dict[str, int] = defaultdict(int)
        worker_wait = 0.0
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            worker = log.name.startswith(WORKER_THREAD_PREFIX)
            for index, layer, span_duration, span_self in log.spans:
                if index not in indices:
                    continue
                calls[layer] += 1
                self_s[layer] += span_self
                if worker and layer == "harness.wire.recv":
                    worker_wait += span_duration
            for (index, name), value in log.counters.items():
                if index in indices:
                    counters[name] += value
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counters": dict(counters), "worker_wait_s": worker_wait}


# ----------------------------------------------------------------------
# Hooks: where each layer's public functions are bound


def _sim_counts(args, kwargs, result):
    return (("sim.events", result.kernel_events),
            ("sim.messages", result.messages_sent),
            ("sim.ticks", result.ticks),
            ("sim.deadlocks", int(result.deadlock)),
            ("sim.protocol_errors", int(result.protocol_error is not None)))


def _memo_counts(args, kwargs, result):
    return (("consistency.memo.hits", int(result is not None)),)


def _checker_counts(args, kwargs, result):
    return (("consistency.checker.failed", int(not result.passed)),)


def _ingest_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return (("bridge.ingest.bytes", os.path.getsize(path)),)


def _payload_counts(args, kwargs, result):
    # ``ChunkPayload.of`` returns the payload; ``load`` returns the
    # checkpoint, whose bytes were already counted when it was made.
    data = getattr(result, "data", None)
    return (("harness.parallel.ckpt_bytes", len(data)),) if data else ()


def _send_counts(args, kwargs, result):
    payload = args[1] if len(args) > 1 else kwargs["payload"]
    return (("harness.wire.frames", 1), ("harness.wire.bytes", len(payload)))


def _hook_table():
    """``(owner, attribute, layer, count)`` for every traced boundary.

    Module functions are patched in the module that *calls* them (e.g.
    ``execution_from_trace`` as imported by the checker), because that
    binding is the one production code looks up.
    """
    import repro.bridge.replay as bridge_replay
    import repro.consistency.checker as checker_module
    import repro.core.campaign as campaign_module
    import repro.harness.service as service_module
    from repro.consistency.checker import Checker
    from repro.consistency.memo import VerdictCache
    from repro.core.fitness import AdaptiveCoverageFitness, NdtAugmentedFitness
    from repro.core.generator import RandomTestGenerator
    from repro.core.population import SteadyStateGA
    from repro.harness.parallel import ChunkPayload, ChunkScheduler
    from repro.harness.store import SweepStore
    from repro.sim.system import System

    return [
        (System, "run_iteration", "sim", _sim_counts),
        (RandomTestGenerator, "generate", "core", None),
        (campaign_module, "selective_crossover_mutate", "core", None),
        (campaign_module, "single_point_crossover", "core", None),
        (SteadyStateGA, "select_parents", "core", None),
        (SteadyStateGA, "insert", "core", None),
        (AdaptiveCoverageFitness, "evaluate", "core", None),
        (NdtAugmentedFitness, "evaluate", "core", None),
        (checker_module, "execution_from_trace", "consistency.execution",
         None),
        (checker_module, "execution_signature", "consistency.signature",
         None),
        (VerdictCache, "lookup", "consistency.memo", _memo_counts),
        (Checker, "check", "consistency.checker", _checker_counts),
        (bridge_replay, "load_trace", "bridge.ingest", _ingest_counts),
        (service_module, "execute_chunk_task", "harness.parallel.chunk",
         None),
        (ChunkPayload, "of", "harness.parallel.ckpt", _payload_counts),
        (ChunkPayload, "load", "harness.parallel.ckpt", None),
        (ChunkScheduler, "next_task", "harness.parallel.sched", None),
        (ChunkScheduler, "record", "harness.parallel.sched", None),
        (service_module, "send_raw_frame", "harness.wire.send",
         _send_counts),
        (service_module, "recv_raw_frame", "harness.wire.recv", None),
        (SweepStore, "commit_outcome", "harness.store", None),
        (SweepStore, "create_job", "harness.store", None),
        (SweepStore, "set_job_state", "harness.store", None),
    ]


class Hooks:
    """The installed patches; :meth:`uninstall` restores every original."""

    def __init__(self, tracer: Tracer) -> None:
        self._saved: list[tuple[object, str, object]] = []
        for owner, attribute, layer, count in _hook_table():
            # Look in the owner's own namespace: a hook whose function
            # moved or was renamed must fail loudly, not trace nothing.
            if attribute not in vars(owner):
                raise RuntimeError(
                    f"trace hook {getattr(owner, '__name__', owner)}."
                    f"{attribute} no longer exists; update the hook table")
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                patched = classmethod(
                    tracer.wrap(layer, original.__func__, count))
            else:
                patched = tracer.wrap(layer, original, count)
            setattr(owner, attribute, patched)
            self._saved.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
