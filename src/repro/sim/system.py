"""Full simulated system: cores + L1s + directory/L2 + network + memory.

A :class:`System` executes one *iteration* of a test (one execution of every
thread's operation sequence) and returns an :class:`IterationResult` holding
the observed conflict orders, any protocol error, and deadlock information.
The verification engine (:mod:`repro.core.engine`) runs several iterations
per test-run, resetting test memory in between, exactly as the guest kernel
of paper Algorithm 2 does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.sim.coherence.mesi_l1 import MesiL1Cache
from repro.sim.coherence.mesi_l2 import MesiDirectory
from repro.sim.coherence.tso_cc import TsoCcDirectory, TsoCcL1Cache
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.faults import Fault, FaultSet, ProtocolError
from repro.sim.host import HostAssistedBarrier
from repro.sim.interconnect import Interconnect
from repro.sim.kernel import SimKernel, SimulationLimitError
from repro.sim.memory import MainMemory
from repro.sim.pipeline.core import CoreEngine
from repro.sim.testprogram import TestThread
from repro.sim.trace import ExecutionTrace


@dataclass
class IterationResult:
    """Outcome of one test iteration."""

    trace: ExecutionTrace
    protocol_error: str | None = None
    deadlock: bool = False
    ticks: int = 0
    loads_squashed: int = 0
    kernel_events: int = 0
    messages_sent: int = 0

    @property
    def clean(self) -> bool:
        """True when the iteration completed without protocol error/deadlock."""
        return self.protocol_error is None and not self.deadlock


class _Machine:
    """The simulated hardware for one tuple of thread ids.

    Built and wired once: memory, network, directory, and an L1 and a
    core per thread id.  :meth:`reset` then puts every component in the
    state a new one would have, before each iteration.  Each
    component's constructor calls its own ``reset``, so per-iteration
    state is assigned in exactly one place.
    """

    def __init__(self, pids: tuple[int, ...], config: SystemConfig,
                 faults: FaultSet, coverage: CoverageCollector,
                 max_ticks: int) -> None:
        self.built_for = (pids, config, faults, coverage, max_ticks)
        self.kernel = kernel = SimKernel(max_ticks=max_ticks)
        self.memory = MainMemory(config.memory_latency_min,
                                 config.memory_latency_max)
        self.network = network = Interconnect(kernel,
                                              config.network_latency_min,
                                              config.network_latency_max)
        if config.protocol == "MESI":
            directory_class, l1_class = MesiDirectory, MesiL1Cache
        else:
            directory_class, l1_class = TsoCcDirectory, TsoCcL1Cache
        self.directory = directory_class(kernel, network, config, self.memory,
                                         coverage, faults)
        self.l1s = []
        self.cores: list[CoreEngine] = []
        # A core's RNG feeds only the SQ+no-FIFO drain order.
        self._no_fifo = faults.enabled(Fault.SQ_NO_FIFO)
        # Each core idles on an empty thread until ``reset`` loads one.
        idle = ExecutionTrace()
        for pid in pids:
            l1 = l1_class(pid, kernel, network, config, coverage, faults)
            core = CoreEngine(pid, kernel, l1, TestThread(pid), idle, config,
                              faults, None)
            l1.invalidation_listener = core.on_invalidation
            core.on_done = self._core_done
            self.l1s.append(l1)
            self.cores.append(core)

    def reset(self, threads: list[TestThread], seed: int,
              trace: ExecutionTrace, offsets: list[int]) -> None:
        """Load one iteration: *threads* onto the cores, *seed* into the RNG."""
        self.kernel.reset(seed)
        self.memory.clear()
        self.network.reset()
        self.directory.reset()
        for l1 in self.l1s:
            l1.reset()
        no_fifo = self._no_fifo
        for core, thread in zip(self.cores, threads):
            core.reset(thread, trace,
                       random.Random(seed * 31 + thread.pid)
                       if no_fifo else None,
                       start_tick=offsets[thread.pid % len(offsets)])
        self.running = len(self.cores)

    # The run stops once every core is done and the caches and the
    # directory are quiescent.  Completion is monotone, so the last core
    # to finish arms the quiescence scan, which then runs before every
    # event: the run stops before exactly the event a check of both
    # before every event would stop it at.

    def _core_done(self) -> None:
        self.running -= 1
        if not self.running:
            self.kernel.until = self.quiescent

    def quiescent(self) -> bool:
        return (all(l1.quiescent() for l1 in self.l1s)
                and self.directory.quiescent())

    def close(self) -> None:
        """Cut the reference cycles of the wiring.

        The network's endpoint table holds the controllers, which hold
        the network; a core holds its L1, which holds the core (the
        invalidation listener, and the callbacks an interrupted run
        leaves in its miss state); each core's ``on_done`` holds this
        machine.
        """
        self.network.close()
        for core in self.cores:
            core.l1 = None
            core.on_done = None


@dataclass
class System:
    """Runner for single test iterations on one simulated machine.

    The machine (kernel, memory, network, directory, L1s and cores) is
    built on the first iteration, and again only when the thread ids or
    a field of this object change.  Every iteration resets it, as the
    paper's guest resets test memory between the iterations of one
    continuously running simulation (Algorithm 2).  Each iteration's
    pending events are dropped when it returns, and :meth:`close` cuts
    the machine's own reference cycles, so reference counting frees both
    and the cyclic garbage collector never has to.  Non-determinism
    between iterations comes from the iteration seed, mirroring the
    differently perturbed executions of the continuously running
    simulation (§5.1).
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    faults: FaultSet = field(default_factory=FaultSet.none)
    coverage: CoverageCollector = field(default_factory=CoverageCollector)
    barrier: object = field(default_factory=HostAssistedBarrier)
    max_ticks: int = 2_000_000
    _machine: _Machine | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def run_iteration(self, threads: list[TestThread], seed: int) -> IterationResult:
        """Execute one iteration of the test described by *threads*."""
        if len(threads) > self.config.num_cores:
            raise ValueError(
                f"test uses {len(threads)} threads but the system has "
                f"{self.config.num_cores} cores")
        built_for = (tuple(thread.pid for thread in threads), self.config,
                     self.faults, self.coverage, self.max_ticks)
        machine = self._machine
        if machine is None or machine.built_for != built_for:
            self.close()
            machine = self._machine = _Machine(*built_for)
        trace = ExecutionTrace()
        offsets = self.barrier.start_offsets(len(threads), seed)
        machine.reset(threads, seed, trace, offsets)
        kernel = machine.kernel
        for core in machine.cores:
            core.start()

        result = IterationResult(trace=trace)
        try:
            result.ticks = kernel.run(None if machine.running
                                      else machine.quiescent)
        except ProtocolError as error:
            # Both error paths record the tick the run stopped at: the
            # time of the event that raised.
            result.protocol_error = str(error)
            result.ticks = kernel.now
        except SimulationLimitError:
            result.deadlock = True
            result.ticks = kernel.now
        else:
            # ``SimKernel.run`` scans only while events are queued, so a
            # run the quiescence scan stopped leaves some and needs no
            # second scan.  One whose queue drained before every core
            # finished and the caches quiesced is stuck (e.g. a lost
            # wakeup or protocol deadlock).
            if not kernel.queue and (machine.running
                                     or not machine.quiescent()):
                result.deadlock = True
        finally:
            # Pending events hold closures over this iteration's requests,
            # and ``until`` holds the machine: drop both, on every exit
            # path, so reference counting frees them now.
            kernel.queue.clear()
            kernel.until = None
        result.loads_squashed = sum(core.loads_squashed
                                    for core in machine.cores)
        result.kernel_events = kernel.events_executed
        result.messages_sent = machine.network.messages_sent
        return result

    def close(self) -> None:
        """Free the simulated machine now, by reference counting.

        Its wiring is cyclic, so a dropped :class:`System` would
        otherwise wait for the cyclic collector.  The next iteration, if
        any, builds a new machine.
        """
        machine = self._machine
        if machine is not None:
            self._machine = None
            machine.close()
