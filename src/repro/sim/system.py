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


@dataclass
class System:
    """Factory/runner for single test iterations.

    A fresh micro-architectural state (caches, network) is built per
    iteration and torn down when it returns: the teardown cuts every
    reference cycle, so reference counting frees the iteration's graph
    and the cyclic garbage collector never runs on it.  Non-determinism
    between iterations comes from the iteration seed, mirroring the
    differently perturbed executions of the continuously running
    simulation in the paper (§5.1).
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    faults: FaultSet = field(default_factory=FaultSet.none)
    coverage: CoverageCollector = field(default_factory=CoverageCollector)
    barrier: object = field(default_factory=HostAssistedBarrier)
    max_ticks: int = 2_000_000

    def run_iteration(self, threads: list[TestThread], seed: int) -> IterationResult:
        """Execute one iteration of the test described by *threads*."""
        if len(threads) > self.config.num_cores:
            raise ValueError(
                f"test uses {len(threads)} threads but the system has "
                f"{self.config.num_cores} cores")
        kernel = SimKernel(seed=seed, max_ticks=self.max_ticks)
        memory = MainMemory(self.config.memory_latency_min,
                            self.config.memory_latency_max)
        network = Interconnect(kernel, self.config.network_latency_min,
                               self.config.network_latency_max)
        trace = ExecutionTrace()

        if self.config.protocol == "MESI":
            directory = MesiDirectory(kernel, network, self.config, memory,
                                      self.coverage, self.faults)
            l1_class = MesiL1Cache
        else:
            directory = TsoCcDirectory(kernel, network, self.config, memory,
                                       self.coverage, self.faults)
            l1_class = TsoCcL1Cache

        rng = random.Random(seed ^ 0x5EED)
        offsets = self.barrier.start_offsets(len(threads), rng)
        # A core's RNG feeds only the SQ+no-FIFO drain order.
        no_fifo = self.faults.enabled(Fault.SQ_NO_FIFO)
        cores: list[CoreEngine] = []
        l1s = []
        for thread in threads:
            l1 = l1_class(thread.pid, kernel, network, self.config,
                          self.coverage, self.faults)
            core = CoreEngine(thread.pid, kernel, l1, thread, trace,
                              self.config, self.faults,
                              random.Random(seed * 31 + thread.pid)
                              if no_fifo else None,
                              start_tick=offsets[thread.pid % len(offsets)])
            l1.invalidation_listener = core.on_invalidation
            cores.append(core)
            l1s.append(l1)

        def quiescent() -> bool:
            return (all(l1.quiescent() for l1 in l1s)
                    and directory.quiescent())

        # The run stops once every core is done and the caches and the
        # directory are quiescent.  Completion is monotone, so the last
        # core to finish arms the quiescence scan, which then runs before
        # every event: the run stops before exactly the event a check of
        # both before every event would stop it at.
        running = len(cores)

        def core_done() -> None:
            nonlocal running
            running -= 1
            if not running:
                kernel.until = quiescent

        for core in cores:
            core.on_done = core_done
            core.start()

        result = IterationResult(trace=trace)
        try:
            result.ticks = kernel.run(None if running else quiescent)
        except ProtocolError as error:
            # Both error paths record the tick the run stopped at: the
            # time of the event that raised.
            result.protocol_error = str(error)
            result.ticks = kernel.now
        except SimulationLimitError:
            result.deadlock = True
            result.ticks = kernel.now
        else:
            if running or not quiescent():
                # The event queue drained before every core finished: the
                # system is stuck (e.g. a lost wakeup or protocol deadlock).
                result.deadlock = True
        finally:
            # Cut every back-reference, so that reference counting frees
            # this iteration's graph on return, on every exit path, and
            # the cyclic collector never has to.  Pending events hold
            # their owners, which hold the kernel; the endpoint table
            # holds the controllers, which hold the network; ``until``
            # and ``on_done`` hold the L1s, the directory and the kernel.
            # An L1 holds its core (the invalidation listener, and the
            # callbacks an interrupted run leaves in its miss state), so
            # the core drops the L1.
            kernel.queue.clear()
            kernel.until = None
            network.close()
            for core in cores:
                core.on_done = None
                core.l1 = None
        # The teardown leaves every counter as the run left it.
        result.loads_squashed = sum(core.loads_squashed for core in cores)
        result.kernel_events = kernel.events_executed
        result.messages_sent = network.messages_sent
        return result
