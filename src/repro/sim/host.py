"""Guest-host interface (paper §4, Table 1 and Algorithm 2).

In the paper the guest workload runs inside the simulated full system and
calls host-assisted services to minimise per-test overhead: precise barriers
to start all threads in lock-step, host-side code emission, memory reset and
checking.  In this reproduction the "guest" is the set of
:class:`~repro.sim.pipeline.core.CoreEngine` instances; the host services
are modelled by this module:

* :class:`HostAssistedBarrier` starts every thread at the same tick (zero
  start offset), which the paper identifies as a mandatory prerequisite for
  very short tests.
* :class:`GuestSoftwareBarrier` models a conventional in-guest sense
  barrier: each thread spins on shared flags, so threads leave the barrier
  staggered by a random offset and pay extra simulated cycles.  This is the
  baseline for the barrier ablation (benchmark E-A1).

The remaining Table 1 functions (``make_test_thread``,
``mark_test_mem_range``, ``reset_test_mem``, ``verify_reset_all``,
``verify_reset_conflict``) are realised by :class:`repro.core.engine.VerificationEngine`,
which plays the role of the host-side driver of Algorithm 2.
"""

from __future__ import annotations

import random


class HostAssistedBarrier:
    """barrier_wait_precise() with host assistance: zero start offset."""

    name = "host-assisted"

    def __init__(self, base_offset: int = 0) -> None:
        self.base_offset = base_offset

    def start_offsets(self, num_threads: int, seed: int) -> list[int]:
        """Per-thread start offsets in ticks (all identical).

        *seed* is the iteration's seed; this barrier draws nothing.
        """
        return [self.base_offset] * num_threads


class GuestSoftwareBarrier:
    """A guest-implemented sense barrier: staggered exits, real overhead.

    The offsets model the perturbation the paper observed to be "too large"
    for very short tests: threads leave the barrier spread over a window
    proportional to the number of threads and the cost of the coherence
    traffic on the barrier flag.
    """

    name = "guest-software"

    def __init__(self, per_thread_cost: int = 120, jitter: int = 200) -> None:
        self.per_thread_cost = per_thread_cost
        self.jitter = jitter

    def start_offsets(self, num_threads: int, seed: int) -> list[int]:
        """Per-thread start offsets in ticks for the iteration *seed*.

        Drawn from ``Random(seed ^ 0x5EED)``, a stream apart from the
        simulator kernel's ``Random(seed)``.
        """
        rng = random.Random(seed ^ 0x5EED)
        offsets = []
        for index in range(num_threads):
            spin = rng.randint(0, self.jitter)
            offsets.append(index * self.per_thread_cost + spin)
        rng.shuffle(offsets)
        return offsets


def barrier_by_name(name: str) -> HostAssistedBarrier | GuestSoftwareBarrier:
    """Factory used by configuration code and the barrier ablation bench."""
    if name == "host-assisted":
        return HostAssistedBarrier()
    if name == "guest-software":
        return GuestSoftwareBarrier()
    raise ValueError(f"unknown barrier implementation {name!r}")
