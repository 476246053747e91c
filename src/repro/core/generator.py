"""Biased pseudo-random test generation (the McVerSi-RAND baseline).

Given the user constraints of paper §3.1 - the distribution of operations
(Table 3), the usable memory address range and the stride - the generator
produces random chromosomes.  The same machinery provides the random
replacement slots used during mutation, optionally with addresses
constrained to a given set (the PBFA-biased mutation of Algorithm 1).
"""

from __future__ import annotations

import random
from bisect import bisect
from collections.abc import Collection, Set
from itertools import accumulate
from math import isfinite

from repro.core.config import GeneratorConfig
from repro.core.program import Chromosome, make_chromosome
from repro.sim.testprogram import OpKind, TestOp


class RandomTestGenerator:
    """Pseudo-random chromosome generator honouring the configured biases."""

    def __init__(self, config: GeneratorConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng
        weights = config.bias.normalised()
        self._kinds = list(weights)
        # ``choices(kinds, weights=...)`` accumulates the weights into
        # exactly this list and draws ``kinds[bisect(cum, random() *
        # total, 0, len(kinds) - 1)]``; ``random_slot`` makes that draw
        # itself, without the call's per-draw checks and result list.
        self._cum_weights = list(accumulate(
            weights[kind] for kind in self._kinds))
        self._total = self._cum_weights[-1] + 0.0
        if not isfinite(self._total):
            raise ValueError("Total of weights must be finite")
        self._last = len(self._kinds) - 1
        self._addresses = config.memory.all_addresses()

    # ------------------------------------------------------------------

    def random_address(self, constrain_to: Collection[int] | None = None
                       ) -> int:
        """A stride-aligned address, optionally constrained to a pool.

        A set is drawn from in sorted order; a caller drawing many
        addresses from one set passes it sorted once.
        """
        if constrain_to:
            if isinstance(constrain_to, Set):
                constrain_to = sorted(constrain_to)
            return self.rng.choice(constrain_to)
        return self.rng.choice(self._addresses)

    def random_slot(self, index: int,
                    constrain_addresses: Collection[int] | None = None
                    ) -> tuple[int, TestOp]:
        """A random ``(pid, op)`` slot anchored at *index*."""
        rng = self.rng
        pid = rng.randrange(self.config.num_threads)
        kind = self._kinds[bisect(self._cum_weights,
                                  rng.random() * self._total, 0, self._last)]
        if kind is OpKind.DELAY:
            return pid, TestOp(index, kind, None, 0,
                               rng.randint(1, self.config.delay_max))
        return pid, TestOp(index, kind,
                           self.random_address(constrain_addresses),
                           index + 1 if kind.writes_memory else 0)

    def generate(self) -> Chromosome:
        """Generate one complete random test."""
        slots = [self.random_slot(index) for index in range(self.config.test_size)]
        return make_chromosome(slots, self.config.num_threads)

    def generate_population(self, size: int) -> list[Chromosome]:
        return [self.generate() for _ in range(size)]
