"""Crossover and mutation operators (paper Algorithm 1 and §5.2.1).

Two crossovers are provided:

* :func:`selective_crossover_mutate` - the paper's domain-specific selective
  crossover (Algorithm 1).  Memory operations whose address belongs to a
  parent's fit-address set (events with above-average non-determinism) are
  always selected; other slots are selected with a probability derived from
  the parent's fit-address fraction; slots selected from neither parent are
  mutated, biased towards the parents' fit addresses with probability PBFA.
* :func:`single_point_crossover` - the naive standard crossover used by the
  McVerSi-Std.XO baseline: a single cut point over the flat slot list.
"""

from __future__ import annotations

import random

from repro.core.config import GeneratorConfig
from repro.core.generator import RandomTestGenerator
from repro.core.nondeterminism import TestRunStats, fit_fraction
from repro.core.program import Chromosome, make_chromosome
from repro.sim.testprogram import TestOp


def _random_bool(rng: random.Random, probability: float) -> bool:
    """A Bernoulli variate with the given probability."""
    return rng.random() < probability


def fitaddr_fraction(test: Chromosome, stats: TestRunStats) -> float:
    """Fraction of memory operations guaranteed to be selected (Algorithm 1)."""
    return stats.fitaddr_fraction(_memory_addresses(test))


def _memory_addresses(test: Chromosome) -> list[int]:
    return [op.address for _, op in test.memory_ops() if op.address is not None]


def selective_crossover_mutate(test1: Chromosome, test2: Chromosome,
                               stats1: TestRunStats, stats2: TestRunStats,
                               config: GeneratorConfig,
                               generator: RandomTestGenerator,
                               rng: random.Random) -> Chromosome:
    """The selective crossover + mutation of paper Algorithm 1."""
    if len(test1) != len(test2):
        raise ValueError("parents must have the same (constant) length")
    p_usel = config.unconditional_selection_probability
    fit1 = stats1.fit_addresses()
    fit2 = stats2.fit_addresses()
    # The PBFA pool, sorted once: ``random_address`` draws from a sorted set.
    fit_pool = sorted(fit1 | fit2)
    a1 = fit_fraction(_memory_addresses(test1), fit1)
    a2 = fit_fraction(_memory_addresses(test2), fit2)
    p_select1 = a1 + p_usel - (a1 * p_usel)
    p_select2 = a2 + p_usel - (a2 * p_usel)

    child: list[tuple[int, TestOp]] = list(test1.slots)
    mutations = 0
    for index in range(len(child)):
        pid1, op1 = test1.slots[index]
        select1 = ((_random_bool(rng, p_usel) or op1.address in fit1)
                   if op1.kind.is_memory
                   else _random_bool(rng, p_select1))
        pid2, op2 = test2.slots[index]
        select2 = ((_random_bool(rng, p_usel) or op2.address in fit2)
                   if op2.kind.is_memory
                   else _random_bool(rng, p_select2))

        if not select1 and select2:
            child[index] = (pid2, op2)
        elif not select1 and not select2:
            mutations += 1
            constrain = (_random_bool(rng, config.fitaddr_bias)
                         and bool(fit_pool))
            child[index] = (
                generator.random_slot(index, constrain_addresses=fit_pool)
                if constrain else generator.random_slot(index))
        # else: retain child[index] (the slot from test1).

    offspring = make_chromosome(child, test1.num_threads)
    if mutations / len(child) < config.mutation_probability:
        offspring = mutate(offspring, config.mutation_probability, generator, rng)
    return offspring


def single_point_crossover(test1: Chromosome, test2: Chromosome,
                           config: GeneratorConfig,
                           generator: RandomTestGenerator,
                           rng: random.Random) -> Chromosome:
    """Standard single-point crossover over the flat slot list (Std.XO)."""
    if len(test1) != len(test2):
        raise ValueError("parents must have the same (constant) length")
    cut = rng.randrange(1, len(test1)) if len(test1) > 1 else 0
    slots = list(test1.slots[:cut]) + list(test2.slots[cut:])
    offspring = make_chromosome(slots, test1.num_threads)
    return mutate(offspring, config.mutation_probability, generator, rng)


def mutate(test: Chromosome, probability: float,
           generator: RandomTestGenerator, rng: random.Random) -> Chromosome:
    """Standard mutation: re-randomise each slot with the given probability.

    Thread and operation are randomised but the slot position (and hence the
    relative scheduling of the operation within the test) is preserved
    (paper §3.3).
    """
    slots = list(test.slots)
    changed = False
    for index in range(len(slots)):
        if _random_bool(rng, probability):
            slots[index] = generator.random_slot(index)
            changed = True
    if not changed:
        return test
    return make_chromosome(slots, test.num_threads)
