"""GP offspring are built with less work and the very same draws.

``RandomTestGenerator.random_slot`` bisects one ``random()`` into
cumulative weights it keeps, the draw ``Random.choices`` makes, where
it used to pass the weights for ``choices`` to accumulate on every
call; the selective crossover sorts its constrained address
pool once, where each constrained draw used to sort it; and ``reslot``
returns an op already anchored at its slot instead of rebuilding it.
Each check here runs the new path against the old one, written out, on
the same seed, and asserts equal results and an equal RNG state.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import GeneratorConfig, OperationBias
from repro.core.generator import RandomTestGenerator
from repro.core.program import Chromosome, make_chromosome
from repro.sim.testprogram import OpKind, TestOp

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")

CONFIGS = {
    "table3": GeneratorConfig.quick(memory_kib=8, test_size=64),
    "skewed": GeneratorConfig(
        test_size=64, num_threads=3, iterations=2,
        bias=OperationBias(read=5, read_addr_dp=0, write=3, rmw=1,
                           cache_flush=0, delay=2)),
}


def old_random_slot(generator: RandomTestGenerator, index: int,
                    constrain: set[int] | None) -> tuple[int, TestOp]:
    """The slot draw as it was: ``weights=``, and a sort per draw."""
    config, rng = generator.config, generator.rng
    weights = config.bias.normalised()
    kinds = list(weights)
    pid = rng.randrange(config.num_threads)
    kind = rng.choices(kinds, weights=[weights[kind] for kind in kinds],
                       k=1)[0]
    if kind is OpKind.DELAY:
        return pid, TestOp(op_id=index, kind=kind,
                           delay=rng.randint(1, config.delay_max))
    address = (rng.choice(sorted(constrain)) if constrain
               else rng.choice(config.memory.all_addresses()))
    value = index + 1 if kind.writes_memory else 0
    return pid, TestOp(op_id=index, kind=kind, address=address, value=value)


def old_reslot(op: TestOp, index: int) -> TestOp:
    """``reslot`` as it was: always a new op."""
    value = index + 1 if op.kind.writes_memory else 0
    return TestOp(op_id=index, kind=op.kind, address=op.address,
                  value=value, delay=op.delay)


@pytest.mark.parametrize("pool_form", ["none", "set", "sorted"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_random_slot_draws_what_the_weights_path_drew(name, pool_form):
    config = CONFIGS[name]
    pool = {config.memory.slot_address(slot) for slot in (200, 3, 41, 17)}
    constrain = {"none": None, "set": pool, "sorted": sorted(pool)}[pool_form]
    new = RandomTestGenerator(config, random.Random(2024))
    reference = RandomTestGenerator(config, random.Random(2024))
    for draw in range(10_000):
        index = draw % config.test_size
        assert new.random_slot(index, constrain_addresses=constrain) == \
            old_random_slot(reference, index, pool if constrain else None)
    assert new.rng.getstate() == reference.rng.getstate()


@pytest.mark.parametrize("seed", range(20))
def test_make_chromosome_matches_reslotting_every_op(seed):
    config = CONFIGS["table3"]
    generator = RandomTestGenerator(config, random.Random(seed))
    first, second = generator.generate(), generator.generate()
    rng = random.Random(seed)
    # Anchored slots, and a crossover-style mix with moved ops.
    mixed = [slot if rng.random() < 0.5 else second.slots[rng.randrange(
        len(second))] for slot in first.slots]
    for slots in (list(first.slots), mixed):
        made = make_chromosome(slots, config.num_threads)
        expected = Chromosome(
            slots=tuple((pid, old_reslot(op, index))
                        for index, (pid, op) in enumerate(slots)),
            num_threads=config.num_threads)
        assert made == expected
    # An anchored op is kept as it is, not rebuilt.
    made = make_chromosome(list(first.slots), config.num_threads)
    assert all(new is old for (_, new), (_, old)
               in zip(made.slots, first.slots))


def test_non_finite_bias_is_refused_as_choices_refused_it():
    # The inlined kind draw checks at construction what ``choices``
    # checked on every draw.
    config = GeneratorConfig(test_size=8,
                             bias=OperationBias(read=float("inf")))
    weights = config.bias.normalised()
    with pytest.raises(ValueError, match="must be finite"):
        random.Random(0).choices(list(weights),
                                 weights=list(weights.values()))
    with pytest.raises(ValueError, match="must be finite"):
        RandomTestGenerator(config, random.Random(0))
