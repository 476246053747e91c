"""Ablation benchmarks for the design choices the paper calls out.

* E-A1 (§4): the host-assisted precise barrier is what makes very short
  tests viable - a guest software barrier staggers thread starts by hundreds
  of cycles, which for short tests is a large fraction of the runtime.
* E-A2 (§5.2.1): the axiomatic checker accounts for a bounded fraction of
  the per-test-run wall-clock time (the paper reports 30-40%).
* E-A3 (§3.2): the adaptive-coverage cut-off doubles when progress stalls,
  refocusing fitness on rare transitions.
* E-A4 (§6.1): NDT of the evolving population - the selective crossover is
  the mechanism that pushes NDT up at large test-memory sizes.
"""

import random

from benchmarks.conftest import bench_generator_config
from repro.core.campaign import Campaign, GeneratorKind
from repro.core.engine import VerificationEngine
from repro.core.fitness import AdaptiveCoverageFitness
from repro.core.generator import RandomTestGenerator
from repro.sim.config import SystemConfig
from repro.sim.coverage import CoverageCollector
from repro.sim.faults import FaultSet
from repro.sim.host import GuestSoftwareBarrier, HostAssistedBarrier


def test_ablation_host_barrier_start_offsets(benchmark, capsys):
    """E-A1: start-offset spread of host-assisted vs guest software barriers."""
    host = HostAssistedBarrier()
    guest = GuestSoftwareBarrier()

    def spreads():
        host_spread = []
        guest_spread = []
        for seed in range(200):
            host_offsets = host.start_offsets(8, seed)
            guest_offsets = guest.start_offsets(8, seed)
            host_spread.append(max(host_offsets) - min(host_offsets))
            guest_spread.append(max(guest_offsets) - min(guest_offsets))
        return (sum(host_spread) / len(host_spread),
                sum(guest_spread) / len(guest_spread))

    host_mean, guest_mean = benchmark(spreads)
    with capsys.disabled():
        print(f"\nmean thread start-offset spread: host-assisted={host_mean:.0f} "
              f"ticks, guest software barrier={guest_mean:.0f} ticks")
    assert host_mean == 0
    assert guest_mean > 100


def test_ablation_checker_cost_fraction(benchmark, capsys):
    """E-A2: fraction of test-run time spent in the MCM checker."""
    config = bench_generator_config(memory_kib=8)
    engine = VerificationEngine(config, SystemConfig(), seed=41)
    generator = RandomTestGenerator(config, random.Random(41))

    def run_batch():
        sim = check = 0.0
        for _ in range(4):
            result = engine.run_test(generator.generate())
            sim += result.sim_seconds
            check += result.check_seconds
        return sim, check

    sim_seconds, check_seconds = benchmark.pedantic(run_batch, rounds=1,
                                                    iterations=1)
    fraction = check_seconds / (sim_seconds + check_seconds)
    with capsys.disabled():
        print(f"\nchecker fraction of test-run time: {fraction:.1%} "
              f"(paper reports 30-40% on gem5)")
    assert 0.0 < fraction < 0.9


def test_ablation_adaptive_cutoff_doubles(benchmark, capsys):
    """E-A3: the rarity cut-off doubles once progress stalls."""
    coverage = CoverageCollector()
    for _ in range(20):
        coverage.record("L1", "I", "Load")
        coverage.record("L1", "S", "Store")

    def evaluate_until_doubled():
        fitness = AdaptiveCoverageFitness(coverage, initial_cutoff=2,
                                          low_threshold=0.2, patience=5)
        evaluations = 0
        while fitness.cutoff == 2 and evaluations < 100:
            fitness.evaluate(frozenset())
            evaluations += 1
        return evaluations, fitness.cutoff

    evaluations, cutoff = benchmark(evaluate_until_doubled)
    with capsys.disabled():
        print(f"\ncut-off doubled to {cutoff} after {evaluations} stalled evaluations")
    assert cutoff == 4
    assert evaluations == 5


def test_ablation_ndt_by_memory_size(benchmark, capsys):
    """E-A4: small test memories are automatically racy, large ones are not.

    The paper observes that 1KB configurations start with NDT above 2 while
    8KB configurations start around 1.1 - the gap the selective crossover
    has to close.
    """
    def mean_initial_ndt(memory_kib: int) -> float:
        config = bench_generator_config(memory_kib=memory_kib)
        campaign = Campaign(GeneratorKind.MCVERSI_RAND, config, SystemConfig(),
                            faults=FaultSet.none(), seed=51)
        result = campaign.run(max_evaluations=6)
        history = result.ndt_history or [0.0]
        return sum(history) / len(history)

    def both():
        return mean_initial_ndt(1), mean_initial_ndt(8)

    ndt_1k, ndt_8k = benchmark.pedantic(both, rounds=1, iterations=1)
    with capsys.disabled():
        print(f"\nmean NDT of random tests: 1KB={ndt_1k:.2f}  8KB={ndt_8k:.2f}")
    assert ndt_1k >= ndt_8k
