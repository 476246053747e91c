"""Directed stress scenarios, one per studied bug (paper §5.3).

Each scenario is a small, hand-crafted test program whose access pattern
repeatedly opens exactly the race window the corresponding bug lives in
(message-passing shapes across invalidations, evictions, timestamp resets,
...).  They serve three purposes:

* fault-injection tests assert that every injected bug is *detectable*
  (the scenario finds it within a bounded number of perturbed iterations)
  and that the correct system never fails the same scenario;
* they document, in executable form, the mechanism of each bug;
* the examples and ablation benchmarks reuse them as realistic workloads.

The scenarios use the same chromosome representation as generated tests, so
they run through the ordinary verification engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.core.program import Chromosome, make_chromosome
from repro.sim.config import SystemConfig, TestMemoryLayout
from repro.sim.faults import Fault
from repro.sim.testprogram import OpKind, TestOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.harness.parallel import (CampaignSpec, SweepConfig,
                                        SweepReport)


@dataclass(frozen=True)
class Scenario:
    """A directed stress program targeting one bug."""

    fault: Fault
    chromosome: Chromosome
    system_config: SystemConfig
    generator_config: GeneratorConfig
    description: str


def _slots_to_chromosome(slots: list[tuple[int, OpKind, int | None]],
                         num_threads: int) -> Chromosome:
    """Build a chromosome from (pid, kind, address) triples."""
    anchored = []
    for index, (pid, kind, address) in enumerate(slots):
        value = index + 1 if kind.writes_memory else 0
        anchored.append((pid, TestOp(op_id=index, kind=kind, address=address,
                                     value=value)))
    return make_chromosome(anchored, num_threads)


def _mp_inv_scenario(fault: Fault, reader_first_exclusive: bool,
                     rounds: int = 14) -> Scenario:
    """Message-passing hammer across repeated invalidations.

    The writer repeatedly publishes X then Y; the reader polls Y then X (the
    classic MP shape), so every round opens a window in which the reader
    holds speculatively loaded data for a line the writer is about to
    invalidate.  If the L1 fails to forward those invalidations to the load
    queue (the IS/SM/E/M,Inv bugs), stale values survive and the checker
    observes a forbidden read->read reordering.
    """
    layout = TestMemoryLayout.kib(1)
    x = layout.slot_address(0)
    y = layout.slot_address(8)
    slots: list[tuple[int, OpKind, int | None]] = []
    if reader_first_exclusive:
        # Let the reader own the lines exclusively first (E-state windows).
        slots.append((1, OpKind.READ, x))
        slots.append((1, OpKind.READ, y))
    for _ in range(rounds):
        slots.append((0, OpKind.WRITE, x))
        slots.append((0, OpKind.WRITE, y))
        slots.append((1, OpKind.READ, y))
        slots.append((1, OpKind.READ, x))
    chromosome = _slots_to_chromosome(slots, num_threads=2)
    config = GeneratorConfig.quick(memory_kib=1, num_threads=2,
                                   test_size=len(slots), iterations=6)
    return Scenario(fault=fault, chromosome=chromosome,
                    system_config=SystemConfig(num_cores=2),
                    generator_config=config,
                    description="message-passing hammer across invalidations")


def _rw_pingpong_scenario(fault: Fault, rounds: int = 12) -> Scenario:
    """Both threads read and write both lines (upgrade/ownership ping-pong).

    Every round forces S->M upgrades that race with the other thread's
    invalidations (the SM window) and ownership recalls of E/M lines while
    speculative loads are in flight (the E/M windows).
    """
    layout = TestMemoryLayout.kib(1)
    x = layout.slot_address(0)
    y = layout.slot_address(8)
    slots: list[tuple[int, OpKind, int | None]] = []
    for _ in range(rounds):
        slots.append((0, OpKind.WRITE, x))
        slots.append((0, OpKind.READ, y))
        slots.append((0, OpKind.WRITE, y))
        slots.append((0, OpKind.READ, x))
        slots.append((1, OpKind.READ, y))
        slots.append((1, OpKind.WRITE, y))
        slots.append((1, OpKind.READ, x))
        slots.append((1, OpKind.WRITE, x))
    chromosome = _slots_to_chromosome(slots, num_threads=2)
    config = GeneratorConfig.quick(memory_kib=1, num_threads=2,
                                   test_size=len(slots), iterations=6)
    return Scenario(fault=fault, chromosome=chromosome,
                    system_config=SystemConfig(num_cores=2),
                    generator_config=config,
                    description="read/write ping-pong across upgrades and recalls")


def _store_order_scenario(fault: Fault, rounds: int = 14) -> Scenario:
    """Writer publishes data then flag; reader polls flag then data."""
    layout = TestMemoryLayout.kib(1)
    data = layout.slot_address(0)
    flag = layout.slot_address(8)
    slots: list[tuple[int, OpKind, int | None]] = []
    for _ in range(rounds):
        slots.append((0, OpKind.WRITE, data))
        slots.append((0, OpKind.WRITE, flag))
        slots.append((1, OpKind.READ, flag))
        slots.append((1, OpKind.READ, data))
    chromosome = _slots_to_chromosome(slots, num_threads=2)
    config = GeneratorConfig.quick(memory_kib=1, num_threads=2,
                                   test_size=len(slots), iterations=6)
    return Scenario(fault=fault, chromosome=chromosome,
                    system_config=SystemConfig(num_cores=2),
                    generator_config=config,
                    description="store ordering (data/flag publication)")


def _replacement_scenario(fault: Fault, rounds: int = 10) -> Scenario:
    """Forces L1 conflict evictions of shared lines inside the MP window.

    The reader touches several addresses that alias onto the same L1 set as
    X, so X is regularly evicted from the reader's cache in S state while
    speculative loads of X may still be in flight.
    """
    layout = TestMemoryLayout.kib(8)
    x = layout.slot_address(0)
    y = layout.slot_address(8)
    slots_per_partition = layout.partition_bytes // layout.stride
    # Addresses in other partitions that map to the same cache set as x.
    conflicting = [layout.slot_address(partition * slots_per_partition)
                   for partition in range(1, 7)]
    slots: list[tuple[int, OpKind, int | None]] = []
    for round_index in range(rounds):
        slots.append((0, OpKind.WRITE, x))
        slots.append((0, OpKind.WRITE, y))
        slots.append((1, OpKind.READ, y))
        slots.append((1, OpKind.READ, x))
        for conflict in conflicting[:4 + round_index % 3]:
            slots.append((1, OpKind.READ, conflict))
    chromosome = _slots_to_chromosome(slots, num_threads=2)
    config = GeneratorConfig.quick(memory_kib=8, num_threads=2,
                                   test_size=len(slots), iterations=6)
    return Scenario(fault=fault, chromosome=chromosome,
                    system_config=SystemConfig(num_cores=2),
                    generator_config=config,
                    description="MP with reader-side conflict evictions")


def _putx_race_scenario(rounds: int = 12) -> Scenario:
    """Both cores write the same lines and evict them, racing PutM vs FwdGetM."""
    layout = TestMemoryLayout.kib(8)
    slots_per_partition = layout.partition_bytes // layout.stride
    shared = [layout.slot_address(partition * slots_per_partition)
              for partition in range(6)]
    slots: list[tuple[int, OpKind, int | None]] = []
    for round_index in range(rounds):
        for pid in (0, 1):
            address = shared[(round_index + pid) % len(shared)]
            slots.append((pid, OpKind.WRITE, address))
            slots.append((pid, OpKind.READ, shared[(round_index + pid + 1) % len(shared)]))
            if round_index % 3 == pid % 3:
                slots.append((pid, OpKind.CACHE_FLUSH, address))
    chromosome = _slots_to_chromosome(slots, num_threads=2)
    config = GeneratorConfig.quick(memory_kib=8, num_threads=2,
                                   test_size=len(slots), iterations=6)
    return Scenario(fault=Fault.MESI_PUTX_RACE, chromosome=chromosome,
                    system_config=SystemConfig(num_cores=2),
                    generator_config=config,
                    description="dirty evictions racing ownership transfers")


def _replace_race_scenario(rounds: int = 8) -> Scenario:
    """Streams enough exclusive lines through the L2 to force L2 evictions."""
    layout = TestMemoryLayout.kib(8)
    slots_per_partition = layout.partition_bytes // layout.stride
    lines = [layout.slot_address(partition * slots_per_partition + 4 * (partition % 2))
             for partition in range(layout.num_partitions)]
    slots: list[tuple[int, OpKind, int | None]] = []
    for _ in range(rounds):
        for index, address in enumerate(lines):
            pid = index % 2
            slots.append((pid, OpKind.READ, address))     # E grant
            slots.append((pid, OpKind.WRITE, address))    # silent E->M upgrade
        # Re-read everything so lost updates become visible as stale reads.
        for index, address in enumerate(lines):
            slots.append(((index + 1) % 2, OpKind.READ, address))
    chromosome = _slots_to_chromosome(slots, num_threads=2)
    config = GeneratorConfig.quick(memory_kib=8, num_threads=2,
                                   test_size=len(slots), iterations=4)
    return Scenario(fault=Fault.MESI_REPLACE_RACE, chromosome=chromosome,
                    system_config=SystemConfig(num_cores=2),
                    generator_config=config,
                    description="exclusive-line streaming forcing L2 evictions")


def _tso_cc_scenario(fault: Fault, rounds: int = 16) -> Scenario:
    """MP hammer with enough writes to advance timestamp groups and epochs."""
    layout = TestMemoryLayout.kib(1)
    x = layout.slot_address(0)
    y = layout.slot_address(8)
    z = layout.slot_address(16)
    slots: list[tuple[int, OpKind, int | None]] = []
    # Prime the reader's cache with stale copies.
    slots.append((1, OpKind.READ, x))
    slots.append((1, OpKind.READ, y))
    for round_index in range(rounds):
        slots.append((0, OpKind.WRITE, x))
        slots.append((0, OpKind.WRITE, z))   # extra writes advance the timestamp
        slots.append((0, OpKind.WRITE, y))
        slots.append((1, OpKind.READ, y))
        slots.append((1, OpKind.READ, x))
        if round_index % 3 == 2:
            slots.append((1, OpKind.READ, z))
    chromosome = _slots_to_chromosome(slots, num_threads=2)
    config = GeneratorConfig.quick(memory_kib=1, num_threads=2,
                                   test_size=len(slots), iterations=6)
    return Scenario(fault=fault, chromosome=chromosome,
                    system_config=SystemConfig(num_cores=2, protocol="TSO_CC"),
                    generator_config=config,
                    description="MP hammer across timestamp groups and epochs")


def scenario_specs(faults: list[Fault] | None = None,
                   seeds_per_scenario: int = 1,
                   base_seed: int = 1,
                   max_test_runs: int = 6,
                   time_limit_seconds: float | None = None
                   ) -> list["CampaignSpec"]:
    """The directed-scenario shard matrix for the parallel orchestrator.

    One shard per (scenario, seed): the scenario's fixed chromosome is
    re-run on freshly perturbed fault-injected systems until a bug is found
    or ``max_test_runs`` test-runs elapse.  Seeds derive from the shard's
    matrix position (see :func:`repro.harness.parallel.derive_shard_seed`),
    so the matrix is identical for any worker count.
    """
    from repro.harness.parallel import CampaignSpec, derive_shard_seed

    specs: list[CampaignSpec] = []
    index = 0
    for fault in (faults if faults is not None else list(Fault)):
        scenario = scenario_for(fault)
        for _ in range(seeds_per_scenario):
            specs.append(CampaignSpec(
                kind=GeneratorKind.DIRECTED,
                generator_config=scenario.generator_config,
                system_config=scenario.system_config,
                fault=fault,
                seed=derive_shard_seed(base_seed, index),
                max_evaluations=max_test_runs,
                time_limit_seconds=time_limit_seconds,
                chromosome=scenario.chromosome,
                label=f"scenario:{fault.paper_name}"))
            index += 1
    return specs


def run_scenario_sweep(faults: list[Fault] | None = None,
                       seeds_per_scenario: int = 1,
                       base_seed: int = 1,
                       max_test_runs: int = 6,
                       time_limit_seconds: float | None = None,
                       workers: int = 1,
                       config: "SweepConfig | None" = None,
                       on_result=None,
                       progress: bool = False) -> "SweepReport":
    """Run the directed scenarios through the parallel orchestrator.

    Each scenario's verdict streams to ``on_result`` as it completes;
    ``workers`` and ``config`` (see
    :class:`~repro.harness.parallel.SweepConfig`) are forwarded to
    :func:`repro.harness.parallel.run_campaigns`.
    """
    from repro.harness.parallel import run_campaigns

    specs = scenario_specs(faults=faults,
                           seeds_per_scenario=seeds_per_scenario,
                           base_seed=base_seed, max_test_runs=max_test_runs,
                           time_limit_seconds=time_limit_seconds)
    return run_campaigns(specs, workers=workers, config=config,
                         on_result=on_result, progress=progress)


def export_scenario_corpus(directory: str,
                           faults: list[Fault] | None = None,
                           runs_per_scenario: int = 2,
                           base_seed: int = 1,
                           inject: bool = False) -> list[str]:
    """Simulate the directed scenarios and export every trace to *directory*.

    The bridge's corpus generator: each scenario's fixed program is run
    ``runs_per_scenario`` times through the verification engine with a
    :class:`~repro.bridge.export.CorpusExporter` attached as
    ``trace_sink``, so every cleanly simulated iteration lands in
    *directory* as one native JSONL trace file.  By default the systems
    are fault-free, producing a passing corpus; ``inject=True`` injects
    each scenario's fault instead, seeding the corpus with genuinely
    buggy executions (iterations that die in a protocol error or
    deadlock produce no trace, so injected corpora can be smaller).
    Returns the written paths in scenario order.
    """
    from repro.bridge.export import CorpusExporter
    from repro.core.engine import VerificationEngine
    from repro.harness.parallel import derive_shard_seed
    from repro.sim.faults import FaultSet

    written: list[str] = []
    for index, fault in enumerate(
            faults if faults is not None else list(Fault)):
        scenario = scenario_for(fault)
        exporter = CorpusExporter(
            directory, prefix=f"scenario-{fault.name.lower()}",
            source=f"repro-sim:{fault.paper_name}")
        engine = VerificationEngine(
            scenario.generator_config, scenario.system_config,
            faults=FaultSet.of(fault) if inject else FaultSet.none(),
            seed=derive_shard_seed(base_seed, index),
            trace_sink=exporter)
        for _ in range(runs_per_scenario):
            engine.run_test(scenario.chromosome)
        written.extend(exporter.paths)
    return written


def scenario_for(fault: Fault) -> Scenario:
    """The directed scenario targeting *fault*."""
    if fault in (Fault.MESI_LQ_IS_INV, Fault.LQ_NO_TSO):
        return _mp_inv_scenario(fault, reader_first_exclusive=False)
    if fault in (Fault.MESI_LQ_SM_INV, Fault.MESI_LQ_M_INV):
        return _rw_pingpong_scenario(fault)
    if fault is Fault.MESI_LQ_E_INV:
        return _mp_inv_scenario(fault, reader_first_exclusive=True)
    if fault is Fault.MESI_LQ_S_REPLACEMENT:
        return _replacement_scenario(fault)
    if fault is Fault.MESI_PUTX_RACE:
        return _putx_race_scenario()
    if fault is Fault.MESI_REPLACE_RACE:
        return _replace_race_scenario()
    if fault in (Fault.TSOCC_NO_EPOCH_IDS, Fault.TSOCC_COMPARE):
        return _tso_cc_scenario(fault)
    if fault is Fault.SQ_NO_FIFO:
        return _store_order_scenario(fault)
    raise ValueError(f"no directed scenario for {fault}")


def all_scenarios() -> list[Scenario]:
    return [scenario_for(fault) for fault in Fault]
