#!/usr/bin/env python3
"""Parallel campaign orchestration: a multi-seed Table-4 sweep on a pool.

This example builds a *heterogeneous* (generator kind x fault x seed)
campaign matrix — some shards have a much larger evaluation budget than
others, like a real Table-4 sweep where some generator/bug pairs find the
bug quickly and others never do — and runs it two ways:

1. serially (``workers=1``), the reproducible reference;
2. on the work-stealing scheduler with chunked campaigns and a streaming
   ``on_result`` callback: workers pull shards (and resumable chunks of
   long shards) from a shared queue, and each result is reported the
   moment it completes, while other shards are still running.

Both produce bit-identical per-shard results — shard seeds derive
from the matrix position, never the worker, and campaign checkpoints
carry all cross-evaluation state — so the pool only changes wall-clock
time.

Run with:  python examples/parallel_campaigns.py
"""

from dataclasses import replace

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.parallel import (SweepConfig, campaign_matrix,
                                    default_workers, run_campaigns)
from repro.harness.reporting import format_speedup, format_sweep_report
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault


def heterogeneous_matrix():
    """A Table-4-style matrix with mixed per-shard evaluation budgets."""
    generator_config = GeneratorConfig.quick(memory_kib=1, test_size=48,
                                             iterations=3, population_size=8)
    specs = campaign_matrix(
        kinds=[GeneratorKind.MCVERSI_ALL, GeneratorKind.MCVERSI_RAND],
        faults=[Fault.SQ_NO_FIFO, Fault.LQ_NO_TSO],
        generator_config=generator_config,
        system_config=SystemConfig(),
        max_evaluations=6,
        seeds_per_cell=4,
        base_seed=2016)
    # Every third shard gets a 4x budget: chunking lets idle workers pick
    # up the long shards' continuations instead of waiting behind them.
    return [replace(spec, max_evaluations=24) if index % 3 == 0 else spec
            for index, spec in enumerate(specs)]


def main() -> None:
    specs = heterogeneous_matrix()
    budgets = sorted({spec.max_evaluations for spec in specs})
    print(f"campaign matrix: {len(specs)} shards "
          f"(2 generators x 2 bugs x 4 seeds, budgets {budgets})\n")

    serial = run_campaigns(specs, workers=1)
    workers = max(2, min(4, default_workers()))

    print(f"work-stealing sweep at workers={workers} "
          f"(chunked, streaming results):")
    stealing = run_campaigns(
        specs, workers=workers, config=SweepConfig(chunk_evaluations=6),
        on_result=lambda shard: print(
            f"  done: {shard.spec.describe():45s} "
            f"found={shard.result.found}"))

    print()
    print(format_sweep_report(stealing, title="Table-4-style sweep"))
    print()
    print("work-stealing: "
          + format_speedup(serial.wall_seconds, stealing.wall_seconds, workers))

    mismatches = [
        shard.spec.describe()
        for shard, other in zip(serial.shards, stealing.shards)
        if (shard.result.found, shard.result.evaluations_to_find)
        != (other.result.found, other.result.evaluations_to_find)]
    if mismatches:
        raise SystemExit(f"work-stealing determinism violated for: "
                         f"{mismatches}")
    print(f"determinism: all {len(specs)} shards identical at workers=1 "
          f"and work-stealing workers={workers}")


if __name__ == "__main__":
    main()
