"""Differential determinism fuzz: every execution mode ≡ serial, bit for bit.

A seed-driven loop builds randomized heterogeneous campaign matrices
(generator kinds × faults × seeds × per-shard budgets × chunk sizes) and
runs each through every execution mode — serial, serial-chunked,
work-stealing pool and (for the first seed) a verification service
serving the sweep to two real worker subprocesses over loopback TCP.
All modes must produce identical per-shard outcomes, identical merged
coverage and identical deterministic :class:`CampaignSummary` fields.
Timing fields (``sim_seconds``/``check_seconds``/``wall_seconds``) are
measured wall-clock and are the one deliberate exclusion.

This is the determinism contract that makes cross-host sharding safe: a
chunk may be re-queued, re-run or migrated anywhere without changing any
reported result.

The ``*-memo`` modes additionally switch on collective checking
(``verdict_memo=True``): sweep-wide memoized verdicts keyed by exact
execution graph must be bit-for-bit invisible — cache-on results
equal cache-off results in every mode, serial through service.

The ``durable-*`` modes route the same matrices through the
verification service (:func:`repro.harness.service.run_service_sweep`):
a job submitted to a store-backed service, pulled by authenticated
workers, write-through committed chunk by chunk — and, in the crash
variants, SIGKILL-equivalently interrupted at a fuzzed commit-window
point and resumed by a restarted service over the same store.  Durable
and crash-resumed sweeps must all be bit-identical to serial:
durability and recovery are not allowed to move a single reported bit.
"""

import random
from dataclasses import replace

import pytest

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.distributed import reap_workers
from repro.harness.parallel import (SweepConfig, campaign_matrix,
                                    run_campaigns)
from repro.harness.service import (VerificationService, run_service_sweep,
                                   spawn_service_workers)
from repro.harness.store import JOB_DONE
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault

KIND_POOL = [GeneratorKind.MCVERSI_RAND, GeneratorKind.MCVERSI_ALL,
             GeneratorKind.MCVERSI_STD_XO, GeneratorKind.DIY_LITMUS]
FAULT_POOL = [None, Fault.SQ_NO_FIFO, Fault.LQ_NO_TSO,
              Fault.MESI_LQ_IS_INV, Fault.TSOCC_COMPARE]
MAX_SHARDS = 6


def random_sweep(fuzz_seed: int):
    """A randomized heterogeneous (kinds × faults × seeds) matrix."""
    rng = random.Random(0xF022 + fuzz_seed)
    kinds = rng.sample(KIND_POOL, k=rng.randint(1, 2))
    faults = rng.sample(FAULT_POOL, k=rng.randint(1, 2))
    config = GeneratorConfig.quick(memory_kib=rng.choice((1, 8)),
                                   test_size=32, iterations=2,
                                   population_size=6)
    specs = campaign_matrix(kinds=kinds, faults=faults,
                            generator_config=config,
                            system_config=SystemConfig(),
                            max_evaluations=1,
                            seeds_per_cell=rng.randint(1, 2),
                            base_seed=rng.randint(1, 10_000))[:MAX_SHARDS]
    # Heterogeneous per-shard budgets: the straggler/re-queue scenario.
    specs = [replace(spec, max_evaluations=rng.randint(2, 5))
             for spec in specs]
    chunk_evaluations = rng.randint(1, 3)
    workers = rng.randint(2, 3)
    return specs, chunk_evaluations, workers


def run_on_worker_processes(specs, config, store_path):
    """``specs`` as one service job served to two worker processes."""
    service = VerificationService(store_path, start_http=False)
    job_id = service.submit_job(specs, config)
    workers = spawn_service_workers(service.address, 2)
    try:
        status = service.wait_job(job_id, timeout=300.0)
        assert status["state"] == JOB_DONE, status
        return service.job_report(job_id, workers=2)
    finally:
        service.close()
        reap_workers(workers)


def outcome_view(report):
    return [(shard.spec.seed, shard.result.found,
             shard.result.evaluations_to_find, shard.result.evaluations)
            for shard in report.shards]


def summary_view(report):
    """Every deterministic CampaignSummary field, in matrix order."""
    return [(summary.kind, summary.fault, summary.memory_kib,
             summary.protocol, summary.generator_label, summary.bug_label,
             summary.samples, summary.found_count, summary.consistent,
             summary.evaluations_to_find(),
             summary.evaluations_quantile(0.5),
             summary.evaluations_quantile(0.9),
             summary.mean_evaluations_to_find, summary.label())
            for summary in report.summaries()]


@pytest.mark.parametrize("fuzz_seed", range(3))
def test_all_schedulers_match_serial(fuzz_seed, tmp_path):
    specs, chunk_evaluations, workers = random_sweep(fuzz_seed)
    serial = run_campaigns(specs, workers=1)
    reference_outcomes = outcome_view(serial)
    reference_summaries = summary_view(serial)

    chunked = SweepConfig(chunk_evaluations=chunk_evaluations)
    # Collective checking: memoized verdicts must be bit-for-bit
    # invisible in every reported result — only the telemetry moves.
    memo = replace(chunked, verdict_memo=True)
    modes = {
        "serial-chunked": (1, chunked),
        "work-stealing": (workers, chunked),
        "serial-memo": (1, memo),
        "work-stealing-memo": (workers, memo),
    }
    if fuzz_seed == 0:
        # A service job served to real worker subprocesses: the
        # expensive modes run on one representative random matrix.
        modes["service-processes"] = (None, chunked)
        modes["service-processes-memo"] = (None, memo)
    for mode, (mode_workers, config) in modes.items():
        if mode_workers is None:
            report = run_on_worker_processes(
                specs, config, tmp_path / f"{mode}.sqlite")
        else:
            report = run_campaigns(specs, workers=mode_workers,
                                   config=config)
        assert outcome_view(report) == reference_outcomes, (
            f"fuzz seed {fuzz_seed}: {mode} outcomes diverged from serial")
        assert summary_view(report) == reference_summaries, (
            f"fuzz seed {fuzz_seed}: {mode} summaries diverged from serial")
        assert (report.coverage.global_counts
                == serial.coverage.global_counts), (
            f"fuzz seed {fuzz_seed}: {mode} coverage diverged from serial")
        assert (report.coverage.known_transitions
                == serial.coverage.known_transitions)

    # Durable-service modes: the same matrix through a store-backed
    # verification service (in-process worker threads); the crash
    # variants SIGKILL the service at fuzzed commit-window points and
    # resume from the store — every report must still equal serial.
    durable_modes = {
        "durable": dict(workers=workers,
                        config=SweepConfig(
                            chunk_evaluations=chunk_evaluations)),
    }
    if fuzz_seed == 0:
        durable_modes.update({
            "durable-memo": dict(
                workers=workers,
                config=SweepConfig(chunk_evaluations=chunk_evaluations,
                                   verdict_memo=True)),
            "durable-crash-before-commit": dict(
                workers=workers,
                config=SweepConfig(chunk_evaluations=chunk_evaluations),
                crash_point="before-commit", crash_nth=2),
            "durable-crash-after-commit": dict(
                workers=workers,
                config=SweepConfig(chunk_evaluations=chunk_evaluations),
                crash_point="after-commit", crash_nth=1),
        })
    for mode, options in durable_modes.items():
        report = run_service_sweep(specs, **options)
        assert outcome_view(report) == reference_outcomes, (
            f"fuzz seed {fuzz_seed}: {mode} outcomes diverged from serial")
        assert summary_view(report) == reference_summaries, (
            f"fuzz seed {fuzz_seed}: {mode} summaries diverged from serial")
        assert (report.coverage.global_counts
                == serial.coverage.global_counts), (
            f"fuzz seed {fuzz_seed}: {mode} coverage diverged from serial")
