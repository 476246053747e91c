#!/usr/bin/env python3
"""Distributed campaign sharding: a Table-4 sweep on a service over loopback.

Every sweep on TCP workers is one job on a verification service.  This
example runs the same heterogeneous campaign matrix three times:

1. serially (``workers=1``), the reproducible reference;
2. in one call, :func:`~repro.harness.service.run_service_sweep`: an
   ephemeral in-process service served to two worker threads;
3. the multi-host layout on one machine: a ``VerificationService``
   bound to a fixed loopback address, and three independently started
   ``service worker`` processes that connect to it — one of which is
   SIGKILLed after the first shard lands.  The service re-queues
   whatever chunk it held and the job still completes with
   bit-identical results.

For a real multi-host run, use the same pieces on separate hosts:

    service host:     python -m repro.harness.service serve \
                          --store sweeps.sqlite --bind 0.0.0.0:7777 \
                          --http-bind 127.0.0.1:7778
    each worker host: python -m repro.harness.service worker \
                          --connect service-host:7777
    client:           python -m repro.harness.service submit \
                          --url service-host:7778 ...

Run with:  python examples/distributed_sweep.py
"""

import os
import socket
import tempfile
from dataclasses import replace

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.distributed import format_address, reap_workers
from repro.harness.parallel import (SweepConfig, campaign_matrix,
                                    run_campaigns)
from repro.harness.reporting import format_sweep_report
from repro.harness.service import (VerificationService, run_service_sweep,
                                   spawn_service_workers)
from repro.harness.store import JOB_DONE, JOB_RUNNING
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault


def build_specs():
    config = GeneratorConfig.quick(memory_kib=1, test_size=48, iterations=2,
                                   population_size=8)
    specs = campaign_matrix(
        kinds=[GeneratorKind.MCVERSI_RAND, GeneratorKind.MCVERSI_ALL],
        faults=[Fault.SQ_NO_FIFO, None],
        generator_config=config,
        system_config=SystemConfig(),
        max_evaluations=6,
        seeds_per_cell=2,
        base_seed=2016)
    budgets = (18, 4, 4, 10, 4, 4, 12, 4)
    return [replace(spec, max_evaluations=budget)
            for spec, budget in zip(specs, budgets)]


def outcomes(report):
    return [(shard.result.found, shard.result.evaluations_to_find)
            for shard in report.shards]


def free_loopback_address() -> tuple[str, int]:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()[:2]
    probe.close()
    return address


def main() -> None:
    specs = build_specs()
    config = SweepConfig(chunk_evaluations=4)

    print(f"== serial reference ({len(specs)} shards) ==")
    serial = run_campaigns(specs, workers=1)
    print(format_sweep_report(serial, title="Serial sweep"))

    print("\n== same sweep on an ephemeral service (2 worker threads) ==")
    ephemeral = run_service_sweep(specs, config, workers=2)
    print(format_sweep_report(ephemeral, title="Service sweep"))
    assert outcomes(ephemeral) == outcomes(serial), "determinism violated!"
    print("service outcomes are bit-identical to the serial run")

    address = free_loopback_address()
    print(f"\n== external workers on {format_address(address)}; "
          "one is killed mid-sweep ==")
    # Workers may start before the service binds: their connect retry
    # carries them through until it listens.
    workers = spawn_service_workers(address, 3, name_prefix="host")
    with tempfile.TemporaryDirectory(prefix="mcversi-example-") as store:
        service = VerificationService(os.path.join(store, "sweep.sqlite"),
                                      bind=address, lease_timeout=20.0,
                                      start_http=False)
        try:
            job_id = service.submit_job(specs, config)
            status = service.wait_job(job_id, timeout=0)
            while status["state"] == JOB_RUNNING and not status["completed"]:
                status = service.wait_job(job_id, timeout=0.2)
            workers[-1].kill()
            print(f"host-2 SIGKILLed after {status['completed']} "
                  f"shard(s) landed")
            status = service.wait_job(job_id, timeout=300.0)
            assert status["state"] == JOB_DONE, status
            external = service.job_report(job_id)
            requeues = service.stats.total_requeues
            chunks = dict(sorted(service.stats.chunks_by_worker.items()))
        finally:
            service.close()
            reap_workers(workers)
    print(format_sweep_report(external, title="External-worker sweep"))
    print(f"chunks per worker: {chunks}; chunks re-queued: {requeues}")
    assert outcomes(external) == outcomes(serial), "determinism violated!"
    print("host-2 was SIGKILLed; results are still bit-identical")


if __name__ == "__main__":
    main()
