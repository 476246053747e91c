#!/usr/bin/env python3
"""Distributed campaign sharding: a Table-4 sweep over loopback TCP.

This example runs the same heterogeneous campaign matrix three times:

1. serially (``workers=1``), the reproducible reference;
2. over the TCP transport with ``workers=2``: the sweep runs as one job
   on an ephemeral verification service hosted by this process, and two
   ``service worker`` processes are spawned against it on loopback;
3. the multi-host layout on one machine: ``workers=0`` (this process
   spawns nobody), a fixed coordinator address, and three independently
   started ``service worker`` processes that connect to it — one of
   which is SIGKILLed after the first shard lands.  The service
   re-queues whatever chunk it held and the sweep still completes with
   bit-identical results.

For a real multi-host run, use the same two pieces on separate hosts:

    coordinator host:  run_campaigns(specs, workers=0, config=SweepConfig(
                           transport="tcp", coordinator="0.0.0.0:7777"))
    each worker host:  python -m repro.harness.service worker \
                           --connect coordinator-host:7777

Run with:  python examples/distributed_sweep.py
"""

import socket
from dataclasses import replace

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.distributed import format_address, reap_workers
from repro.harness.parallel import (SweepConfig, campaign_matrix,
                                    run_campaigns)
from repro.harness.reporting import format_sweep_report
from repro.harness.service import spawn_service_workers
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

    print(f"== serial reference ({len(specs)} shards) ==")
    serial = run_campaigns(specs, workers=1)
    print(format_sweep_report(serial, title="Serial sweep"))

    print("\n== same sweep over loopback TCP (2 spawned workers) ==")
    config = SweepConfig(transport="tcp", chunk_evaluations=4)
    tcp = run_campaigns(specs, workers=2, config=config)
    print(format_sweep_report(tcp, title="Distributed sweep"))
    assert outcomes(tcp) == outcomes(serial), "determinism violated!"
    print("distributed outcomes are bit-identical to the serial run")

    address = free_loopback_address()
    print(f"\n== external workers on {format_address(address)}; "
          "one is killed mid-sweep ==")
    # Workers may start before the coordinator binds: their connect
    # retry carries them through until run_campaigns starts listening.
    workers = spawn_service_workers(address, 3, name_prefix="host")

    def kill_one(_shard) -> None:
        if workers[-1].poll() is None:
            workers[-1].kill()

    try:
        external = run_campaigns(
            specs, workers=0,
            config=replace(config, lease_timeout=20.0,
                           coordinator=format_address(address)),
            on_result=kill_one, progress=True)
    finally:
        reap_workers(workers)
    assert outcomes(external) == outcomes(serial), "determinism violated!"
    print("host-2 was SIGKILLed; results are still bit-identical")


if __name__ == "__main__":
    main()
