"""The checker has one implementation and no option selecting another.

* No public entry point of the stack that used to thread a backend
  selector takes a parameter naming a backend, nor a ``**kwargs``
  catch-all that would swallow one: an old caller passing the selector
  gets a ``TypeError``, not a silently ignored knob.
* None of the CLIs that build a sweep (``bridge check``, ``service
  submit``, ``service worker``) mentions a backend in its help.
* ``resolve_backend_name`` names the one implementation.
"""

from __future__ import annotations

import inspect

import pytest

from repro.bridge import __main__ as bridge_cli
from repro.bridge.replay import ReplayCampaign, run_replay_sweep
from repro.consistency.checker import Checker, resolve_backend_name
from repro.core.campaign import Campaign
from repro.core.engine import VerificationEngine
from repro.harness import service
from repro.harness.experiment import ExperimentSettings
from repro.harness.parallel import (ChunkTask, SweepConfig, iter_campaigns,
                                    run_campaigns, run_shard,
                                    run_shard_chunk)
from repro.harness.scenarios import run_scenario_sweep
from repro.harness.service import VerificationService, run_service_sweep
from repro.litmus.witness import check_witness, cycle_verdict

ENTRY_POINTS = [Checker, check_witness, cycle_verdict, VerificationEngine,
                Campaign, ReplayCampaign, run_replay_sweep,
                ExperimentSettings, run_scenario_sweep, VerificationService,
                run_service_sweep, SweepConfig, ChunkTask, iter_campaigns,
                run_campaigns, run_shard, run_shard_chunk]


@pytest.mark.parametrize("entry_point", ENTRY_POINTS,
                         ids=[entry.__name__ for entry in ENTRY_POINTS])
def test_entry_point_takes_no_backend(entry_point):
    parameters = inspect.signature(entry_point).parameters.values()
    assert [parameter.name for parameter in parameters
            if "backend" in parameter.name] == []
    assert all(parameter.kind is not parameter.VAR_KEYWORD
               for parameter in parameters)


@pytest.mark.parametrize("parser, command", [
    (bridge_cli.build_parser, "check"),
    (service.build_parser, "submit"),
    (service.build_parser, "worker"),
], ids=["bridge-check", "service-submit", "service-worker"])
def test_cli_offers_no_backend_flag(parser, command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parser().parse_args([command, "--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    assert usage.startswith("usage:")
    assert "backend" not in usage


def test_resolve_backend_name_is_always_python():
    # Kept only for the benchmark fingerprint, which passes no argument.
    assert resolve_backend_name() == "python"
    assert resolve_backend_name("auto") == "python"
