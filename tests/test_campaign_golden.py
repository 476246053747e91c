"""Golden campaign outputs: whole GP campaigns, bit for bit.

``tests/test_sim_golden.py`` pins single simulator iterations, and the
benchmark's ``correct`` flag only compares rounds within one run.
Neither notices a change that alters GP trajectories while staying
self-consistent: say, one that reorders the coverage the fitness reads.
This file pins what a small McVerSi-ALL sweep actually produces.  Each
row holds every deterministic field of one shard's ``CampaignResult``
(found, evaluations, evaluations_to_find, detail, total_coverage,
ndt_history, mean_ndt_final) and the shard collector's ``global_counts``
items, in insertion order.

The matrix is the correct MESI and TSO-CC systems plus two Table-4 fault
cells, a few evaluations each: past the population seeding, so
crossover, the adaptive fitness and the verdict memo all run.
Regenerate the data file only for a change that is meant to alter
campaign results::

    PYTHONPATH=src python tests/test_campaign_golden.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness.parallel import SweepConfig, campaign_matrix, run_campaigns
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault

GOLDEN = Path(__file__).parent / "data" / "campaign_golden.json"

EVALUATIONS = 8
SEEDS_PER_CELL = 3
BASE_SEED = 1000
#: (row label, fault, base system): fault cells switch to their protocol.
#: SQ_NO_FIFO's third shard finds its bug, so the early stop is pinned too.
CELLS = (("MESI-correct", None, SystemConfig()),
         ("TSO_CC-correct", None, SystemConfig().with_protocol("TSO_CC")),
         ("MESI_LQ_SM_INV", Fault.MESI_LQ_SM_INV, SystemConfig()),
         ("SQ_NO_FIFO", Fault.SQ_NO_FIFO, SystemConfig()))


def specs() -> list:
    """Every shard, labelled, in a fixed order."""
    config = GeneratorConfig.quick(test_size=32, iterations=2,
                                   population_size=6)
    result = []
    for label, fault, system in CELLS:
        cell = campaign_matrix([GeneratorKind.MCVERSI_ALL], [fault], config,
                               system, EVALUATIONS,
                               seeds_per_cell=SEEDS_PER_CELL,
                               base_seed=BASE_SEED)
        result.extend((f"{label}-{index}", spec)
                      for index, spec in enumerate(cell))
    return result


def observe() -> dict[str, dict]:
    """Run the sweep serially and return its golden rows."""
    labelled = specs()
    report = run_campaigns([spec for _, spec in labelled], workers=1,
                           config=SweepConfig(verdict_memo=True))
    rows = {}
    for (label, _), shard in zip(labelled, report.shards):
        result = shard.result
        rows[label] = {
            "found": result.found,
            "evaluations": result.evaluations,
            "evaluations_to_find": result.evaluations_to_find,
            "detail": list(result.detail),
            "total_coverage": result.total_coverage,
            "ndt_history": list(result.ndt_history),
            "mean_ndt_final": result.mean_ndt_final,
            "coverage": [[key.controller, key.state, key.event, count]
                         for key, count
                         in shard.coverage.global_counts.items()],
        }
    return rows


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def observed() -> dict:
    # JSON round trip: the file stores lists, not tuples.
    return json.loads(json.dumps(observe()))


def test_golden_file_lists_exactly_the_shards(golden):
    assert list(golden) == [label for label, _ in specs()]


def test_golden_covers_clean_runs_and_a_found_bug(golden):
    for label, row in golden.items():
        assert not (row["found"] and "correct" in label), label
        assert row["evaluations"] <= EVALUATIONS
        assert row["coverage"], label
    found = [row for row in golden.values() if row["found"]]
    assert found and all(row["detail"] for row in found)
    assert any(row["evaluations"] == EVALUATIONS
               for row in golden.values())


@pytest.mark.parametrize("label", [label for label, _ in specs()])
def test_shard_matches_golden(label, golden, observed):
    assert observed[label] == golden[label]


def _format_row(row: dict) -> str:
    """One field per line and one coverage entry per line, for readable diffs."""
    fields = [f"  {json.dumps(name)}: {json.dumps(value)}"
              for name, value in row.items() if name != "coverage"]
    entries = ",\n".join(f"   {json.dumps(entry)}" for entry in row["coverage"])
    fields.append(f'  "coverage": [\n{entries}\n  ]')
    return "{\n" + ",\n".join(fields) + "\n }"


def _regenerate() -> None:
    rows = observe()
    body = ",\n".join(f" {json.dumps(label)}: {_format_row(row)}"
                      for label, row in rows.items())
    GOLDEN.write_text("{\n" + body + "\n}\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    _regenerate()
