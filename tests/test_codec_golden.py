"""Golden wire frames: the exact bytes ``codec.encode`` produces.

``tests/test_service_codec.py`` checks that frames round-trip and that
hostile frames are refused; neither notices a change to the bytes
themselves, which a peer running the other release would misread.  This
file pins the size and SHA-256 of ``encode()`` for a fixed corpus:

* the worker-plane handshake and control messages;
* hand-built edge values: empty containers, i64 bounds, big ints, lists
  mixing ``bool`` and ``int``, nested sets;
* the frames of one memoized service sweep over the benchmark's
  seed-1 service matrix, run serially through ``ChunkScheduler`` and
  ``execute_chunk_task``: every dispatched task, every pause and shard
  outcome, the job submission body and the results body.

Timings are replaced by fixed values and the opaque pickled fields
(``ChunkPayload.data``, ``ChunkTask.cache``) by fixed placeholders: the
former change from run to run, the latter hold hash-ordered sets, and
neither is the codec's format.

The data file records the ``SERVICE_VERSION`` it was made at.  A change
to any row is a frame format change, so it must bump ``SERVICE_VERSION``
in the same commit; ``--regenerate`` refuses to rewrite a changed row
under an unchanged version::

    PYTHONPATH=src python tests/test_codec_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness import codec
from repro.harness.parallel import (ChunkPayload, SweepConfig,
                                    build_chunk_scheduler, campaign_matrix,
                                    execute_chunk_task)
from repro.harness.service import SERVICE_MAGIC, SERVICE_VERSION
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestCollectionWarning")

GOLDEN = Path(__file__).parent / "data" / "codec_golden.json"

#: The handshake rows carry a literal version so that bumping
#: ``SERVICE_VERSION`` alone does not move them.
HANDSHAKE_VERSION = 4
JOB_ID = "job-0001"
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def service_specs() -> list:
    """The service benchmark's first matrix at ``--seed 1``.

    Six MCVERSI-ALL shards (five Table-4 fault cells and the correct
    system), 20 evaluations each, on a 2 KiB test memory.
    """
    base_seed = random.Random("perfbench:1").randrange(1, 1 << 31)
    faults = [Fault.MESI_LQ_SM_INV, Fault.MESI_PUTX_RACE, Fault.LQ_NO_TSO,
              Fault.SQ_NO_FIFO, Fault.TSOCC_COMPARE, None]
    config = GeneratorConfig.quick(memory_kib=2, test_size=32, iterations=2,
                                   population_size=6)
    return campaign_matrix([GeneratorKind.MCVERSI_ALL], faults, config,
                           SystemConfig(), 20, base_seed=base_seed)


def _stable_task(task):
    """The task with its opaque bytes fields set to placeholders."""
    checkpoint = task.checkpoint
    if checkpoint is not None:
        checkpoint = ChunkPayload(b"checkpoint of shard %d" % task.index)
    cache = None if task.cache is None else b"cache shipment"
    return replace(task, checkpoint=checkpoint, cache=cache)


def _stable_outcome(outcome):
    """The outcome with fixed timings and a placeholder payload."""
    payload = outcome.payload
    if payload is not None:
        payload = ChunkPayload(b"checkpoint of shard %d" % outcome.index)
    telemetry = replace(
        outcome.telemetry, wall_seconds=0.5,
        checkpoint_bytes=0 if payload is None else payload.nbytes,
        checkpoint_seconds=0.0 if payload is None else 0.25)
    delta = outcome.cache_delta
    if delta is not None:
        delta = replace(delta, seconds_saved=0.125,
                        check_seconds_observed=0.0625)
    shard = outcome.shard
    if shard is not None:
        shard = replace(shard, result=replace(
            shard.result, wall_seconds=1.5, sim_seconds=1.0,
            check_seconds=0.25))
    return replace(outcome, payload=payload, telemetry=telemetry,
                   cache_delta=delta, shard=shard)


def sweep_rows() -> dict[str, object]:
    """Every frame of one memoized sweep of :func:`service_specs`."""
    specs = service_specs()
    config = SweepConfig(chunk_evaluations=5, verdict_memo=True)
    scheduler = build_chunk_scheduler(specs, config)
    rows: dict[str, object] = {"submit-body": (list(specs), config)}
    shards = []
    step = 0
    while (task := scheduler.next_task()) is not None:
        outcome = execute_chunk_task(task)
        assert outcome.error is None, outcome.error
        stable = _stable_outcome(outcome)
        rows[f"task-{step:02d}"] = ("task", JOB_ID, _stable_task(task))
        rows[f"result-{step:02d}"] = ("result", JOB_ID, stable)
        if stable.shard is not None:
            shards.append((task.index, stable.shard))
        scheduler.record(outcome)
        step += 1
    assert scheduler.done
    rows["results-body"] = {"next": len(shards), "shards": shards}
    return rows


def handshake_rows() -> dict[str, object]:
    return {
        "challenge": ("challenge", SERVICE_MAGIC, HANDSHAKE_VERSION,
                      "0123456789abcdef" * 2),
        "hello": ("hello", SERVICE_MAGIC, HANDSHAKE_VERSION, "worker-1",
                  "ab" * 32),
        "welcome": ("welcome", SERVICE_MAGIC, HANDSHAKE_VERSION),
        "version-mismatch": (
            "error", "protocol version mismatch: service speaks 4, "
            "worker speaks 3"),
        "request": ("request",),
        "heartbeat": ("heartbeat",),
        "idle": ("idle", 0.0),
        "shutdown": ("shutdown",),
        "goodbye": ("goodbye",),
    }


def edge_rows() -> dict[str, object]:
    return {
        "empty-containers": ([], (), {}, set(), frozenset(), "", b""),
        "i64-bounds-list": [I64_MIN, -1, 0, 1, I64_MAX],
        "i64-bounds-tuple": (I64_MIN, I64_MAX),
        "one-int-list": [7],
        "big-ints": [I64_MAX + 1, I64_MIN - 1, 1 << 100, -(1 << 100)],
        "big-int-in-int-list": (1, 2, I64_MAX + 1),
        "bool-int-list": [True, 1, False, 0],
        "int-bool-tuple": (0, 1, True),
        "int-none-list": [1, None, 2],
        "int-float-list": [1, 2.0],
        "nested-int-lists": [[1, 2, 3], [], [4], (5, 6)],
        "nested-sets": {frozenset({1, 2}), frozenset(), frozenset({3})},
        "int-set": {3, 1, 2},
        "dict-of-int-lists": {"a": [1, 2], 3: (4, 5), (6, 7): []},
        "floats": (0.0, -0.0, 1.5, float("inf"), float("-inf"), 1e-300),
        "strings": ("", "ascii", "utf-8 ✓", " "),
        "bytes": (b"", b"\x00\xff", bytes(range(256))),
        "enums": (GeneratorKind.MCVERSI_ALL, Fault.SQ_NO_FIFO),
        "spec": service_specs()[0],
        "sweep-config": SweepConfig(chunk_evaluations=5, verdict_memo=True),
    }


def corpus() -> dict[str, object]:
    """Every golden row's value, by row name."""
    return {**handshake_rows(), **edge_rows(), **sweep_rows()}


def pin(frame: bytes) -> dict:
    return {"size": len(frame), "sha256": hashlib.sha256(frame).hexdigest()}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def frames() -> dict[str, bytes]:
    return {name: codec.encode(value) for name, value in corpus().items()}


def test_golden_names_the_current_service_version():
    assert _load()["service_version"] == SERVICE_VERSION, (
        "SERVICE_VERSION changed: regenerate the codec golden "
        "(PYTHONPATH=src python tests/test_codec_golden.py --regenerate)")


def test_corpus_and_golden_list_the_same_rows(frames):
    assert sorted(frames) == sorted(_load()["rows"])


@pytest.mark.parametrize(
    "name", sorted(_load()["rows"]) if GOLDEN.exists() else [])
def test_row_bytes(name, frames):
    golden = _load()
    expected = golden["rows"][name]
    actual = pin(frames[name])
    if golden["service_version"] == SERVICE_VERSION:
        hint = (f"encode() bytes of {name!r} changed while SERVICE_VERSION "
                f"is still {SERVICE_VERSION}: a frame format change must "
                "bump it, then regenerate this golden")
    else:
        hint = "SERVICE_VERSION changed: regenerate this golden"
    assert actual == expected, hint


def test_rows_decode_and_reencode_to_the_same_bytes(frames):
    for name, frame in frames.items():
        assert codec.encode(codec.decode(frame)) == frame, name


def test_plain_rows_round_trip_to_equal_values():
    for name, value in {**handshake_rows(), **edge_rows()}.items():
        back = codec.decode(codec.encode(value))
        assert back == value and type(back) is type(value), name
        if isinstance(value, (list, tuple)):
            assert [type(item) for item in back] == [
                type(item) for item in value], name


def _regenerate() -> None:
    rows = {name: pin(codec.encode(value))
            for name, value in corpus().items()}
    if GOLDEN.exists():
        old = _load()
        changed = sorted(name for name, row in rows.items()
                         if name in old["rows"] and old["rows"][name] != row)
        if changed and old["service_version"] == SERVICE_VERSION:
            sys.exit(f"rows {changed} changed but SERVICE_VERSION is still "
                     f"{SERVICE_VERSION}: bump it first")
        print(f"changed rows: {changed or 'none'}")
    body = ",\n".join(f"  {json.dumps(name)}: {json.dumps(row)}"
                      for name, row in sorted(rows.items()))
    GOLDEN.write_text(
        "{\n"
        f' "service_version": {SERVICE_VERSION},\n'
        ' "rows": {\n' + body + "\n }\n}\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    _regenerate()
