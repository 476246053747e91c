"""Single-serialization checkpoint transport (ChunkPayload).

The tentpole contract: a paused chunk's resume checkpoint is pickled
exactly *once*, on the worker that paused it, and those bytes travel
every subsequent hop verbatim — the multiprocessing result queue, the
scheduler's lazy re-queue, the task dispatch and the TCP framing all
forward an opaque ``bytes`` field instead of re-serializing the
checkpoint object graph.  A counting test double (a checkpoint whose
``__reduce__`` tallies every pickle) proves it hop by hop; the
round-trip tests prove the bytes path is bit-for-bit equivalent to the
object path on real campaigns, also through a service job whose frame
cap is only a few checkpoints wide.
"""

import pickle
import socket
from dataclasses import fields
from pathlib import Path

import pytest

from repro.consistency.memo import VerdictCache, VerdictCacheState
from repro.core.campaign import CampaignCheckpoint, GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness import codec
from repro.harness.distributed import (reap_workers, recv_raw_frame,
                                       send_raw_frame)
from repro.harness.parallel import (CHECKPOINT_FRAME_FRACTION, ChunkOutcome,
                                    ChunkPayload, ChunkScheduler, ChunkTask,
                                    ChunkTelemetry, SweepConfig,
                                    campaign_matrix, execute_chunk_task,
                                    run_campaigns, run_shard_chunk)
from repro.harness.service import VerificationService, spawn_service_workers
from repro.harness.store import JOB_DONE
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault


def tiny_config():
    return GeneratorConfig.quick(memory_kib=1, test_size=32, iterations=2,
                                 population_size=6)


def tiny_matrix(max_evaluations=5, seeds_per_cell=2,
                faults=(Fault.SQ_NO_FIFO, None)):
    return campaign_matrix(kinds=[GeneratorKind.MCVERSI_RAND],
                           faults=list(faults),
                           generator_config=tiny_config(),
                           system_config=SystemConfig(),
                           max_evaluations=max_evaluations,
                           seeds_per_cell=seeds_per_cell, base_seed=11)


def outcomes(report):
    return [(shard.result.found, shard.result.evaluations_to_find,
             shard.result.evaluations) for shard in report.shards]


def deterministic_result_view(result):
    """Every CampaignResult field except the measured wall-clock ones."""
    return {field.name: getattr(result, field.name)
            for field in fields(result)
            if field.name not in ("wall_seconds", "sim_seconds",
                                  "check_seconds")}


class CountingCheckpoint:
    """Checkpoint stand-in whose every pickling is tallied.

    ``__reduce__`` runs on each ``pickle.dumps`` traversal that reaches
    the object — including one buried inside a ``ChunkOutcome`` or
    ``ChunkTask`` being serialized by a transport layer — so the class
    counter measures exactly how many times a hop re-serialized the
    checkpoint graph.
    """

    pickles = 0
    evaluations = 3  # quacks enough like a CampaignCheckpoint

    def __reduce__(self):
        CountingCheckpoint.pickles += 1
        return (CountingCheckpoint, ())


@pytest.fixture(autouse=True)
def _reset_counter():
    CountingCheckpoint.pickles = 0
    yield


@pytest.fixture
def service_cache_cap(tmp_path):
    """Submit a one-shard job; return its scheduler's cache-shipment cap."""
    services = []

    def cap(config, **options):
        service = VerificationService(tmp_path / f"{len(services)}.sqlite",
                                      start_http=False, **options)
        services.append(service)
        job_id = service.submit_job(tiny_matrix(seeds_per_cell=1)[:1],
                                    config)
        return service._jobs[job_id].scheduler.max_cache_bytes

    yield cap
    for service in services:
        service.close()


class TestSingleSerialization:
    def test_payload_construction_is_the_only_pickle(self):
        payload = ChunkPayload.of(CountingCheckpoint())
        assert CountingCheckpoint.pickles == 1
        assert payload.nbytes == len(payload.data) > 0
        assert isinstance(payload.load(), CountingCheckpoint)
        assert CountingCheckpoint.pickles == 1  # loads never re-dumps

    def test_pool_hops_forward_bytes_verbatim(self):
        """The multiprocessing-queue path: outcome back, task out.

        Both hops pickle the *containing* message (that is what a
        ``multiprocessing.Queue`` does), and neither may touch the
        checkpoint graph again.
        """
        payload = ChunkPayload.of(CountingCheckpoint())
        outcome = ChunkOutcome(index=0, payload=payload,
                               telemetry=ChunkTelemetry(
                                   evaluations=3, wall_seconds=0.1,
                                   checkpoint_bytes=payload.nbytes))
        # Hop 1: worker -> host over the result queue.
        wire = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        assert CountingCheckpoint.pickles == 1
        received = pickle.loads(wire)
        # The host re-queues the continuation lazily, from bytes.
        scheduler = ChunkScheduler(tiny_matrix()[:1], chunk_evaluations=2)
        scheduler.next_task()
        assert scheduler.record(received) is None
        continuation = scheduler.next_task()
        assert continuation.checkpoint == payload
        assert CountingCheckpoint.pickles == 1
        # Hop 2: host -> (any) worker over the task queue.
        wire = pickle.dumps(continuation, protocol=pickle.HIGHEST_PROTOCOL)
        assert CountingCheckpoint.pickles == 1
        dispatched = pickle.loads(wire)
        # Only the resuming worker materializes the checkpoint.
        assert isinstance(dispatched.checkpoint.load(), CountingCheckpoint)
        assert CountingCheckpoint.pickles == 1

    def test_tcp_framing_forwards_bytes_verbatim(self):
        """The same invariant through the real wire framing."""
        left, right = socket.socketpair()
        try:
            payload = ChunkPayload.of(CountingCheckpoint())
            outcome = ChunkOutcome(index=0, payload=payload)
            send_raw_frame(left, codec.encode(("result", outcome)))
            kind, received = codec.decode(recv_raw_frame(right))
            assert kind == "result"
            assert CountingCheckpoint.pickles == 1
            task = ChunkTask(index=0, spec=tiny_matrix()[0],
                             checkpoint=received.payload, pause_after=2)
            send_raw_frame(left, codec.encode(("task", task)))
            kind, received_task = codec.decode(recv_raw_frame(right))
            assert kind == "task"
            assert CountingCheckpoint.pickles == 1
            assert isinstance(received_task.checkpoint.load(),
                              CountingCheckpoint)
            assert CountingCheckpoint.pickles == 1
        finally:
            left.close()
            right.close()

    def test_worker_outcome_carries_payload_not_object(self):
        """Real execution: a pause returns bytes, never the object."""
        spec = tiny_matrix(faults=[None])[0]  # never finds: always pauses
        outcome = execute_chunk_task(ChunkTask(index=0, spec=spec,
                                               pause_after=2))
        assert isinstance(outcome.payload, ChunkPayload)
        assert isinstance(outcome.payload.load(), CampaignCheckpoint)
        assert outcome.telemetry.checkpoint_bytes == outcome.payload.nbytes


class TestRoundTripEquivalence:
    def test_bytes_path_equals_object_path_bit_for_bit(self):
        """Resuming from payload bytes ≡ resuming from the object."""
        spec = tiny_matrix(max_evaluations=6, faults=[None])[0]
        first = execute_chunk_task(ChunkTask(index=0, spec=spec,
                                             pause_after=2))
        checkpoint = first.payload.load()
        from_object, _ = run_shard_chunk(spec, checkpoint, None)
        from_bytes, _ = run_shard_chunk(spec, first.payload, None)
        assert from_object is not None and from_bytes is not None
        assert (deterministic_result_view(from_object.result)
                == deterministic_result_view(from_bytes.result))
        assert (from_object.coverage.global_counts
                == from_bytes.coverage.global_counts)

    def test_multi_hop_payload_chain_matches_monolithic_run(self):
        """Pause/resume through simulated transport hops ≡ one shot."""
        spec = tiny_matrix(max_evaluations=7, faults=[None])[0]
        monolithic, _ = run_shard_chunk(spec, None, None)
        resume = None
        shard = None
        for _ in range(20):
            outcome = execute_chunk_task(ChunkTask(index=0, spec=spec,
                                                   checkpoint=resume,
                                                   pause_after=2))
            assert outcome.error is None
            if outcome.shard is not None:
                shard = outcome.shard
                break
            # Simulate both transport hops on the payload bytes.
            resume = pickle.loads(pickle.dumps(outcome.payload))
        assert shard is not None
        assert (deterministic_result_view(shard.result)
                == deterministic_result_view(monolithic.result))
        assert (shard.coverage.global_counts
                == monolithic.coverage.global_counts)

    def test_small_frame_service_sweep_matches_serial(self, tmp_path):
        """Checkpoints (~9 KiB here) ride a 32 KiB frame cap through
        every pause of a service job, bit-identical to serial."""
        specs = tiny_matrix(max_evaluations=4, seeds_per_cell=1)
        serial = run_campaigns(specs, workers=1)
        service = VerificationService(tmp_path / "store.sqlite",
                                      max_frame_bytes=32768,
                                      start_http=False)
        job_id = service.submit_job(specs, SweepConfig(chunk_evaluations=2))
        worker = spawn_service_workers(service.address, 1)
        try:
            status = service.wait_job(job_id, timeout=120.0)
            small_frames = service.job_report(job_id)
        finally:
            service.close()
            reap_workers(worker)
        assert status["state"] == JOB_DONE
        assert outcomes(serial) == outcomes(small_frames)
        assert (serial.coverage.global_counts
                == small_frames.coverage.global_counts)


#: A paused chunk's ``ChunkPayload.data`` from a release whose engine
#: checkpoints still carried verdict-cache state: the first 3 of
#: :func:`parent_era_spec`'s 6 evaluations, run through
#: ``execute_chunk_task`` with a fresh ``VerdictCache``.
PARENT_PAYLOAD = Path(__file__).parent / "data" / "parent_chunk_payload.pickle"


def parent_era_spec():
    return campaign_matrix(kinds=[GeneratorKind.MCVERSI_ALL], faults=[None],
                           generator_config=GeneratorConfig.quick(
                               memory_kib=1, test_size=16, iterations=2,
                               population_size=4),
                           system_config=SystemConfig(), max_evaluations=6,
                           seeds_per_cell=1, base_seed=27)[0]


class TestParentEraPayload:
    """A stored payload whose checkpoint carries a cache copy resumes."""

    def test_old_cache_field_is_an_ignored_attribute(self):
        checkpoint = ChunkPayload(PARENT_PAYLOAD.read_bytes()).load()
        assert checkpoint.evaluations == 3
        stale = checkpoint.engine.verdict_cache
        assert isinstance(stale, VerdictCacheState) and stale.entries
        assert "verdict_cache" not in {
            field.name for field in fields(checkpoint.engine)}

    @pytest.mark.parametrize("memo", [False, True], ids=["off", "memo"])
    def test_resumes_bit_identical_to_serial(self, memo):
        spec = parent_era_spec()
        serial, _ = run_shard_chunk(spec, None, None)
        scheduler = ChunkScheduler([spec], chunk_evaluations=2,
                                   verdict_memo=memo)
        scheduler.restore_progress(
            completed=[], checkpoints={0: PARENT_PAYLOAD.read_bytes()})
        worker = VerdictCache()
        completed = None
        while completed is None:
            task = scheduler.next_task()
            completed = scheduler.record(
                execute_chunk_task(task, verdict_cache=worker))
        _, shard = completed
        assert (deterministic_result_view(shard.result)
                == deterministic_result_view(serial.result))
        assert shard.coverage.global_counts == serial.coverage.global_counts
        assert (len(worker) > 0) is memo


class TestFrameCap:
    def test_service_derives_cache_cap_from_frame_cap(self,
                                                      service_cache_cap):
        assert service_cache_cap(SweepConfig(chunk_evaluations=2),
                                 max_frame_bytes=1 << 20) == \
            (1 << 20) // CHECKPOINT_FRAME_FRACTION
