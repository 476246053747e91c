"""Restart chaos battery for the durable verification service.

Four layers:

* unit tests for :class:`~repro.harness.store.SweepStore` — the
  crash-safe SQLite write-through store survives close/reopen with every
  job, checkpoint, result and verdict-cache snapshot intact;
* in-process service integration — submitted jobs complete bit-identically
  to a serial ``run_campaigns`` pass, overlapping jobs
  multiplex one worker pool, results stream by cursor, cancellation and
  ``/metrics`` work;
* the crash battery proper — the service is armed to fall silent
  (SIGKILL-equivalent) at fuzzed crash points (between the scheduler fold
  and the store commit, after the commit, during drain, with multiple
  sweeps in flight), restarted over the same store, and every resumed
  sweep's final report must be **bit-for-bit identical** to an
  uninterrupted serial run;
* real-process chaos — the CLI service is killed by
  ``REPRO_SERVICE_CRASH`` (an ``os._exit(137)`` mid-commit-window, the
  genuine article), restarted, and the recovered job must finish with
  the same pinned outcomes over the HTTP job API.

Also pinned here: the late-handshake drain race (a worker whose hello
lands while the service drains gets a clean shutdown frame, not an error
teardown) and service-started-last bringup (worker connect retries).
"""

import contextlib
import json
import os
import pickle
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from dataclasses import fields

import pytest
from test_verdict_memo import (mp_program, mp_trace,
                               sc_violating_program_and_trace)

from repro.consistency.checker import Checker
from repro.consistency.memo import (CachedVerdict, VerdictCache,
                                    VerdictCacheState)
from repro.consistency.models import SequentialConsistency, TotalStoreOrder
from repro.core.campaign import GeneratorKind
from repro.core.config import GeneratorConfig
from repro.harness import codec
from repro.harness.distributed import recv_raw_frame, send_raw_frame
from repro.harness.parallel import (SweepConfig, campaign_matrix,
                                    run_campaigns)
from repro.harness.service import (CRASH_ENV, SERVICE_MAGIC,
                                   SERVICE_VERSION, ServiceClient,
                                   VerificationService,
                                   _start_worker_threads, run_service_sweep,
                                   run_service_worker)
from repro.harness.store import (JOB_CANCELLED, JOB_DONE, JOB_RUNNING,
                                 SweepStore)
from repro.sim.config import SystemConfig
from repro.sim.faults import Fault


def tiny_config():
    return GeneratorConfig.quick(memory_kib=1, test_size=32, iterations=2,
                                 population_size=6)


def tiny_matrix(faults=(Fault.SQ_NO_FIFO, None), seeds_per_cell=2,
                max_evaluations=5, base_seed=7):
    return campaign_matrix(kinds=[GeneratorKind.MCVERSI_RAND],
                           faults=list(faults),
                           generator_config=tiny_config(),
                           system_config=SystemConfig(),
                           max_evaluations=max_evaluations,
                           seeds_per_cell=seeds_per_cell,
                           base_seed=base_seed)


def outcomes(report):
    return [(shard.result.found, shard.result.evaluations_to_find)
            for shard in report.shards]


CHUNKED = SweepConfig(chunk_evaluations=2)


# ----------------------------------------------------------------------
# Store unit tests

#: A job's stored config as written by the previous release, whose
#: ``SweepConfig`` still carried a field naming the checker backend:
#: ``SweepConfig(chunk_evaluations=3, verdict_memo=True)`` with that
#: field set to ``"matrix"``, as the store pickled it then.  Pickle
#: restores a dataclass by ``__dict__`` update, so the stray key loads
#: without error; it must not leak into equality or the JSON image.
PARENT_CONFIG_BLOB = (
    b'\x80\x05\x95-\x01\x00\x00\x00\x00\x00\x00'
    b'\x8c\x16repro.harness.parallel\x94'
    b'\x8c\x0bSweepConfig\x94\x93\x94)\x81\x94}\x94('
    b'\x8c\tscheduler\x94\x8c\rwork-stealing\x94'
    b'\x8c\x11chunk_evaluations\x94K\x03'
    b'\x8c\x0cchunk_sizing\x94\x8c\x05fixed\x94'
    b'\x8c\x14target_chunk_seconds\x94G@\x00\x00\x00\x00\x00\x00\x00'
    b'\x8c\x14max_checkpoint_bytes\x94N'
    b'\x8c\x0cverdict_memo\x94\x88\x8c\x0fchecker_'
    b'backend\x94'
    b'\x8c\x06matrix\x94\x8c\ttransport\x94\x8c\x05local\x94'
    b'\x8c\x0bcoordinator\x94N'
    b'\x8c\rlease_timeout\x94G@>\x00\x00\x00\x00\x00\x00'
    b'\x8c\x0fmax_frame_bytes\x94Nub.')

#: A job's stored config as written by the release before chunk sizing
#: was fixed: ``SweepConfig(chunk_evaluations=3, chunk_sizing="adaptive",
#: target_chunk_seconds=0.5, max_checkpoint_bytes=4096,
#: verdict_memo=True)``, as the store pickled it then.  The three sizing
#: keys load as stray attributes, outside the dataclass fields.
SIZING_CONFIG_BLOB = (
    b'\x80\x05\x95\xfb\x00\x00\x00\x00\x00\x00\x00'
    b'\x8c\x16repro.harness.parallel\x94'
    b'\x8c\x0bSweepConfig\x94\x93\x94)\x81\x94}\x94('
    b'\x8c\x11chunk_evaluations\x94K\x03'
    b'\x8c\x0cchunk_sizing\x94\x8c\x08adaptive\x94'
    b'\x8c\x14target_chunk_seconds\x94G?\xe0\x00\x00\x00\x00\x00\x00'
    b'\x8c\x14max_checkpoint_bytes\x94M\x00\x10'
    b'\x8c\x0cverdict_memo\x94\x88'
    b'\x8c\ttransport\x94\x8c\x05local\x94'
    b'\x8c\x0bcoordinator\x94N'
    b'\x8c\rlease_timeout\x94G@>\x00\x00\x00\x00\x00\x00'
    b'\x8c\x0fmax_frame_bytes\x94Nub.')

#: A job's stored config as written by the release whose ``SweepConfig``
#: still selected a tcp transport: ``SweepConfig(chunk_evaluations=3,
#: verdict_memo=True, transport="tcp", coordinator="127.0.0.1:7777",
#: lease_timeout=5.0, max_frame_bytes=1 << 20)``, as the store pickled
#: it then.  The four transport keys load as stray attributes; the
#: service that resumes the job sets all four itself.
TCP_CONFIG_BLOB = (
    b'\x80\x05\x95\xb9\x00\x00\x00\x00\x00\x00\x00'
    b'\x8c\x16repro.harness.parallel\x94'
    b'\x8c\x0bSweepConfig\x94\x93\x94)\x81\x94}\x94('
    b'\x8c\x11chunk_evaluations\x94K\x03'
    b'\x8c\x0cverdict_memo\x94\x88'
    b'\x8c\ttransport\x94\x8c\x03tcp\x94'
    b'\x8c\x0bcoordinator\x94\x8c\x0e127.0.0.1:7777\x94'
    b'\x8c\rlease_timeout\x94G@\x14\x00\x00\x00\x00\x00\x00'
    b'\x8c\x0fmax_frame_bytes\x94J\x00\x00\x10\x00ub.')

#: A job's verdict-cache snapshot as written by the release that keyed
#: verdicts on a canonical, renaming-invariant digest: the state carried
#: a ``keying`` field and each ``CachedVerdict`` its violation kinds.
#: It holds the keys of ``mp_trace(2, 1)`` checked under TSO (passing)
#: and of the stale-read SB trace under SC (failing, ``("ghb",)``).
PARENT_CACHE_BLOB = (
    b'\x80\x05\x95\xc3\x01\x00\x00\x00\x00\x00\x00\x8c\x16repro.con'
    b'sistency.memo\x94'
    b'\x8c\x11VerdictCacheState\x94\x93\x94)\x81\x94}\x94'
    b'(\x8c\x08capacity\x94K@\x8c\x06keying\x94\x8c\x06digest\x94'
    b'\x8c\x07entries\x94'
    b'\x8c@29be28641213a6cea2f9ebef6f4b6a699659a5fb2794d71a31736c9c'
    b'e8e052ae\x94'
    b'h\x00\x8c\rCachedVerdict\x94\x93\x94)\x81\x94}\x94'
    b'(\x8c\x06passed\x94\x88\x8c\x0fviolation_kinds\x94)ub\x86\x94'
    b'\x8c@2918f96b73ec95e722f735e8e3d329b1eb212cfd7813a5c8676a10b1'
    b'7a80b2b7\x94'
    b'h\x0b)\x81\x94}\x94(h\x0e\x89h\x0f\x8c\x03ghb\x94\x85\x94'
    b'ub\x86\x94\x86\x94\x8c\x04hits\x94K\x00\x8c\x06misses\x94'
    b'K\x02\x8c\tevictions\x94K\x00\x8c\x10failed_refreshes\x94'
    b'K\x00\x8c\rseconds_saved\x94'
    b'G\x00\x00\x00\x00\x00\x00\x00\x00\x8c\x16check_seconds_observ'
    b'ed\x94'
    b'G?5\x7fa<\x00\x00\x00\x8c\x0fchecks_observed\x94K\x02ub.')


def store_parent_bytes(path, sql, blob):
    """Write ``blob`` into a store row verbatim, as a parent release did."""
    with contextlib.closing(sqlite3.connect(path)) as connection:
        connection.execute(sql, (blob,))
        connection.commit()


def cache_state(entries=()):
    return VerdictCacheState(capacity=8, entries=tuple(entries), hits=0,
                             misses=len(entries), evictions=0,
                             failed_refreshes=0, seconds_saved=0.0,
                             check_seconds_observed=0.0, checks_observed=0)


class TestSweepStore:
    def test_job_round_trip_across_reopen(self, tmp_path):
        path = tmp_path / "store.sqlite"
        specs = tiny_matrix()[:3]
        store = SweepStore(path)
        store.create_job("job-a", specs, CHUNKED)
        store.commit_outcome("job-a", 0, payload=b"checkpoint-0")
        store.commit_outcome("job-a", 0, result="result-0",
                             cache_state=cache_state())
        store.commit_outcome("job-a", 2, payload=b"checkpoint-2")
        store.close()

        reopened = SweepStore(path)
        assert reopened.jobs() == [("job-a", JOB_RUNNING, 3, None)]
        assert reopened.job_definition("job-a") == (specs, CHUNKED)
        assert reopened.results("job-a") == {0: "result-0"}
        assert reopened.checkpoints("job-a") == {2: b"checkpoint-2"}
        assert reopened.cache_state("job-a") == cache_state()
        reopened.close()

    def test_done_clears_checkpoint(self, tmp_path):
        store = SweepStore(tmp_path / "store.sqlite")
        store.create_job("job", tiny_matrix()[:1], CHUNKED)
        store.commit_outcome("job", 0, payload=b"mid-shard")
        store.commit_outcome("job", 0, result="final")
        rows = [row[:3] for row in store.shard_rows("job")]
        assert rows == [(0, "done", None)]
        assert store.results("job") == {0: "final"}
        assert store.checkpoints("job") == {}
        store.close()

    def test_cache_state_upserts(self, tmp_path):
        store = SweepStore(tmp_path / "store.sqlite")
        store.create_job("job", tiny_matrix()[:1], CHUNKED)
        first = cache_state([("k1", CachedVerdict(True))])
        second = cache_state([("k2", CachedVerdict(False))])
        store.commit_outcome("job", 0, payload=b"p1", cache_state=first)
        store.commit_outcome("job", 0, payload=b"p2", cache_state=second)
        assert store.cache_state("job") == second
        assert store.checkpoints("job") == {0: b"p2"}
        store.close()

    def test_commit_needs_exactly_one_of_payload_or_result(self, tmp_path):
        store = SweepStore(tmp_path / "store.sqlite")
        store.create_job("job", tiny_matrix()[:1], CHUNKED)
        with pytest.raises(ValueError, match="exactly one"):
            store.commit_outcome("job", 0)
        with pytest.raises(ValueError, match="exactly one"):
            store.commit_outcome("job", 0, payload=b"p", result="r")
        store.close()

    def test_job_state_transitions_persist(self, tmp_path):
        path = tmp_path / "store.sqlite"
        store = SweepStore(path)
        store.create_job("job", tiny_matrix()[:1], CHUNKED)
        store.set_job_state("job", JOB_CANCELLED)
        with pytest.raises(ValueError, match="unknown job state"):
            store.set_job_state("job", "exploded")
        store.close()
        reopened = SweepStore(path)
        assert reopened.jobs()[0][1] == JOB_CANCELLED
        assert reopened.commits == 0  # per-process counter, not persisted
        reopened.close()

    def test_config_stored_before_backend_removal_resumes(self, tmp_path):
        path = tmp_path / "store.sqlite"
        store = SweepStore(path)
        store.create_job("old", tiny_matrix()[:1], SweepConfig())
        store.close()
        store_parent_bytes(path, "UPDATE jobs SET config = ?",
                           PARENT_CONFIG_BLOB)
        reopened = SweepStore(path)
        _, config = reopened.job_definition("old")
        reopened.close()
        expected = SweepConfig(chunk_evaluations=3, verdict_memo=True)
        assert config == expected
        image = config.to_json_dict()
        assert image == expected.to_json_dict()
        assert set(image) == {field.name for field in fields(SweepConfig)}
        assert SweepConfig.from_json_dict(json.loads(json.dumps(image))) \
            == expected

    def test_config_stored_before_sizing_removal_resumes(self, tmp_path):
        """A job stored with the removed sizing fields reopens as the
        current config and finishes bit-identical to serial."""
        self.assert_parent_config_resumes(tmp_path, SIZING_CONFIG_BLOB)

    def test_config_stored_before_tcp_removal_resumes(self, tmp_path):
        """A job stored with the removed transport fields reopens as the
        current config and finishes bit-identical to serial."""
        self.assert_parent_config_resumes(tmp_path, TCP_CONFIG_BLOB)

    @staticmethod
    def assert_parent_config_resumes(tmp_path, blob):
        expected = SweepConfig(chunk_evaluations=3, verdict_memo=True)
        specs = tiny_matrix()
        serial = run_campaigns(specs, workers=1, config=expected)
        path = tmp_path / "store.sqlite"
        store = SweepStore(path)
        store.create_job("old", specs, SweepConfig())
        store.commit_outcome("old", 0, result=serial.shards[0])
        store.close()
        store_parent_bytes(path, "UPDATE jobs SET config = ?", blob)
        reopened = SweepStore(path)
        _, config = reopened.job_definition("old")
        reopened.close()
        assert config == expected
        assert config.to_json_dict() == expected.to_json_dict()
        assert len(fields(SweepConfig)) == 2
        service = VerificationService(path, start_http=False)
        try:
            threads = _start_worker_threads(service.address, 2, None)
            assert service.wait_job("old", timeout=120)["state"] \
                != JOB_RUNNING
            report = service.job_report("old")
            assert outcomes(report) == outcomes(serial)
            assert (report.coverage.global_counts
                    == serial.coverage.global_counts)
        finally:
            service.close()
            for thread in threads:
                thread.join(timeout=5.0)

    def test_unknown_job_raises_key_error(self, tmp_path):
        store = SweepStore(tmp_path / "store.sqlite")
        with pytest.raises(KeyError):
            store.job_definition("nope")
        store.close()


# ----------------------------------------------------------------------
# In-process service integration


class TestServiceIntegration:
    def test_service_sweep_matches_serial(self):
        specs = tiny_matrix()
        serial = run_campaigns(specs, workers=1,
                               config=CHUNKED)
        report = run_service_sweep(specs, CHUNKED, workers=2)
        assert outcomes(report) == outcomes(serial)
        assert (report.coverage.global_counts
                == serial.coverage.global_counts)

    def test_overlapping_jobs_multiplex_one_worker_pool(self, tmp_path):
        specs_a = tiny_matrix(base_seed=7)
        specs_b = tiny_matrix(base_seed=1001, faults=(None,),
                              max_evaluations=3)
        serial_a = run_campaigns(specs_a, workers=1, config=CHUNKED)
        serial_b = run_campaigns(specs_b, workers=1, config=CHUNKED)

        service = VerificationService(tmp_path / "store.sqlite",
                                      start_http=False)
        try:
            job_a = service.submit_job(specs_a, CHUNKED)
            job_b = service.submit_job(specs_b, CHUNKED)
            threads = _start_worker_threads(service.address, 2, None)
            for job in (job_a, job_b):
                assert service.wait_job(job, timeout=120)["state"] \
                    != JOB_RUNNING
            assert outcomes(service.job_report(job_a)) == outcomes(serial_a)
            assert outcomes(service.job_report(job_b)) == outcomes(serial_b)
        finally:
            service.close()
            for thread in threads:
                thread.join(timeout=5.0)

    def test_results_stream_by_cursor_and_cancel(self, tmp_path):
        service = VerificationService(tmp_path / "store.sqlite",
                                      start_http=False)
        try:
            specs = tiny_matrix()
            job_id = service.submit_job(specs, CHUNKED)
            threads = _start_worker_threads(service.address, 2, None)
            cursor, streamed = 0, []
            deadline = time.monotonic() + 120
            while service.job_status(job_id)["state"] == JOB_RUNNING:
                assert time.monotonic() < deadline
                cursor, shards = service.job_results(job_id, since=cursor)
                streamed.extend(shards)
                time.sleep(0.02)
            cursor, shards = service.job_results(job_id, since=cursor)
            streamed.extend(shards)
            assert sorted(index for index, _ in streamed) \
                == list(range(len(specs)))

            # Cancelling a second job stops dispatch for it.
            other = service.submit_job(tiny_matrix(base_seed=99))
            service.cancel_job(other)
            assert service.job_status(other)["state"] == JOB_CANCELLED
            assert service.store.jobs()[-1][1] == JOB_CANCELLED
        finally:
            service.close()
            for thread in threads:
                thread.join(timeout=5.0)

    def test_job_cache_stored_before_exact_keys_resumes(self, tmp_path):
        old = pickle.loads(PARENT_CACHE_BLOB)
        assert isinstance(old, VerdictCacheState)
        assert [verdict for _, verdict in old.entries] \
            == [CachedVerdict(True), CachedVerdict(False)]

        # The old keys simply miss: the same executions key differently.
        cache = VerdictCache()
        assert cache.merge(old) == 2
        assert Checker(TotalStoreOrder()).check_trace(
            mp_program(), mp_trace(2, 1), cache=cache).passed
        program, trace = sc_violating_program_and_trace()
        assert not Checker(SequentialConsistency()).check_trace(
            program, trace, cache=cache).passed
        assert (cache.hits, cache.failed_refreshes) == (0, 0)
        assert cache.misses == 2 and len(cache) == 4

        # A stored job whose cache is that snapshot reopens and resumes.
        config = SweepConfig(chunk_evaluations=2, verdict_memo=True)
        specs = tiny_matrix()
        serial = run_campaigns(specs, workers=1, config=config)
        path = tmp_path / "store.sqlite"
        store = SweepStore(path)
        store.create_job("old", specs, config)
        store.commit_outcome("old", 0, result=serial.shards[0])
        store.close()
        store_parent_bytes(
            path, "INSERT INTO job_cache (job_id, state) VALUES ('old', ?)",
            PARENT_CACHE_BLOB)
        service = VerificationService(path, start_http=False)
        try:
            threads = _start_worker_threads(service.address, 2, None)
            assert service.wait_job("old", timeout=120)["state"] \
                != JOB_RUNNING
            report = service.job_report("old")
            assert outcomes(report) == outcomes(serial)
            assert (report.coverage.global_counts
                    == serial.coverage.global_counts)
            final = service.store.cache_state("old")
            keys = [key for key, _ in final.entries]
            assert [key for key, _ in old.entries] == keys[:2]
            assert len(keys) > 2
        finally:
            service.close()
            for thread in threads:
                thread.join(timeout=5.0)

    def test_job_config_stored_with_scheduler_field_resumes(self, tmp_path):
        """A job stored while ``SweepConfig`` still had a ``scheduler``
        field: pickle restores the stray key by ``__dict__`` update, and
        the recovered sweep must finish bit-identical to serial."""
        config = SweepConfig(chunk_evaluations=2, verdict_memo=True)
        specs = tiny_matrix()
        serial = run_campaigns(specs, workers=1, config=config)
        stored = SweepConfig(chunk_evaluations=2, verdict_memo=True)
        object.__setattr__(stored, "scheduler", "work-stealing")
        config_blob = pickle.dumps(stored)
        assert b"scheduler" in config_blob
        path = tmp_path / "store.sqlite"
        store = SweepStore(path)
        store.create_job("old", specs, config)
        store.commit_outcome("old", 0, result=serial.shards[0])
        store.close()
        store_parent_bytes(path, "UPDATE jobs SET config = ?", config_blob)
        service = VerificationService(path, start_http=False)
        try:
            threads = _start_worker_threads(service.address, 2, None)
            assert service.wait_job("old", timeout=120)["state"] \
                != JOB_RUNNING
            report = service.job_report("old")
            assert outcomes(report) == outcomes(serial)
            assert (report.coverage.global_counts
                    == serial.coverage.global_counts)
        finally:
            service.close()
            for thread in threads:
                thread.join(timeout=5.0)

    def test_metrics_expose_nonzero_counters(self, tmp_path):
        service = VerificationService(tmp_path / "store.sqlite",
                                      start_http=False)
        try:
            job_id = service.submit_job(tiny_matrix(), CHUNKED)
            threads = _start_worker_threads(service.address, 2, None)
            assert service.wait_job(job_id, timeout=120)["state"] \
                != JOB_RUNNING
            metrics = {}
            for line in service.metrics_text().splitlines():
                if line.startswith("#"):
                    continue
                name, value = line.rsplit(" ", 1)
                metrics[name] = float(value)
            assert metrics['mcversi_service_jobs{state="done"}'] == 1
            assert metrics["mcversi_service_shards_completed_total"] \
                == len(tiny_matrix())
            assert metrics["mcversi_service_chunks_recorded_total"] > 0
            assert metrics["mcversi_service_evaluations_total"] > 0
            assert metrics["mcversi_service_store_commits_total"] > 0
        finally:
            service.close()
            for thread in threads:
                thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# The crash battery (in-process SIGKILL equivalents)


class TestCrashRecovery:
    @pytest.mark.parametrize("crash_point,crash_nth", [
        ("before-commit", 1),
        ("before-commit", 3),
        ("after-commit", 1),
        ("after-commit", 4),
    ])
    def test_crash_resume_is_bit_identical(self, crash_point, crash_nth):
        specs = tiny_matrix()
        serial = run_campaigns(specs, workers=1, config=CHUNKED)
        report = run_service_sweep(specs, CHUNKED, workers=2,
                                   crash_point=crash_point,
                                   crash_nth=crash_nth)
        assert outcomes(report) == outcomes(serial)
        assert (report.coverage.global_counts
                == serial.coverage.global_counts)

    def test_crash_resume_with_memoized_verdicts(self):
        config = SweepConfig(chunk_evaluations=2, verdict_memo=True)
        specs = tiny_matrix()
        serial = run_campaigns(specs, workers=1, config=config)
        report = run_service_sweep(specs, config, workers=2,
                                   crash_point="before-commit",
                                   crash_nth=2)
        assert outcomes(report) == outcomes(serial)

    def test_crash_with_two_sweeps_in_flight_loses_neither(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        specs_a = tiny_matrix(base_seed=7)
        specs_b = tiny_matrix(base_seed=1001, faults=(None,),
                              max_evaluations=3)
        serial_a = run_campaigns(specs_a, workers=1, config=CHUNKED)
        serial_b = run_campaigns(specs_b, workers=1, config=CHUNKED)

        service = VerificationService(store_path, start_http=False)
        service.arm_crash("after-commit", nth=3)
        job_a = service.submit_job(specs_a, CHUNKED)
        job_b = service.submit_job(specs_b, CHUNKED)
        threads = _start_worker_threads(service.address, 2, None)
        deadline = time.monotonic() + 120
        while not service.crashed:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        service.kill()
        for thread in threads:
            thread.join(timeout=5.0)

        # Restart over the same store: both jobs must be recovered
        # mid-flight and resumed to completion.
        service = VerificationService(store_path, start_http=False)
        try:
            assert set(service.job_ids()) == {job_a, job_b}
            threads = _start_worker_threads(service.address, 2, None)
            for job in (job_a, job_b):
                assert service.wait_job(job, timeout=120)["state"] \
                    != JOB_RUNNING
            assert outcomes(service.job_report(job_a)) == outcomes(serial_a)
            assert outcomes(service.job_report(job_b)) == outcomes(serial_b)
        finally:
            service.close()
            for thread in threads:
                thread.join(timeout=5.0)

    def test_crash_during_drain_recovers(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        specs = tiny_matrix(faults=(None,), seeds_per_cell=1,
                            max_evaluations=2)
        service = VerificationService(store_path, start_http=False)
        job_id = service.submit_job(specs, CHUNKED)
        service.arm_crash("drain", nth=1)
        service.close()  # dies mid-drain; the job stays running in store
        assert service.crashed

        restarted = VerificationService(store_path, start_http=False)
        try:
            assert restarted.job_status(job_id)["state"] == JOB_RUNNING
            threads = _start_worker_threads(restarted.address, 2, None)
            assert restarted.wait_job(job_id, timeout=120)["state"] \
                != JOB_RUNNING
            serial = run_campaigns(specs, workers=1, config=CHUNKED)
            assert outcomes(restarted.job_report(job_id)) \
                == outcomes(serial)
        finally:
            restarted.close()
            for thread in threads:
                thread.join(timeout=5.0)

    def test_completed_jobs_survive_restart(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        specs = tiny_matrix(faults=(None,), seeds_per_cell=1,
                            max_evaluations=2)
        serial = run_campaigns(specs, workers=1, config=CHUNKED)
        report = run_service_sweep(specs, CHUNKED, workers=2,
                                   store_path=store_path)
        assert outcomes(report) == outcomes(serial)

        # A fresh service over the same store serves the finished job's
        # results without any worker ever connecting.
        service = VerificationService(store_path, start_http=False)
        try:
            (job_id,) = service.job_ids()
            assert service.job_status(job_id)["state"] == JOB_DONE
            assert outcomes(service.job_report(job_id)) == outcomes(serial)
        finally:
            service.close()


# ----------------------------------------------------------------------
# Drain race and bringup ordering


class TestDrainAndBringup:
    def test_late_hello_during_drain_gets_clean_shutdown(self, tmp_path):
        service = VerificationService(tmp_path / "store.sqlite",
                                      handshake_timeout=5.0,
                                      start_http=False)
        sock = socket.create_connection(service.address, timeout=5.0)
        sock.settimeout(5.0)
        try:
            challenge = codec.decode(recv_raw_frame(sock, 1 << 20))
            assert challenge[0] == "challenge"
            # The drain starts while this worker's hello is still in
            # flight: it must receive a clean shutdown frame, not an
            # error teardown or a hang.
            closer = threading.Thread(target=service.close, daemon=True)
            closer.start()
            time.sleep(0.1)
            send_raw_frame(sock, codec.encode(
                ("hello", SERVICE_MAGIC, SERVICE_VERSION, "late", "")),
                1 << 20)
            reply = codec.decode(recv_raw_frame(sock, 1 << 20))
            assert reply == ("shutdown",)
            closer.join(timeout=10.0)
            assert not closer.is_alive()
        finally:
            sock.close()

    def test_worker_started_before_service_retries_and_connects(
            self, tmp_path):
        # Reserve a port, then bring the worker up FIRST: its bounded
        # connect backoff must carry it through to the late service.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        stats_box = {}

        def early_worker():
            stats_box["stats"] = run_service_worker(
                ("127.0.0.1", port), connect_retries=40,
                connect_backoff=0.05)

        worker = threading.Thread(target=early_worker, daemon=True)
        worker.start()
        time.sleep(0.3)  # several refused connects happen in here

        service = VerificationService(tmp_path / "store.sqlite",
                                      bind=f"127.0.0.1:{port}",
                                      start_http=False)
        try:
            specs = tiny_matrix(faults=(None,), seeds_per_cell=1,
                                max_evaluations=2)
            job_id = service.submit_job(specs, CHUNKED)
            assert service.wait_job(job_id, timeout=120)["state"] \
                != JOB_RUNNING
            serial = run_campaigns(specs, workers=1, config=CHUNKED)
            assert outcomes(service.job_report(job_id)) == outcomes(serial)
        finally:
            service.close()
        worker.join(timeout=10.0)
        assert stats_box["stats"].chunks > 0


# ----------------------------------------------------------------------
# Real-process chaos: kill -9 the CLI service, restart, finish


def _spawn_serve(store_path, env=None):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = "src"
    environment.pop(CRASH_ENV, None)
    if env:
        environment.update(env)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.service", "serve",
         "--store", str(store_path),
         "--bind", "127.0.0.1:0", "--http-bind", "127.0.0.1:0"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=environment, stdout=subprocess.PIPE, text=True)
    header = json.loads(process.stdout.readline())
    return process, header


def _spawn_worker(address, count=2):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = "src"
    return [subprocess.Popen(
        [sys.executable, "-m", "repro.harness.service", "worker",
         "--connect", address, "--workers", "1",
         "--name", f"chaos-worker-{index}",
         "--connect-retries", "40", "--connect-backoff", "0.1"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=environment, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL) for index in range(count)]


def _reap(processes, timeout=20.0):
    for process in processes:
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=5.0)


class TestSubprocessChaos:
    def test_kill_nine_mid_commit_window_loses_nothing(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        specs = tiny_matrix()
        serial = run_campaigns(specs, workers=1, config=CHUNKED)

        # Phase 1: a service armed to die (os._exit(137)) right before
        # its 4th store commit, with a real sweep in flight.
        doomed, header = _spawn_serve(store_path,
                                      env={CRASH_ENV: "before-commit:4"})
        workers = []
        try:
            client = ServiceClient(header["http"])
            job_id = client.submit_specs(specs, CHUNKED)
            workers = _spawn_worker(header["worker"])
            doomed.wait(timeout=120)
            assert doomed.returncode == 137
        finally:
            if doomed.poll() is None:
                doomed.send_signal(signal.SIGKILL)
            _reap([doomed, *workers])

        # Phase 2: restart over the same store; the job must be
        # recovered, resumed and completed with the pinned outcomes.
        revived, header = _spawn_serve(store_path)
        workers = []
        try:
            client = ServiceClient(header["http"])
            assert header["jobs"] == 1
            workers = _spawn_worker(header["worker"])
            status = client.wait(job_id, timeout=120)
            assert status["state"] == JOB_DONE
            report = client.fetch_report(job_id)
            assert outcomes(report) == outcomes(serial)
            metrics = client.metrics()
            assert 'mcversi_service_jobs{state="done"} 1' in metrics
            assert "mcversi_service_store_commits_total 0" not in metrics
        finally:
            revived.terminate()
            _reap([revived, *workers])
