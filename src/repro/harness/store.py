"""Crash-safe durable store for the verification service's sweeps.

One SQLite database (WAL mode, synchronous writes) holds everything the
service needs to reconstruct itself after a crash or kill -9:

* ``jobs`` — one row per submitted job: the pickled ``CampaignSpec``
  list, the pickled :class:`~repro.harness.parallel.SweepConfig`, and
  the job's lifecycle state;
* ``shards`` — one row per shard of each job: ``pending`` with no
  bytes, ``paused`` with the latest committed
  :class:`~repro.harness.parallel.ChunkPayload` checkpoint bytes, or
  ``done`` with the pickled :class:`~repro.harness.parallel.ShardResult`;
* ``job_cache`` — the latest pickled
  :class:`~repro.consistency.memo.VerdictCacheState` per memoized job.

The write-through unit is exactly what the wire already carries: the
single-serialization checkpoint payload bytes and the folded shard
result, committed in one transaction per recorded chunk
(:meth:`SweepStore.commit_outcome`).  Recovery replays at most the one
chunk whose fold raced the commit — and chunk replays are bit-identical
by the determinism contract, so a restart never changes any result.

The store owns its row format: jobs, shard results and cache states go
in and come out as objects, and pickling them happens here and nowhere
else in the service.  Trust model: the store only ever unpickles bytes
this process (or a predecessor service process on the same host) wrote.
Worker-supplied checkpoint payloads are stored and re-dispatched as
opaque bytes — the service never deserializes them (see
``docs/service.md``).
"""

from __future__ import annotations

import os
import pickle
import sqlite3
from typing import TYPE_CHECKING, Iterator

from repro.locking import TracedLock, guarded_by

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consistency.memo import VerdictCacheState
    from repro.harness.parallel import CampaignSpec, ShardResult, SweepConfig

#: ``jobs.state`` lifecycle values.
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_STATES = (JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id     TEXT PRIMARY KEY,
    created_seq INTEGER NOT NULL,
    state      TEXT NOT NULL,
    specs      BLOB NOT NULL,
    config     BLOB NOT NULL,
    total      INTEGER NOT NULL,
    error      TEXT
);
CREATE TABLE IF NOT EXISTS shards (
    job_id     TEXT NOT NULL,
    idx        INTEGER NOT NULL,
    state      TEXT NOT NULL,
    checkpoint BLOB,
    result     BLOB,
    PRIMARY KEY (job_id, idx)
);
CREATE TABLE IF NOT EXISTS job_cache (
    job_id     TEXT PRIMARY KEY,
    state      BLOB NOT NULL
);
"""


@guarded_by("_lock", "_conn", "commits")
class SweepStore:
    """The service's durable state; safe for multi-threaded use.

    All methods serialize on one internal lock (a leaf in the sanctioned
    lock hierarchy, acquired under the service lock and nothing else;
    the service's request handlers write through from many threads);
    every mutation is one SQLite transaction, so a kill -9 between any
    two calls leaves a consistent database.  WAL journaling keeps committed transactions
    durable across process death; ``synchronous=FULL`` extends that to
    host power loss at the price of an fsync per commit — cheap at
    chunk granularity.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = TracedLock("sweep_store")
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        #: Committed write-through transactions since this process
        #: opened the store (observability; the crash-point hooks of
        #: the chaos battery key off it too).
        self.commits = 0

    # -- jobs ----------------------------------------------------------

    def create_job(self, job_id: str, specs: list[CampaignSpec],
                   config: SweepConfig) -> None:
        """Persist a new job and one pending row per spec."""
        total = len(specs)
        specs_blob, config_blob = _dumps(specs), _dumps(config)
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(created_seq), 0) + 1 FROM jobs"
            ).fetchone()
            self._conn.execute(
                "INSERT INTO jobs (job_id, created_seq, state, specs, "
                "config, total) VALUES (?, ?, ?, ?, ?, ?)",
                (job_id, row[0], JOB_RUNNING, specs_blob, config_blob,
                 total))
            self._conn.executemany(
                "INSERT INTO shards (job_id, idx, state) VALUES (?, ?, "
                "'pending')",
                ((job_id, index) for index in range(total)))
            self._conn.commit()
            self.commits += 1

    def jobs(self) -> list[tuple[str, str, int, str | None]]:
        """``(job_id, state, total, error)`` rows in submission order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, state, total, error FROM jobs "
                "ORDER BY created_seq").fetchall()
        return [(row[0], row[1], row[2], row[3]) for row in rows]

    def job_definition(self, job_id: str
                       ) -> tuple[list[CampaignSpec], SweepConfig]:
        """The ``(specs, config)`` a job was created with."""
        with self._lock:
            row = self._conn.execute(
                "SELECT specs, config FROM jobs WHERE job_id = ?",
                (job_id,)).fetchone()
        if row is None:
            raise KeyError(f"unknown job {job_id!r}")
        return pickle.loads(row[0]), pickle.loads(row[1])

    def set_job_state(self, job_id: str, state: str,
                      error: str | None = None) -> None:
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, error = ? WHERE job_id = ?",
                (state, error, job_id))
            self._conn.commit()
            self.commits += 1

    # -- write-through -------------------------------------------------

    def commit_outcome(self, job_id: str, index: int,
                       payload: bytes | None = None,
                       result: ShardResult | None = None,
                       cache_state: VerdictCacheState | None = None
                       ) -> None:
        """Commit one folded chunk outcome in a single transaction.

        Exactly one of ``payload`` (the paused chunk's checkpoint
        bytes, stored verbatim) or ``result`` (the completed shard's
        ``ShardResult``) must be given; ``cache_state`` (a
        ``VerdictCacheState``) rides along in the same transaction when
        the job's verdict cache changed.
        """
        if (payload is None) == (result is None):
            raise ValueError("commit_outcome needs exactly one of "
                             "payload or result")
        result_blob = _dumps(result) if result is not None else None
        cache_blob = _dumps(cache_state) if cache_state is not None else None
        with self._lock:
            if result_blob is not None:
                self._conn.execute(
                    "UPDATE shards SET state = 'done', result = ?, "
                    "checkpoint = NULL WHERE job_id = ? AND idx = ?",
                    (result_blob, job_id, index))
            else:
                self._conn.execute(
                    "UPDATE shards SET state = 'paused', checkpoint = ? "
                    "WHERE job_id = ? AND idx = ?",
                    (payload, job_id, index))
            if cache_blob is not None:
                self._conn.execute(
                    "INSERT INTO job_cache (job_id, state) VALUES (?, ?) "
                    "ON CONFLICT (job_id) DO UPDATE SET state = "
                    "excluded.state",
                    (job_id, cache_blob))
            self._conn.commit()
            self.commits += 1

    # -- recovery reads ------------------------------------------------

    def shard_rows(self, job_id: str
                   ) -> Iterator[tuple[int, str, bytes | None,
                                       bytes | None]]:
        """``(idx, state, checkpoint, result)`` per shard, in index order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT idx, state, checkpoint, result FROM shards "
                "WHERE job_id = ? ORDER BY idx", (job_id,)).fetchall()
        for row in rows:
            yield (row[0], row[1],
                   bytes(row[2]) if row[2] is not None else None,
                   bytes(row[3]) if row[3] is not None else None)

    def results(self, job_id: str) -> dict[int, ShardResult]:
        """The ``ShardResult`` of every completed shard."""
        return {index: pickle.loads(result)
                for index, state, _, result in self.shard_rows(job_id)
                if state == "done" and result is not None}

    def checkpoints(self, job_id: str) -> dict[int, bytes]:
        """Latest committed checkpoint bytes of every paused shard."""
        return {index: checkpoint
                for index, state, checkpoint, _ in self.shard_rows(job_id)
                if state == "paused" and checkpoint is not None}

    def cache_state(self, job_id: str) -> VerdictCacheState | None:
        """The job's latest committed ``VerdictCacheState``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT state FROM job_cache WHERE job_id = ?",
                (job_id,)).fetchone()
        return pickle.loads(row[0]) if row is not None else None

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def _dumps(value: object) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
