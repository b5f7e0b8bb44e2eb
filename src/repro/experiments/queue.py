"""A content-addressed work queue: the queue server's private storage.

The queue holds :class:`~repro.experiments.jobs.ExperimentJob` values
(frozen, picklable, content-hashed) between their submission and their
completion.  :class:`JobQueue` keeps them as rows of two tables in the
database of its own :class:`~repro.experiments.store.ResultStore`
(``<queue>/results/results.sqlite``), owned by one
:class:`~repro.experiments.server.QueueServer`; submitters and workers
anywhere reach it through that server with
:class:`~repro.experiments.socket_queue.SocketQueue`, and inherit every
semantic below::

    queue_jobs(seq, key, job, worker)   pending (worker NULL) or claimed
    queue_failures(key, marker)         error + traceback markers (JSON)
    results, metrics, artifacts         the provenance-stamped ResultStore

* **Submission** inserts the pickled job in one transaction per batch;
  ``seq`` increases with every insert, so it *is* the submission order.
  Submitting a key that is already pending, claimed, or completed is a
  no-op (idempotent); a key that is enqueued again drops any failure
  marker an earlier attempt left behind.
* **Claiming** (:meth:`JobQueue.claim`) is one ``UPDATE … RETURNING``
  of the lowest pending ``seq``.
* **Completion** (:meth:`JobQueue.complete`) is one ``BEGIN IMMEDIATE``
  transaction: the result row and its metric rows (the same
  provenance-stamped rows the in-process backends write through
  :class:`~repro.experiments.store.ResultStore`) and the delete of the
  claimed job row commit together.  One sync per completion, and a
  crash can never leave a stored result behind a still-claimed row.
  :meth:`JobQueue.release_claim` drops a claim without a result (a
  failure, or a row that will not unpickle).
* **Crash recovery**: a dead worker leaves its claimed row behind.
  Leases live in memory: a claim, or a heartbeat naming it, stamps the
  key with the monotonic clock, and :meth:`requeue_stale` returns
  claims older than a lease to pending; :meth:`requeue_worker` requeues
  a specific worker's claims immediately when the server *knows* it
  died (missed heartbeats, or a spawner that saw the process exit).  A
  requeued row keeps its ``seq``, so it keeps its place in line, and a
  claim found on opening the queue (a restarted server) starts a fresh
  lease.  Delivery is therefore **at least once** — a worker that
  merely stalled past its lease may complete a job a second worker
  re-ran — which is safe because :func:`execute_job` is deterministic:
  both completions write byte-identical result rows.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import socket
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.jobs import ExperimentJob
from repro.experiments.store import ResultStore, _insert_entry

__all__ = ["ClaimedJob", "JobQueue", "QueueCounts", "default_worker_id"]

_SCHEMA_SQL = """
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS queue_jobs (
    seq    INTEGER PRIMARY KEY,
    key    TEXT    NOT NULL UNIQUE,
    job    BLOB    NOT NULL,
    worker TEXT
);
CREATE INDEX IF NOT EXISTS idx_queue_jobs_pending
    ON queue_jobs (seq) WHERE worker IS NULL;
CREATE TABLE IF NOT EXISTS queue_failures (
    key    TEXT NOT NULL PRIMARY KEY,
    marker TEXT NOT NULL
);
COMMIT;
"""

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]")


def default_worker_id() -> str:
    """A host-unique worker identity: ``<hostname>-<pid>``."""
    return _SAFE_ID.sub("_", f"{socket.gethostname()}-{os.getpid()}")


@dataclass(frozen=True)
class ClaimedJob:
    """One job a worker holds exclusively until completed/failed/requeued."""

    key: str
    job: ExperimentJob
    worker_id: str


@dataclass(frozen=True)
class QueueCounts:
    pending: int = 0
    claimed: int = 0
    completed: int = 0
    failed: int = 0


class JobQueue:
    """The job tables a :class:`QueueServer` serves (see the module
    docstring).  Not thread-safe on its own: the server calls it under
    one lock.  Every state change is one transaction; a completion
    (:meth:`complete`) stores the result and deletes the job row in the
    same one."""

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        #: Completed results: the SQLite result database, in the same
        #: provenance-stamped rows the in-process backends write.  Its
        #: full sync per commit makes every job and result the server
        #: acknowledges durable.
        self.results = ResultStore(self.root / "results")
        self._conn = self.results.connection
        self._conn().executescript(_SCHEMA_SQL)
        #: Claimed key -> _mono() instant of its claim or last named
        #: heartbeat.  Patchable clock for tests.
        self._mono = time.monotonic
        now = self._mono()
        self._leases: dict[str, float] = {key: now for (key,) in self._conn().execute(
            "SELECT key FROM queue_jobs WHERE worker IS NOT NULL")}

    # -- submitter side ---------------------------------------------------------------
    def submit(self, job: ExperimentJob) -> str:
        return self.submit_many([job])[0]

    def submit_many(self, jobs: Sequence[ExperimentJob]) -> list[str]:
        """Enqueue every job not already queued or completed; one
        transaction for the batch."""
        keys = []
        with self.results._transaction() as conn:
            for job in jobs:
                key = job.key()
                keys.append(key)
                if self.result_entry(key) is not None:
                    continue
                inserted = conn.execute(
                    "INSERT OR IGNORE INTO queue_jobs (key, job) VALUES (?, ?)",
                    (key, pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL))).rowcount
                if inserted:
                    # A marker from an earlier attempt would fail this fresh
                    # one at once: the submitter polls for failures too.
                    conn.execute("DELETE FROM queue_failures WHERE key = ?", (key,))
        return keys

    def result_entry(self, key: str) -> Optional[dict]:
        return self.results.get_entry(key)

    def invalidate(self, key: str) -> None:
        self.results.invalidate(key)

    def failure(self, key: str) -> Optional[dict]:
        row = self._conn().execute(
            "SELECT marker FROM queue_failures WHERE key = ?", (key,)).fetchone()
        return None if row is None else json.loads(row[0])

    # -- recovery ---------------------------------------------------------------------
    def requeue_stale(self, lease_s: float) -> list[str]:
        now = self._mono()
        stale = [key for key, since in self._leases.items() if now - since >= lease_s]
        if not stale:
            return []
        for key in stale:
            del self._leases[key]
        marks = ", ".join("?" * len(stale))
        return self._requeue(f"key IN ({marks}) AND worker IS NOT NULL", stale)

    def requeue_worker(self, worker_id: str) -> list[str]:
        return self._requeue("worker = ?", (worker_id,))

    def _requeue(self, where: str, params: Sequence) -> list[str]:
        """Return the matching claims to pending, in submission order."""
        rows = self._conn().execute(
            f"UPDATE queue_jobs SET worker = NULL WHERE {where} RETURNING seq, key",
            params).fetchall()
        for _, key in rows:
            self._leases.pop(key, None)
        return [key for _, key in sorted(rows)]

    def counts(self) -> QueueCounts:
        pending, claimed, completed, failed = self._conn().execute(
            "SELECT (SELECT COUNT(*) FROM queue_jobs WHERE worker IS NULL), "
            "(SELECT COUNT(*) FROM queue_jobs WHERE worker IS NOT NULL), "
            "(SELECT COUNT(DISTINCT key) FROM results), "
            "(SELECT COUNT(*) FROM queue_failures)").fetchone()
        return QueueCounts(pending=pending, claimed=claimed,
                           completed=completed, failed=failed)

    def claimed_workers(self) -> set[str]:
        """The worker ids currently holding claims.

        A restarted coordinator (the queue server) adopts these into its
        liveness registry: a worker that never heartbeats again has its
        claims requeued after the heartbeat timeout instead of the full
        lease.
        """
        return {worker for (worker,) in self._conn().execute(
            "SELECT DISTINCT worker FROM queue_jobs WHERE worker IS NOT NULL")}

    # -- claims -----------------------------------------------------------------------
    def claim(self, worker_id: Optional[str] = None) -> Optional[ClaimedJob]:
        """Claim the pending job submitted first, or None when none is.

        A job row that will not unpickle becomes a failure marker and the
        next one is tried.
        """
        worker = worker_id or default_worker_id()
        while True:
            rows = self._conn().execute(
                "UPDATE queue_jobs SET worker = ? WHERE seq = (SELECT seq FROM "
                "queue_jobs WHERE worker IS NULL ORDER BY seq LIMIT 1) "
                "RETURNING key, job", (worker,)).fetchall()
            if not rows:
                return None
            [(key, blob)] = rows
            try:
                job = pickle.loads(blob)
            except Exception as error:
                self.record_failure(key, worker, repr(error),
                                    "".join(traceback.format_exception(error)))
                self.release_claim(key, worker)
                continue
            self._leases[key] = self._mono()
            return ClaimedJob(key=key, job=job, worker_id=worker)

    def heartbeat(self, worker_id: str,
                  keys: Optional[Sequence[str]] = None) -> list[str]:
        """Restart the lease of a worker's claims; returns their keys.

        With ``keys``, only the listed claims are refreshed — a claim
        the worker does not acknowledge working on (e.g. one orphaned by
        a retried CLAIM whose first response was lost) keeps aging and
        is recovered by the ordinary lease expiry.
        """
        wanted = None if keys is None else set(keys)
        now = self._mono()
        refreshed = []
        for (key,) in self._conn().execute(
                "SELECT key FROM queue_jobs WHERE worker = ? ORDER BY seq",
                (worker_id or default_worker_id(),)):
            if wanted is None or key in wanted:
                self._leases[key] = now
                refreshed.append(key)
        return refreshed

    def complete(self, key: str, worker_id: str, entry: dict) -> bool:
        """Store ``entry`` (a :func:`~repro.experiments.store.build_entry`
        dict) and drop the claim ``worker_id`` holds on ``key``, in one
        transaction; returns whether the claim was still held.

        The result is stored either way: a worker that stalled past its
        lease still completes a deterministic job, whose row a requeue
        has already handed to someone else.
        """
        with self.results._transaction() as conn:
            _insert_entry(conn, entry)
            deleted = _delete_claim(conn, key, worker_id)
        if deleted:
            self._leases.pop(key, None)
        return deleted

    def release_claim(self, key: str, worker_id: str) -> bool:
        """Drop the claim ``worker_id`` holds on ``key`` without a result
        (idempotent): the server-side half of a failure, and of a job row
        that will not unpickle."""
        deleted = _delete_claim(self._conn(), key, worker_id)
        if deleted:
            self._leases.pop(key, None)
        return deleted

    def record_failure(self, key: str, worker_id: str, error_repr: str,
                       traceback_text: str = "") -> None:
        """Store a failure marker from already-formatted error text (the
        form a failure crosses the wire in)."""
        marker = {
            "key": key,
            "worker": worker_id,
            "error": error_repr,
            "traceback": traceback_text,
        }
        self._conn().execute(
            "INSERT OR REPLACE INTO queue_failures (key, marker) VALUES (?, ?)",
            (key, json.dumps(marker, indent=2)))


def _delete_claim(conn, key: str, worker_id: str) -> bool:
    """Delete ``key``'s job row if ``worker_id`` still holds it (a requeue
    may already have taken it)."""
    return bool(conn.execute(
        "DELETE FROM queue_jobs WHERE key = ? AND worker = ?",
        (key, worker_id or default_worker_id())).rowcount)
