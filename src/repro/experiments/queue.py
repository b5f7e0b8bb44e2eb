"""A content-addressed work queue: the queue server's private storage.

The queue holds jobs between their submission and their completion, as
the canonical JSON bytes their submitter encoded (see
:mod:`repro.experiments.jobs`), and never decodes them: a job's key is
the SHA-256 of its bytes, and a claim hands the same bytes to the
worker, the one party that reads them.  :class:`JobQueue` keeps them as
rows of two tables in the database of its own
:class:`~repro.experiments.store.ResultStore`
(``<queue>/results/results.sqlite``), owned by one
:class:`~repro.experiments.server.QueueServer`; submitters and workers
anywhere reach it through that server with
:class:`~repro.experiments.socket_queue.SocketQueue`, and inherit every
semantic below::

    queue_jobs(seq, key, job, worker)   pending (worker NULL) or claimed
    queue_failures(key, marker)         error + traceback markers (JSON)
    results, metrics, artifacts         the provenance-stamped ResultStore

* **Submission** inserts the job bytes verbatim, in one transaction per
  batch; ``seq`` increases with every insert, so it *is* the submission
  order.  Submitting a key that is already pending or claimed, or whose
  newest result row carries the current schema, is a no-op
  (idempotent); a key that is enqueued again drops any failure marker
  an earlier attempt left behind.
* **Claiming** (:meth:`JobQueue.claim`) is one ``UPDATE … RETURNING``
  of the lowest pending ``seq``.
* **Completion** (:meth:`JobQueue.complete`) is one ``BEGIN IMMEDIATE``
  transaction: the result row its worker built and sent
  (:func:`~repro.experiments.store.result_row`) with its metric rows,
  and the delete of the claimed job row, commit together.  One sync per
  completion, and a crash can never leave a stored result behind a
  still-claimed row.  :meth:`JobQueue.fail` drops a claim with a
  failure marker instead.
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
  re-ran — which is safe because job execution is deterministic: both
  completions write equal result rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.store import ResultStore, _insert_row

__all__ = ["JobQueue", "QueueCounts", "default_worker_id"]

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

_CLAIM_SQL = (
    "UPDATE queue_jobs SET worker = ? WHERE seq = "
    "(SELECT seq FROM queue_jobs WHERE worker IS NULL ORDER BY seq LIMIT 1) "
    "RETURNING key, job"
)

_COUNTS_SQL = (
    "SELECT (SELECT COUNT(*) FROM queue_jobs WHERE worker IS NULL), "
    "(SELECT COUNT(*) FROM queue_jobs WHERE worker IS NOT NULL), "
    "(SELECT COUNT(DISTINCT key) FROM results), "
    "(SELECT COUNT(*) FROM queue_failures)"
)

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]")


def default_worker_id() -> str:
    """A host-unique worker identity: ``<hostname>-<pid>``."""
    return _SAFE_ID.sub("_", f"{socket.gethostname()}-{os.getpid()}")


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
        claimed = self._conn().execute("SELECT key FROM queue_jobs WHERE worker IS NOT NULL")
        self._leases: dict[str, float] = {row[0]: now for row in claimed}

    # -- submitter side ---------------------------------------------------------------
    def submit_many(self, jobs: Sequence[bytes]) -> list[str]:
        """Enqueue every job (its canonical JSON bytes) not already queued
        or stored; one transaction for the batch.  Returns each job's key,
        the SHA-256 of its bytes."""
        keys = []
        with self.results._transaction() as conn:
            for job in jobs:
                key = hashlib.sha256(job).hexdigest()
                keys.append(key)
                if self.results.has_current(key):
                    continue
                insert = "INSERT OR IGNORE INTO queue_jobs (key, job) VALUES (?, ?)"
                if conn.execute(insert, (key, job)).rowcount:
                    # A marker from an earlier attempt would fail this fresh
                    # one at once: the submitter polls for failures too.
                    conn.execute("DELETE FROM queue_failures WHERE key = ?", (key,))
        return keys

    def failure(self, key: str) -> Optional[dict]:
        query = "SELECT marker FROM queue_failures WHERE key = ?"
        row = self._conn().execute(query, (key,)).fetchone()
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
        query = f"UPDATE queue_jobs SET worker = NULL WHERE {where} RETURNING seq, key"
        rows = self._conn().execute(query, params).fetchall()
        for _, key in rows:
            self._leases.pop(key, None)
        return [key for _, key in sorted(rows)]

    def counts(self) -> QueueCounts:
        pending, claimed, completed, failed = self._conn().execute(_COUNTS_SQL).fetchone()
        return QueueCounts(pending=pending, claimed=claimed, completed=completed, failed=failed)

    def claimed_workers(self) -> set[str]:
        """The worker ids currently holding claims.

        A restarted coordinator (the queue server) adopts these into its
        liveness registry: a worker that never heartbeats again has its
        claims requeued after the heartbeat timeout instead of the full
        lease.
        """
        query = "SELECT DISTINCT worker FROM queue_jobs WHERE worker IS NOT NULL"
        return {row[0] for row in self._conn().execute(query)}

    # -- claims -----------------------------------------------------------------------
    def claim(self, worker_id: Optional[str] = None) -> Optional[tuple[str, bytes]]:
        """Claim the pending job submitted first: ``(key, job bytes)``, or
        None when none is pending."""
        worker = worker_id or default_worker_id()
        rows = self._conn().execute(_CLAIM_SQL, (worker,)).fetchall()
        if not rows:
            return None
        key, job = rows[0]
        self._leases[key] = self._mono()
        return key, job

    def heartbeat(self, worker_id: str, keys: Optional[Sequence[str]] = None) -> list[str]:
        """Restart the lease of a worker's claims; returns their keys.

        With ``keys``, only the listed claims are refreshed — a claim
        the worker does not acknowledge working on (e.g. one orphaned by
        a retried CLAIM whose first response was lost) keeps aging and
        is recovered by the ordinary lease expiry.
        """
        wanted = None if keys is None else set(keys)
        now = self._mono()
        refreshed = []
        query = "SELECT key FROM queue_jobs WHERE worker = ? ORDER BY seq"
        for row in self._conn().execute(query, (worker_id or default_worker_id(),)):
            key = row[0]
            if wanted is None or key in wanted:
                self._leases[key] = now
                refreshed.append(key)
        return refreshed

    def complete(self, key: str, worker_id: str, row: dict) -> bool:
        """Store ``row`` (a :func:`~repro.experiments.store.result_row`)
        and drop the claim ``worker_id`` holds on ``key``, in one
        transaction; returns whether the claim was still held.

        The result is stored either way: a worker that stalled past its
        lease still completes a deterministic job, whose row a requeue
        has already handed to someone else.  A row filed under another
        key is refused.
        """
        if row["key"] != key:
            raise ValueError(f"a result row for {row['key']!r} cannot complete {key!r}")
        with self.results._transaction() as conn:
            _insert_row(conn, row)
            deleted = _delete_claim(conn, key, worker_id)
        if deleted:
            self._leases.pop(key, None)
        return deleted

    def fail(self, key: str, worker_id: str, error_repr: str, traceback_text: str = "") -> bool:
        """Store a failure marker from already-formatted error text (the
        form a failure crosses the wire in) and drop the claim
        ``worker_id`` holds on ``key``, in one transaction; returns
        whether the claim was still held."""
        marker = {
            "key": key,
            "worker": worker_id,
            "error": error_repr,
            "traceback": traceback_text,
        }
        with self.results._transaction() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO queue_failures (key, marker) VALUES (?, ?)",
                (key, json.dumps(marker, indent=2)),
            )
            deleted = _delete_claim(conn, key, worker_id)
        if deleted:
            self._leases.pop(key, None)
        return deleted


def _delete_claim(conn, key: str, worker_id: str) -> bool:
    """Delete ``key``'s job row if ``worker_id`` still holds it (a requeue
    may already have taken it)."""
    query = "DELETE FROM queue_jobs WHERE key = ? AND worker = ?"
    return bool(conn.execute(query, (key, worker_id or default_worker_id())).rowcount)
