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

    queue_jobs(seq, key, job)           submitted, not yet completed
    queue_failures(key, marker)         error + traceback markers (JSON)
    results, metrics, artifacts         the provenance-stamped ResultStore

* **Submission** inserts the job bytes verbatim, in one transaction per
  batch; ``seq`` increases with every insert, so it *is* the submission
  order.  Submitting a key that is already queued, or whose newest
  result row carries the current schema, is a no-op (idempotent); a key
  that is enqueued again drops any failure marker an earlier attempt
  left behind.
* **Claims live in memory**, in the one process that owns the queue: a
  claim is a lease, key → (worker, stamp, seq), never a row.
  :meth:`JobQueue.claim` reads the lowest-``seq`` row no lease holds and
  commits nothing; a job is *pending* while its row has no lease.
* **Completion** (:meth:`JobQueue.complete`) is one ``BEGIN IMMEDIATE``
  transaction: the result row its worker built and sent
  (:func:`~repro.experiments.store.result_row`) with its metric rows,
  and the delete of the job row, commit together, and any lease on the
  key ends.  One sync per completion, and a crash can never leave a
  stored result behind a queued row.  :meth:`JobQueue.fail` stores a
  failure marker and drops the row only if the sender holds its lease.
* **Crash recovery**: a claim, or a heartbeat naming it, stamps the
  lease with the monotonic clock; :meth:`requeue_stale` forgets leases
  older than a timeout, and :meth:`requeue_worker` forgets a worker's
  leases at once when its death is known (a spawner that saw the
  process exit).  A requeued row keeps its ``seq``, so it keeps its
  place in line, and a restarted server, which starts with no leases,
  offers every unfinished row again at once.  Delivery is therefore
  **at least once** — a worker that stalled past its lease, or outlived
  a server restart, may complete a job a second worker re-ran — which
  is safe because job execution is deterministic: both completions
  write equal result rows, and the first one ends the job.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.store import ResultStore, _insert_row

__all__ = ["JobQueue", "QueueCounts"]

# Queue databases written before claims moved to memory carry a
# ``worker`` column (left NULL from now on) and a pending-row index.
_SCHEMA_SQL = """
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS queue_jobs (
    seq    INTEGER PRIMARY KEY,
    key    TEXT    NOT NULL UNIQUE,
    job    BLOB    NOT NULL
);
DROP INDEX IF EXISTS idx_queue_jobs_pending;
CREATE TABLE IF NOT EXISTS queue_failures (
    key    TEXT NOT NULL PRIMARY KEY,
    marker TEXT NOT NULL
);
COMMIT;
"""

_COUNTS_SQL = (
    "SELECT (SELECT COUNT(*) FROM queue_jobs), "
    "(SELECT COUNT(DISTINCT key) FROM results), "
    "(SELECT COUNT(*) FROM queue_failures)"
)


@dataclass(frozen=True)
class QueueCounts:
    pending: int = 0
    claimed: int = 0
    completed: int = 0
    failed: int = 0


class JobQueue:
    """The job tables a :class:`QueueServer` serves, and its leases (see
    the module docstring).  Not thread-safe on its own: the server calls
    it under one lock.  Every row change is one transaction; a
    completion (:meth:`complete`) stores the result and deletes the job
    row in the same one."""

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        #: Completed results: the SQLite result database, in the same
        #: provenance-stamped rows the in-process backends write.  Its
        #: full sync per commit makes every job and result the server
        #: acknowledges durable.
        self.results = ResultStore(self.root / "results")
        self._conn = self.results.connection
        self._conn().executescript(_SCHEMA_SQL)
        #: The leases: claimed key -> (worker, _mono() instant of its
        #: claim or last naming heartbeat, seq).  Every key is a queued
        #: row.  Patchable clock for tests.
        self._claims: dict[str, tuple[str, float, int]] = {}
        self._mono = time.monotonic

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

    def counts(self) -> QueueCounts:
        queued, completed, failed = self._conn().execute(_COUNTS_SQL).fetchone()
        claimed = len(self._claims)
        return QueueCounts(queued - claimed, claimed, completed, failed)

    # -- recovery ---------------------------------------------------------------------
    def requeue_stale(self, timeout_s: float) -> list[str]:
        """Forget every lease not stamped for ``timeout_s``; returns their
        keys in submission order."""
        now = self._mono()
        return self._requeue(lambda worker, stamp: now - stamp >= timeout_s)

    def requeue_worker(self, worker_id: str) -> list[str]:
        """Forget ``worker_id``'s leases; returns their keys in submission
        order."""
        return self._requeue(lambda worker, stamp: worker == worker_id)

    def _requeue(self, matches) -> list[str]:
        requeued = sorted(
            (seq, key) for key, (worker, stamp, seq) in self._claims.items() if matches(worker, stamp)
        )
        for _, key in requeued:
            del self._claims[key]
        return [key for _, key in requeued]

    # -- claims -----------------------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[tuple[str, bytes]]:
        """Lease the unclaimed job submitted first to ``worker_id``:
        ``(key, job bytes)``, or None when every row is claimed.  A read;
        nothing is written."""
        # Every lease holds a row, so the first len(claims) + 1 rows hold
        # an unclaimed one whenever any exists.
        query = "SELECT seq, key, job FROM queue_jobs ORDER BY seq LIMIT ?"
        for seq, key, job in self._conn().execute(query, (len(self._claims) + 1,)).fetchall():
            if key not in self._claims:
                self._claims[key] = (worker_id, self._mono(), seq)
                return key, job
        return None

    def heartbeat(self, worker_id: str, keys: Sequence[str]) -> list[str]:
        """Restamp the leases ``worker_id`` holds among ``keys``; returns
        their keys in submission order.

        A lease the worker does not name (e.g. one orphaned by a retried
        CLAIM whose first response was lost) keeps aging, and the
        sweeper recovers it.
        """
        now = self._mono()
        refreshed = []
        for key in keys:
            claim = self._claims.get(key)
            if claim is not None and claim[0] == worker_id:
                self._claims[key] = (worker_id, now, claim[2])
                refreshed.append((claim[2], key))
        return [key for _, key in sorted(refreshed)]

    def complete(self, key: str, row: dict) -> None:
        """Store ``row`` (a :func:`~repro.experiments.store.result_row`)
        and delete ``key``'s job row in one transaction, ending any lease
        on it.

        A stored result ends the job whoever holds the lease: a worker
        that stalled past its lease completes a deterministic job whose
        row a requeue handed to someone else, and the second completion
        rewrites an equal row.  A row filed under another key is refused.
        """
        if row["key"] != key:
            raise ValueError(f"a result row for {row['key']!r} cannot complete {key!r}")
        with self.results._transaction() as conn:
            _insert_row(conn, row)
            conn.execute("DELETE FROM queue_jobs WHERE key = ?", (key,))
        self._claims.pop(key, None)

    def fail(self, key: str, worker_id: str, error_repr: str, traceback_text: str = "") -> bool:
        """Store a failure marker from already-formatted error text (the
        form a failure crosses the wire in) and, if ``worker_id`` holds
        ``key``'s lease, delete its job row in the same transaction and
        end the lease; returns whether it held the lease."""
        marker = {
            "key": key,
            "worker": worker_id,
            "error": error_repr,
            "traceback": traceback_text,
        }
        claim = self._claims.get(key)
        held = claim is not None and claim[0] == worker_id
        with self.results._transaction() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO queue_failures (key, marker) VALUES (?, ?)",
                (key, json.dumps(marker, indent=2)),
            )
            if held:
                conn.execute("DELETE FROM queue_jobs WHERE key = ?", (key,))
        if held:
            del self._claims[key]
        return held
