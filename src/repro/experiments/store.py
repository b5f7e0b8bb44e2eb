"""The SQLite result database: the canonical store of experiment results.

:class:`ResultStore` is the single result path of every execution
backend — serial and parallel suites write their results through it,
and the queue server stores its workers' completions in it.

Each row carries a full provenance stamp — result schema version, the
scenario's dict and content hash, the job kind and duration override,
the git revision, and the wall-clock ``runtime_s`` and a-priori
``cost_units`` of the run — **plus** the pickled entry itself, so
:meth:`ResultStore.get_entry` returns the complete provenance-stamped
entry dict.  The provenance columns exist so the database is
*queryable*: the ``python -m repro.experiments results`` CLI lists,
shows, diffs and exports rows by kind / scenario hash / git revision
without touching a single result payload.

Rows are keyed ``(key, git_rev)`` — the job's content hash plus the
revision that produced it — so one durable database accumulates results
across commits and ``results diff`` can compare two revs-of-record (or
two databases) metric by metric.  Replays always read the newest row
for a key; determinism makes any row equally valid, and the two
documented rejection paths ("rejecting stale cache entry", "rejecting
tampered cache entry") are checked on every read.

Concurrency and durability: every connection runs one journal mode —
WAL with ``synchronous = FULL`` and a generous busy timeout.  Any
number of processes on one machine (a suite plus its pool workers, or
several suites) write simultaneously: writers queue on the WAL lock
instead of failing, and readers never block.  ``FULL`` syncs the WAL on
every commit, so a write is on disk before it returns — in particular
every result the queue server acknowledges is durable.  WAL's
cross-process coordination lives in a shared-memory file, which does
**not** span machines, so a database is written from one host only;
remote workers reach the queue server's database over TCP instead.  A
filesystem that refuses WAL leaves the connection in its previous
journal mode, still with a full sync per commit, and logs a warning.
Every write of more than one statement runs in one ``BEGIN IMMEDIATE``
transaction — the schema script included, so a fresh store costs one
sync instead of one per ``CREATE``.  A completion is one such
transaction: :func:`_insert_entry` writes the result row and its metric
rows, and the queue server deletes the job's queue row in the same
commit (:meth:`JobQueue.complete <repro.experiments.queue.JobQueue.complete>`),
so storing a result costs one sync.

Indexes, and the query each one serves (every index costs a write on
every insert):

* ``results`` primary key ``(key, git_rev)`` — :meth:`ResultStore.get_entry`,
  :meth:`~ResultStore.entries` and the population lookups of
  :meth:`~ResultStore.provenance_values`;
* ``idx_results_kind`` — ``results list --kind`` (:meth:`~ResultStore.rows`);
* ``idx_results_git_rev`` — :meth:`~ResultStore.git_revs`;
* ``idx_results_scenario_hash`` — kept for ``results list --scenario-hash``,
  though its prefix ``LIKE`` does not use it today;
* ``metrics`` primary key ``(key, git_rev, name)`` — the per-row search
  of :meth:`~ResultStore.metric_values` (the fleet report), and the
  delete that replaces a row's metrics.  There is no index on ``name``
  alone: the report filters names with ``LIKE`` inside each row, and an
  index that no plan used doubled the cost of every write, so stores
  that still carry ``idx_metrics_name`` drop it on open;
* ``idx_artifacts_benchmark`` — :meth:`~ResultStore.artifact_rows`.
"""

from __future__ import annotations

import copy
import json
import logging
import math
import os
import pickle
import re
import sqlite3
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro.experiments.jobs import CACHE_SCHEMA_VERSION, job_key
from repro.scenarios.scenario import canonical_hash, hashed_content

if TYPE_CHECKING:
    from repro.experiments.jobs import ExperimentJob

__all__ = ["ArtifactGcReport", "BackfillReport", "DiffDelta", "DiffReport",
           "GcReport", "PROVENANCE_METRIC_COLUMNS", "RESULT_DB_FILENAME",
           "ResultStore", "ToleranceTable", "current_git_rev",
           "diff_result_sets", "entry_metrics", "flatten_metrics",
           "numeric_metrics", "rekey_ignoring_fast_forward"]

logger = logging.getLogger(__name__)

#: The database file a store keeps inside its root directory.
RESULT_DB_FILENAME = "results.sqlite"

#: How long a writer waits on a locked database before giving up.  High
#: on purpose: every process writing one database funnels through one
#: lock, and a queued write is always better than a failed job.
BUSY_TIMEOUT_S = 30.0

_SCHEMA_SQL = """
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS results (
    key           TEXT    NOT NULL,
    git_rev       TEXT    NOT NULL,
    schema        INTEGER NOT NULL,
    kind          TEXT,
    duration      REAL,
    scenario_json TEXT    NOT NULL,
    scenario_hash TEXT    NOT NULL,
    runtime_s     REAL,
    cost_units    REAL,
    created_at    REAL    NOT NULL,
    entry         BLOB    NOT NULL,
    PRIMARY KEY (key, git_rev)
);
CREATE INDEX IF NOT EXISTS idx_results_scenario_hash
    ON results (scenario_hash);
CREATE INDEX IF NOT EXISTS idx_results_git_rev ON results (git_rev);
CREATE INDEX IF NOT EXISTS idx_results_kind ON results (kind);
CREATE TABLE IF NOT EXISTS metrics (
    key     TEXT NOT NULL,
    git_rev TEXT NOT NULL,
    name    TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (key, git_rev, name)
) WITHOUT ROWID;
DROP INDEX IF EXISTS idx_metrics_name;
CREATE TABLE IF NOT EXISTS artifacts (
    hash       TEXT    NOT NULL PRIMARY KEY,
    schema     INTEGER NOT NULL,
    kind       TEXT    NOT NULL,
    benchmark  TEXT,
    spec_json  TEXT    NOT NULL,
    git_rev    TEXT    NOT NULL,
    created_at REAL    NOT NULL,
    runtime_s  REAL,
    size_bytes INTEGER NOT NULL,
    payload    BLOB    NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_artifacts_benchmark
    ON artifacts (benchmark, created_at);
COMMIT;
"""

#: Provenance columns :meth:`ResultStore.provenance_values` may serve as
#: per-key metric streams (the fleet report's ``@column`` selectors).
PROVENANCE_METRIC_COLUMNS = ("runtime_s", "cost_units", "duration")


@lru_cache(maxsize=1)
def current_git_rev() -> str:
    """The repository's HEAD revision, or "unknown" outside a checkout.

    Stamped into result rows (provenance only — never part of the cache
    key, or replays across commits would always miss).
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _validate_entry(entry, location) -> Optional[dict]:
    """The shared read-side provenance checks (see module docstring).

    Returns the entry when usable, None (after the documented log line)
    otherwise.  Every store read funnels through here, so the rejection
    contract cannot drift between read paths.
    """
    if not isinstance(entry, dict) or "schema" not in entry:
        logger.warning(
            "cache entry %s predates provenance stamping; recomputing",
            location)
        return None
    if entry["schema"] != CACHE_SCHEMA_VERSION:
        logger.warning(
            "rejecting stale cache entry %s: schema version %s != current "
            "%s (written at git rev %s); recomputing", location,
            entry["schema"], CACHE_SCHEMA_VERSION,
            entry.get("git_rev", "unknown"))
        return None
    return entry


def _check_scenario_hash(entry, job: "ExperimentJob", location) -> bool:
    """True when the entry's stamped scenario hash matches ``job``'s.

    A mismatch means the entry was tampered with (or filed under the
    wrong key) and is rejected with a log line, never replayed.
    """
    expected = job.scenario.content_hash()
    stamped = entry.get("scenario_hash")
    if stamped != expected:
        logger.warning(
            "rejecting tampered cache entry %s: stamped scenario hash "
            "%s does not match the job's scenario %s (written at git "
            "rev %s); recomputing", location, stamped, expected,
            entry.get("git_rev", "unknown"))
        return False
    return True


def build_entry(job: "ExperimentJob", result,
                runtime_s: Optional[float] = None) -> dict:
    """The provenance-stamped entry dict for a freshly executed job.

    One construction site for every writer (store, queue workers), so
    the entry layout — including dict key order, which the
    cross-backend equivalence tests compare byte-for-byte after
    pickling — cannot diverge between backends.
    """
    # One to_dict() per completion: the key and the scenario hash are
    # derived from the same dict the entry stores.
    scenario = job.scenario.to_dict()
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "key": job_key(job.kind, job.duration, scenario),
        "kind": job.kind,
        "duration": job.duration,
        "scenario": scenario,
        "scenario_hash": canonical_hash(hashed_content(scenario)),
        # Explicit fidelity stamp: fast-forwarded results carry the flag
        # at the top level (not just inside the scenario dict), so no
        # tooling can mistake a temporally upscaled run for an exact one.
        "fast_forward": job.scenario.config.fast_forward.enabled,
        "git_rev": current_git_rev(),
        "runtime_s": runtime_s,
        "cost_units": job.cost_units(),
        "result": result,
    }


def _insert_entry(conn: sqlite3.Connection, entry: dict) -> None:
    """Write one entry's result row and its metric rows inside the
    caller's transaction — the one result writer, behind both
    :meth:`ResultStore.put_entry` and the queue server's
    :meth:`JobQueue.complete <repro.experiments.queue.JobQueue.complete>`.

    Alongside the result row, every numeric leaf of the result payload is
    flattened (:func:`numeric_metrics` — the same dotted names ``results
    diff`` compares) into the ``metrics`` table, so fleet-scale cohort
    queries run as pure SQL without ever unpickling a payload.
    """
    key = entry.get("key")
    git_rev = entry.get("git_rev", "unknown")
    conn.execute(
        "INSERT OR REPLACE INTO results (key, git_rev, schema, "
        "kind, duration, scenario_json, scenario_hash, runtime_s, "
        "cost_units, created_at, entry) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (key, git_rev,
         entry.get("schema"), entry.get("kind"), entry.get("duration"),
         json.dumps(entry.get("scenario", {}), sort_keys=True, default=list),
         entry.get("scenario_hash", ""), entry.get("runtime_s"),
         entry.get("cost_units"), time.time(),
         pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)))
    conn.execute("DELETE FROM metrics WHERE key = ? AND git_rev = ?",
                 (key, git_rev))
    conn.executemany(
        "INSERT OR REPLACE INTO metrics (key, git_rev, name, value) "
        "VALUES (?, ?, ?, ?)",
        [(key, git_rev, name, value) for name, value
         in sorted(numeric_metrics(entry).items())])


class ResultStore:
    """The SQLite-backed result database (see the module docstring).

    ``root`` may be a directory (the database lives at
    ``<root>/results.sqlite``) or a ``.sqlite`` / ``.db`` file path.
    Instances are cheap; each thread of each process opens its own
    connection (re-opened transparently after a fork — SQLite
    connections are affine to both).  Every connection runs WAL with a
    full sync per commit and a busy timeout (see the module docstring),
    so concurrent writers are safe and a committed write is durable.
    """

    def __init__(self, root: os.PathLike | str):
        given = Path(root)
        if given.suffix in (".sqlite", ".db"):
            self.root = given.parent
            self.db_path = given
        else:
            self.root = given
            self.db_path = given / RESULT_DB_FILENAME
        self.root.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()

    # -- connection management --------------------------------------------------------
    def connection(self) -> sqlite3.Connection:
        """This thread's connection (fork-safe: children reconnect).

        Per-thread because SQLite connections must not cross threads
        (the queue server answers requests from one handler thread per
        client connection); per-process because they must not cross a
        fork either.
        """
        if getattr(self._local, "conn", None) is None \
                or self._local.conn_pid != os.getpid():
            conn = sqlite3.connect(self.db_path, timeout=BUSY_TIMEOUT_S,
                                   isolation_level=None)
            conn.execute(f"PRAGMA busy_timeout = {int(BUSY_TIMEOUT_S * 1000)}")
            mode = conn.execute("PRAGMA journal_mode = WAL").fetchone()[0]
            if mode != "wal":
                logger.warning(
                    "result store %s could not enter WAL mode (journal mode "
                    "is %r); writes still sync fully but readers may block",
                    self.db_path, mode)
            # Set after the journal mode, whatever it turned out to be: a
            # commit is on disk before the writer acknowledges it.
            conn.execute("PRAGMA synchronous = FULL")
            conn.executescript(_SCHEMA_SQL)
            self._local.conn = conn
            self._local.conn_pid = os.getpid()
        return self._local.conn

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """This thread's connection inside one ``BEGIN IMMEDIATE`` …
        ``COMMIT``, rolled back when the body raises — so a multi-
        statement write is atomic and costs one sync."""
        conn = self.connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def close(self) -> None:
        """Close *this thread's* connection (others close on GC)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and self._local.conn_pid == os.getpid():
            conn.close()
        self._local.conn = None
        self._local.conn_pid = None

    def locate(self, key: str) -> str:
        """A human-readable location for ``key``, used in log lines."""
        return f"{self.db_path}#{key}"

    # -- job results ------------------------------------------------------------------
    def get(self, job: "ExperimentJob"):
        """The stored result for ``job``, or None when absent/unusable.

        Beyond the schema check in :meth:`get_entry`, the entry's stamped
        scenario hash must match the requesting job's scenario — a
        mismatch means the row was tampered with (or filed under the
        wrong key) and is rejected with a log line, never replayed.
        """
        entry = self.get_entry(job.key())
        if entry is None:
            return None
        if not _check_scenario_hash(entry, job, self.locate(job.key())):
            return None
        return entry.get("result")

    def get_entry(self, key: str) -> Optional[dict]:
        """The full provenance-stamped entry for ``key``, or None.

        With rows from several revisions on file, the newest wins —
        execution is deterministic, so any current-schema row is equally
        valid; the provenance stamps say which commit wrote it.
        """
        row = self.connection().execute(
            "SELECT entry FROM results WHERE key = ? "
            "ORDER BY created_at DESC, rowid DESC LIMIT 1", (key,)).fetchone()
        if row is None:
            return None
        try:
            entry = pickle.loads(row[0])
        except Exception:
            logger.warning("cache entry %s is unreadable; recomputing",
                           self.locate(key))
            return None
        return _validate_entry(entry, self.locate(key))

    def entries(self) -> Iterator[dict]:
        """Iterate every readable current-schema entry, newest row per key."""
        keys = [row[0] for row in self.connection().execute(
            "SELECT DISTINCT key FROM results ORDER BY key")]
        for key in keys:
            entry = self.get_entry(key)
            if entry is not None:
                yield entry

    def put(self, job: "ExperimentJob", result,
            runtime_s: Optional[float] = None) -> None:
        """Store ``result`` with provenance; one WAL transaction, so
        readers and concurrent writers never see a partial row."""
        self.put_entry(build_entry(job, result, runtime_s=runtime_s))

    def put_entry(self, entry: dict) -> None:
        """Insert (or replace) a pre-built entry dict's ``(key, git_rev)``
        row and its metric rows in one transaction — the writer behind
        :meth:`put` (see :func:`_insert_entry`)."""
        with self._transaction() as conn:
            _insert_entry(conn, entry)

    def invalidate(self, key: str) -> None:
        """Drop every revision's row for ``key`` (e.g. one that failed
        validation) in one transaction."""
        with self._transaction() as conn:
            conn.execute("DELETE FROM results WHERE key = ?", (key,))
            conn.execute("DELETE FROM metrics WHERE key = ?", (key,))

    def __len__(self) -> int:
        """Distinct result keys on file."""
        return self.connection().execute(
            "SELECT COUNT(DISTINCT key) FROM results").fetchone()[0]

    # -- SQL-side queries (no result unpickling) --------------------------------------
    def rows(self, kind: Optional[str] = None,
             scenario_hash: Optional[str] = None,
             git_rev: Optional[str] = None,
             keys: Optional[set] = None) -> list[dict]:
        """Provenance-only row dicts, filtered; newest first.

        ``scenario_hash`` and ``git_rev`` match by prefix, so the short
        hashes humans copy around work.  Result payloads stay pickled.
        """
        query = ("SELECT key, git_rev, schema, kind, duration, "
                 "scenario_json, scenario_hash, runtime_s, cost_units, "
                 "created_at FROM results")
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if scenario_hash is not None:
            clauses.append("scenario_hash LIKE ?")
            params.append(scenario_hash + "%")
        if git_rev is not None:
            clauses.append("git_rev LIKE ?")
            params.append(git_rev + "%")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY created_at DESC, rowid DESC"
        rows = []
        for record in self.connection().execute(query, params):
            row = {
                "key": record[0], "git_rev": record[1], "schema": record[2],
                "kind": record[3], "duration": record[4],
                "scenario": json.loads(record[5]), "scenario_hash": record[6],
                "runtime_s": record[7], "cost_units": record[8],
                "created_at": record[9],
            }
            if keys is None or row["key"] in keys:
                rows.append(row)
        return rows

    def git_revs(self) -> list[str]:
        """Every revision with rows on file, most recently written first."""
        return [row[0] for row in self.connection().execute(
            "SELECT git_rev, MAX(created_at) AS newest FROM results "
            "GROUP BY git_rev ORDER BY newest DESC")]

    def result_set(self, git_rev: Optional[str] = None) -> dict[str, dict]:
        """key → validated entry, optionally restricted to one revision
        (prefix match) — the operand of :func:`diff_result_sets`."""
        if git_rev is None:
            return {entry["key"]: entry for entry in self.entries()}
        entries = {}
        for record in self.connection().execute(
                "SELECT key, entry FROM results WHERE git_rev LIKE ? "
                "ORDER BY created_at, rowid", (git_rev + "%",)):
            try:
                entry = pickle.loads(record[1])
            except Exception:
                logger.warning("cache entry %s is unreadable; skipping",
                               self.locate(record[0]))
                continue
            entry = _validate_entry(entry, self.locate(record[0]))
            if entry is not None:
                entries[record[0]] = entry
        return entries

    # -- fleet analytics (pure SQL over provenance + metrics) -------------------------
    def _population(self, conn: sqlite3.Connection, table: str,
                    rows, columns: str) -> None:
        """(Re)fill a temp table with a population selection.  Temp tables
        are connection-local, so concurrent readers never collide."""
        conn.execute(f"CREATE TEMP TABLE IF NOT EXISTS {table} "
                     f"({columns}, PRIMARY KEY (key)) WITHOUT ROWID")
        conn.execute(f"DELETE FROM {table}")
        conn.executemany(
            f"INSERT OR REPLACE INTO {table} VALUES "
            f"({', '.join('?' * len(columns.split(',')))})", rows)

    def select_newest(self, keys, git_rev: Optional[str] = None
                      ) -> dict[str, str]:
        """``key -> git_rev`` of the newest current-schema row per key.

        The fleet report's row selection: restricted to the population
        ``keys``, optionally pinned to a revision (prefix match), and
        computed from provenance columns alone — no payload is unpickled.
        Keys with no row on file are simply absent (the report counts
        them as uncovered).
        """
        conn = self.connection()
        self._population(conn, "_population_keys",
                         ((key,) for key in keys), "key TEXT")
        query = ("SELECT r.key, r.git_rev, r.created_at, r.rowid "
                 "FROM results r JOIN _population_keys p ON p.key = r.key "
                 "WHERE r.schema = ?")
        params: list = [CACHE_SCHEMA_VERSION]
        if git_rev is not None:
            query += " AND r.git_rev LIKE ?"
            params.append(git_rev + "%")
        newest: dict[str, tuple] = {}
        for key, rev, created_at, rowid in conn.execute(query, params):
            current = newest.get(key)
            if current is None or (created_at, rowid) > current[1]:
                newest[key] = (rev, (created_at, rowid))
        return {key: rev for key, (rev, _) in newest.items()}

    def metric_values(self, selection: dict[str, str],
                      pattern: str) -> dict[str, list[float]]:
        """``key -> values`` of the metrics matching ``pattern`` among the
        ``(key, git_rev)`` rows in ``selection``.

        ``pattern`` is a SQL LIKE pattern (escape character ``\\``) over
        the flattened dotted metric names; one key yields several values
        when the pattern spans instances (``reports[%].rtt.mean``).
        Values come straight from the ``metrics`` table's primary key —
        no pickle is ever loaded on this path.
        """
        conn = self.connection()
        self._population(conn, "_population_rows",
                         selection.items(), "key TEXT, git_rev TEXT")
        values: dict[str, list[float]] = {}
        # CROSS JOIN pins the population as the outer loop, so each
        # selected row is one primary-key search into ``metrics``: the
        # cost follows the population, not the store.
        for key, value in conn.execute(
                "SELECT m.key, m.value FROM _population_rows p "
                "CROSS JOIN metrics m "
                "ON m.key = p.key AND m.git_rev = p.git_rev "
                "WHERE m.name LIKE ? ESCAPE '\\' "
                "ORDER BY m.key, m.name", (pattern,)):
            values.setdefault(key, []).append(value)
        return values

    def provenance_values(self, selection: dict[str, str],
                          column: str) -> dict[str, list[float]]:
        """Like :meth:`metric_values` for a numeric provenance column
        (``runtime_s`` / ``cost_units`` / ``duration``) — the seam that
        turns the store into a cross-revision perf ledger."""
        if column not in PROVENANCE_METRIC_COLUMNS:
            raise ValueError(f"unknown provenance metric {column!r}; "
                             f"known: {PROVENANCE_METRIC_COLUMNS}")
        conn = self.connection()
        self._population(conn, "_population_rows",
                         selection.items(), "key TEXT, git_rev TEXT")
        return {key: [value] for key, value in conn.execute(
            f"SELECT r.key, r.{column} FROM _population_rows p "
            "CROSS JOIN results r "
            "ON r.key = p.key AND r.git_rev = p.git_rev "
            f"WHERE r.{column} IS NOT NULL ORDER BY r.key")}

    def backfill_metrics(self) -> "BackfillReport":
        """One-shot metrics backfill for rows that predate the table.

        Every current-schema result row without metrics rows gets its
        payload unpickled once and its numeric leaves written — after
        which the query path above never touches a payload again.
        Idempotent; unreadable payloads are logged and skipped.  Every
        metric row is written in one transaction.
        """
        pending = self.connection().execute(
            "SELECT key, git_rev, entry FROM results r WHERE schema = ? "
            "AND NOT EXISTS (SELECT 1 FROM metrics m WHERE m.key = r.key "
            "AND m.git_rev = r.git_rev)",
            (CACHE_SCHEMA_VERSION,)).fetchall()
        report = BackfillReport()
        metric_rows: list[tuple] = []
        for key, git_rev, blob in pending:
            try:
                entry = pickle.loads(blob)
                rows = sorted(numeric_metrics(entry).items())
            except Exception:
                logger.warning("cache entry %s is unreadable; metrics not "
                               "backfilled", self.locate(key))
                report.skipped += 1
                continue
            if not rows:
                report.skipped += 1
                continue
            metric_rows.extend((key, git_rev, name, value)
                               for name, value in rows)
            report.backfilled += 1
        if metric_rows:
            with self._transaction() as conn:
                conn.executemany(
                    "INSERT OR REPLACE INTO metrics (key, git_rev, name, "
                    "value) VALUES (?, ?, ?, ?)", metric_rows)
        if report.backfilled:
            logger.info("backfilled metrics for %d result row(s) in %s "
                        "(%d skipped)", report.backfilled, self.db_path,
                        report.skipped)
        return report

    # -- garbage collection -----------------------------------------------------------
    def gc(self, keep_revs: int = 1, dry_run: bool = False,
           vacuum: bool = True) -> "GcReport":
        """Prune superseded rows: keep the newest ``keep_revs`` revisions
        per key, drop the rest (results and metrics alike).

        Long-lived fleet stores accumulate one row per ``(key, git_rev)``
        across commits; replays only ever read the newest, so older
        revisions are pure ledger history — bound it explicitly.  Every
        dropped ``(key, git_rev)`` pair is logged.  ``dry_run`` reports
        without deleting; ``vacuum`` returns the freed pages to the
        filesystem afterwards.
        """
        if keep_revs < 1:
            raise ValueError("keep_revs must be at least 1")
        conn = self.connection()
        by_key: dict[str, list[tuple]] = {}
        for key, rev, created_at, rowid in conn.execute(
                "SELECT key, git_rev, MAX(created_at), MAX(rowid) "
                "FROM results GROUP BY key, git_rev"):
            by_key.setdefault(key, []).append((created_at, rowid, rev))
        report = GcReport(keys=len(by_key), keep_revs=keep_revs,
                          dry_run=dry_run)
        doomed: list[tuple[str, str]] = []
        for key in sorted(by_key):
            revs = sorted(by_key[key], reverse=True)
            report.kept_rows += min(len(revs), keep_revs)
            for _, _, rev in revs[keep_revs:]:
                doomed.append((key, rev))
                logger.info(
                    "results gc: %s %s@%s (superseded; keeping the newest "
                    "%d revision(s))", "would drop" if dry_run else
                    "dropping", key[:12], rev[:12], keep_revs)
        report.dropped_rows = len(doomed)
        report.dropped_metrics = sum(
            conn.execute("SELECT COUNT(*) FROM metrics "
                         "WHERE key = ? AND git_rev = ?", pair).fetchone()[0]
            for pair in doomed)
        if doomed and not dry_run:
            with self._transaction():
                conn.executemany(
                    "DELETE FROM results WHERE key = ? AND git_rev = ?",
                    doomed)
                conn.executemany(
                    "DELETE FROM metrics WHERE key = ? AND git_rev = ?",
                    doomed)
            if vacuum:
                conn.execute("VACUUM")
                report.vacuumed = True
        if report.dropped_rows:
            logger.info(
                "results gc: %s %d superseded row(s) across %d key(s) in %s "
                "(%d kept)", "would drop" if dry_run else "dropped",
                report.dropped_rows, report.keys, self.db_path,
                report.kept_rows)
        return report

    # -- trained-agent artifacts --------------------------------------------------------
    # Content-addressed artefact payloads (trained agents, see
    # repro.agents.artifacts) ride in the same database as the results
    # they enable, provenance-stamped like result rows.  The hash is the
    # whole identity — the same spec always trains to bit-identical
    # bytes — so writes are INSERT OR IGNORE: the first writer wins and
    # every later writer is a no-op, which makes concurrent training
    # races (pool workers, fleet workers) harmless.

    def put_artifact_bytes(self, hash: str, payload: bytes, *, schema: int,
                           kind: str = "agent",
                           benchmark: Optional[str] = None,
                           spec: Optional[dict] = None,
                           runtime_s: Optional[float] = None) -> bool:
        """Store one artefact payload under its content hash (idempotent);
        returns whether a new row was written."""
        with self._transaction() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO artifacts (hash, schema, kind, "
                "benchmark, spec_json, git_rev, created_at, runtime_s, "
                "size_bytes, payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (hash, schema, kind, benchmark,
                 json.dumps(spec or {}, sort_keys=True, default=list),
                 current_git_rev(), time.time(), runtime_s, len(payload),
                 payload))
        return cursor.rowcount > 0

    def get_artifact_bytes(self, hash: str,
                           schema: Optional[int] = None) -> Optional[bytes]:
        """The stored payload for ``hash``, or None when absent or stale.

        With ``schema`` given, a row written under a different artefact
        schema version is rejected with a log line (mirroring the result
        rows' stale-entry contract) so consumers retrain instead of
        deserializing a stale layout.
        """
        row = self.connection().execute(
            "SELECT schema, payload FROM artifacts WHERE hash = ?",
            (hash,)).fetchone()
        if row is None:
            return None
        if schema is not None and row[0] != schema:
            logger.warning(
                "rejecting stale artifact %s: schema version %s != current "
                "%s; recomputing", self.locate(hash), row[0], schema)
            return None
        return row[1]

    def artifact_rows(self, benchmark: Optional[str] = None) -> list[dict]:
        """Provenance rows of stored artefacts, newest first (payloads
        stay in the database — ``get_artifact_bytes`` serves those)."""
        query = ("SELECT hash, schema, kind, benchmark, spec_json, git_rev, "
                 "created_at, runtime_s, size_bytes FROM artifacts")
        params: list = []
        if benchmark is not None:
            query += " WHERE benchmark = ?"
            params.append(benchmark)
        query += " ORDER BY created_at DESC, hash"
        return [{"hash": row[0], "schema": row[1], "kind": row[2],
                 "benchmark": row[3], "spec": json.loads(row[4]),
                 "git_rev": row[5], "created_at": row[6],
                 "runtime_s": row[7], "size_bytes": row[8]}
                for row in self.connection().execute(query, params)]

    def gc_artifacts(self, keep: int = 1, dry_run: bool = False,
                     vacuum: bool = True) -> "ArtifactGcReport":
        """Prune artefacts: keep the newest ``keep`` per (kind, benchmark).

        Trained-agent payloads are the largest rows a store carries;
        like :meth:`gc` this bounds growth explicitly, and every dropped
        hash is logged.
        """
        if keep < 1:
            raise ValueError("keep must be at least 1")
        conn = self.connection()
        groups: dict[tuple, list[tuple]] = {}
        for hash_, kind, benchmark, created_at, rowid in conn.execute(
                "SELECT hash, kind, benchmark, created_at, rowid "
                "FROM artifacts"):
            groups.setdefault((kind, benchmark or ""), []).append(
                (created_at, rowid, hash_))
        report = ArtifactGcReport(groups=len(groups), keep=keep,
                                  dry_run=dry_run)
        doomed: list[tuple[str]] = []
        for group in sorted(groups):
            rows = sorted(groups[group], reverse=True)
            report.kept += min(len(rows), keep)
            for _, _, hash_ in rows[keep:]:
                doomed.append((hash_,))
                logger.info(
                    "artifacts gc: %s %s (kind=%s benchmark=%s; keeping the "
                    "newest %d)", "would drop" if dry_run else "dropping",
                    hash_[:12], group[0], group[1] or "-", keep)
        report.dropped = len(doomed)
        if doomed and not dry_run:
            with self._transaction():
                conn.executemany("DELETE FROM artifacts WHERE hash = ?",
                                 doomed)
            if vacuum:
                conn.execute("VACUUM")
                report.vacuumed = True
        return report


@dataclass
class ArtifactGcReport:
    """What one :meth:`ResultStore.gc_artifacts` pass did (or would do)."""

    groups: int = 0           # distinct (kind, benchmark) groups examined
    keep: int = 1
    kept: int = 0
    dropped: int = 0
    dry_run: bool = False
    vacuumed: bool = False


@dataclass
class BackfillReport:
    """What one :meth:`ResultStore.backfill_metrics` pass did."""

    backfilled: int = 0
    skipped: int = 0      # unreadable payloads / no numeric leaves


@dataclass
class GcReport:
    """What one :meth:`ResultStore.gc` pass did (or would do)."""

    keys: int = 0             # distinct keys examined
    keep_revs: int = 1
    kept_rows: int = 0
    dropped_rows: int = 0     # superseded (key, git_rev) result rows
    dropped_metrics: int = 0  # metrics rows that went with them
    dry_run: bool = False
    vacuumed: bool = False


# -- query / diff tooling -------------------------------------------------------------
def flatten_metrics(value, prefix: str = "") -> dict:
    """Every leaf of a nested dict/list/dataclass structure, keyed by
    dotted path — the comparable surface of a result.  Numeric leaves
    stay floats (the diff applies its tolerance to them); any other
    leaf is kept as a string and compared for exact equality, so a
    changed label or status can never hide behind a tolerance."""
    metrics: dict = {}
    _flatten_into(metrics, value, prefix)
    return metrics


def _flatten_into(metrics: dict, value, prefix: str) -> None:
    """:func:`flatten_metrics`'s walk: every level writes its leaves into
    the one ``metrics`` dict, in depth-first order."""
    kind = type(value)
    if kind is float or kind is int or kind is bool:
        # Most leaves: no dataclass, container or subclass rule applies.
        metrics[prefix] = float(value)
        return
    fields = getattr(kind, "__dataclass_fields__", None)
    if fields is not None:
        value = {name: getattr(value, name) for name in fields}
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            _flatten_into(metrics, value[key],
                          f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten_into(metrics, item, f"{prefix}[{index}]")
    elif isinstance(value, (int, float)):
        metrics[prefix] = float(value)
    else:
        metrics[prefix] = str(value)


def entry_metrics(entry: dict) -> dict:
    """The flattened leaves of one entry's result payload."""
    result = entry.get("result")
    if hasattr(result, "as_dict"):
        result = result.as_dict()
    return flatten_metrics(result)


def numeric_metrics(entry: dict) -> dict[str, float]:
    """The finite numeric leaves of one entry's result payload — the rows
    the store's ``metrics`` table indexes.  Non-numeric leaves stay the
    diff tooling's business; non-finite values are dropped (SQLite would
    silently turn NaN into NULL)."""
    return {name: value for name, value in entry_metrics(entry).items()
            if isinstance(value, float) and math.isfinite(value)}


@dataclass(frozen=True)
class DiffDelta:
    """One metric that moved (or vanished) between two result sets.

    ``a`` / ``b`` are floats for numeric leaves, strings for any other
    leaf, and None on the side where the metric is missing entirely.
    """

    key: str
    metric: str
    a: object
    b: object

    @property
    def delta(self) -> Optional[float]:
        if isinstance(self.a, float) and isinstance(self.b, float):
            return self.b - self.a
        return None


@dataclass
class DiffReport:
    """Per-metric comparison of two result sets (see ``results diff``)."""

    matched: int = 0                 # keys present on both sides
    identical: int = 0               # matched keys with no delta
    deltas: list = field(default_factory=list)
    only_in_a: list = field(default_factory=list)
    only_in_b: list = field(default_factory=list)

    def empty(self) -> bool:
        """True when the sets agree: same keys, every metric in tolerance."""
        return not self.deltas and not self.only_in_a and not self.only_in_b

    def to_dict(self) -> dict:
        return {
            "matched": self.matched,
            "identical": self.identical,
            "empty": self.empty(),
            "deltas": [{"key": d.key, "metric": d.metric, "a": d.a,
                        "b": d.b, "delta": d.delta} for d in self.deltas],
            "only_in_a": list(self.only_in_a),
            "only_in_b": list(self.only_in_b),
        }


def _within_tolerance(a, b, tolerance: float) -> bool:
    if a == b:
        return True
    if not (isinstance(a, float) and isinstance(b, float)):
        return False        # non-numeric leaves: exact equality only
    return abs(a - b) <= tolerance * max(abs(a), abs(b), 1.0)


class ToleranceTable:
    """Per-metric relative tolerances for :func:`diff_result_sets`.

    The fast-forward accuracy envelope is not one number: horizon-
    normalized rates (FPS, utilization, power) land within a few percent
    of the exact run, while sparse counters (inputs tracked in a short
    window) carry much larger relative quantization.  A table maps metric
    name patterns to tolerances so each class gets its own bar and the
    envelope is a reviewable, committed artifact rather than one loose
    scalar that hides regressions in the tight metrics.

    Patterns support ``*`` wildcards only — matched with an escaped
    regex, **not** :mod:`fnmatch`, because flattened metric names contain
    literal brackets (``reports[0].client_fps``) that fnmatch would
    parse as character classes.  First matching pattern wins, in table
    order; metrics matching no pattern fall back to ``default``.
    """

    def __init__(self, patterns=(), default: float = 0.0):
        self.default = float(default)
        self.patterns: list[tuple[str, float]] = []
        self._compiled: list[tuple[re.Pattern, float]] = []
        for pattern, tolerance in patterns:
            self.add(pattern, tolerance)

    def add(self, pattern: str, tolerance: float) -> None:
        if tolerance < 0:
            raise ValueError(f"tolerance for {pattern!r} must be >= 0, "
                             f"got {tolerance!r}")
        regex = re.compile(
            "^" + ".*".join(re.escape(part) for part in pattern.split("*"))
            + "$")
        self.patterns.append((pattern, float(tolerance)))
        self._compiled.append((regex, float(tolerance)))

    def tolerance_for(self, metric: str) -> float:
        for regex, tolerance in self._compiled:
            if regex.match(metric):
                return tolerance
        return self.default

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ToleranceTable":
        """Build from a ``pattern -> tolerance`` mapping (e.g. a loaded
        JSON file).  The reserved key ``"default"`` sets the fallback,
        dunder keys (``"__comment__"``) are ignored; the remaining
        entries keep the mapping's order (first match wins, so put
        specific patterns before broad ones)."""
        table = cls(default=float(mapping.get("default", 0.0)))
        for pattern, tolerance in mapping.items():
            if pattern == "default" or pattern.startswith("__"):
                continue
            table.add(pattern, float(tolerance))
        return table

    @classmethod
    def load(cls, path: os.PathLike | str) -> "ToleranceTable":
        """Load a committed tolerance table (a flat JSON object)."""
        with open(path, "r", encoding="utf-8") as handle:
            mapping = json.load(handle)
        if not isinstance(mapping, dict):
            raise ValueError(f"tolerance table {path} must be a JSON "
                             "object of pattern -> tolerance")
        return cls.from_mapping(mapping)


def rekey_ignoring_fast_forward(entries: dict[str, dict]) -> dict[str, dict]:
    """Re-key a ``key → entry`` result set as if every scenario had the
    default (disabled) fast-forward configuration.

    Job keys deliberately include the fast-forward settings — a macro-
    model approximation must never *replay* as the exact result — so an
    exact run and its fast-forwarded twin normally occupy different keys
    and ``results diff`` would report them as unmatched.  Envelope
    checking wants exactly that comparison: this helper recomputes each
    entry's key from its stamped provenance with ``fast_forward``
    dropped from the scenario config, using the same canonical-JSON
    hash as :meth:`ExperimentJob.key`, so the twins collide and diff
    metric by metric.
    """
    rekeyed: dict[str, dict] = {}
    for entry in entries.values():
        scenario = copy.deepcopy(entry.get("scenario", {}))
        if isinstance(scenario.get("config"), dict):
            scenario["config"].pop("fast_forward", None)
        rekeyed[job_key(entry.get("kind"), entry.get("duration"),
                        scenario)] = entry
    return rekeyed


def diff_result_sets(a: dict[str, dict], b: dict[str, dict],
                     tolerance: float = 0.0,
                     tolerances: Optional[ToleranceTable] = None
                     ) -> DiffReport:
    """Compare two ``key → entry`` sets metric by metric.

    ``tolerance`` is relative (with an absolute floor of 1.0 in the
    denominator, so near-zero metrics compare sanely); the default 0.0
    demands bit-identical numbers — the right bar for two runs of a
    deterministic executor, and what CI asserts across revisions.
    ``tolerances`` supplies a per-metric :class:`ToleranceTable` instead
    (the fast-forward accuracy envelope); when given it supersedes the
    scalar for every metric.
    """
    report = DiffReport()
    report.only_in_a = sorted(set(a) - set(b))
    report.only_in_b = sorted(set(b) - set(a))
    for key in sorted(set(a) & set(b)):
        report.matched += 1
        metrics_a = entry_metrics(a[key])
        metrics_b = entry_metrics(b[key])
        clean = True
        for metric in sorted(set(metrics_a) | set(metrics_b)):
            value_a = metrics_a.get(metric)
            value_b = metrics_b.get(metric)
            allowed = (tolerances.tolerance_for(metric)
                       if tolerances is not None else tolerance)
            if value_a is None or value_b is None:
                report.deltas.append(DiffDelta(key, metric, value_a, value_b))
                clean = False
            elif not _within_tolerance(value_a, value_b, allowed):
                report.deltas.append(DiffDelta(key, metric, value_a, value_b))
                clean = False
        if clean:
            report.identical += 1
    return report
