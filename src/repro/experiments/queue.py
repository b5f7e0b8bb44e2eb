"""A content-addressed work queue: the queue server's private storage.

The queue holds :class:`~repro.experiments.jobs.ExperimentJob` values
(frozen, picklable, content-hashed) between their submission and their
completion.  :class:`DirectoryQueue` is a plain directory owned by one
:class:`~repro.experiments.server.QueueServer`; submitters and workers
anywhere reach it through that server with
:class:`~repro.experiments.socket_queue.SocketQueue`, and inherit every
semantic below.

The directory layout::

    <queue>/
      pending/   00000003-<key>.job            submitted, unclaimed
      claimed/   00000003-<key>.job@<worker>   claimed by one worker
      results/   results.sqlite                provenance-stamped ResultStore
      failed/    <key>.json                    error + traceback markers

* **Submission** writes the pickled job atomically (temp file +
  ``os.replace``) under a monotonically increasing priority prefix, so
  the lexicographic order of ``pending/`` *is* the submission order.
  Submitting a key that is already pending, claimed, or completed is a
  no-op (idempotent); a key that is enqueued again drops any failure
  marker an earlier attempt left behind.
* **Claiming** (:meth:`claim_file`) is one ``os.rename`` from
  ``pending/`` into ``claimed/`` — atomic on POSIX, so exactly one
  claimant wins; a loser sees ``FileNotFoundError`` and moves to the
  next file.
* **Completion** is the server writing the result through the SQLite
  :class:`~repro.experiments.store.ResultStore` (the same
  provenance-stamped rows the in-process backends write) and
  :meth:`release_claim` removing the claim file.
* **Crash recovery**: a dead worker leaves its claim file behind.
  :meth:`requeue_stale` renames claims older than a lease back into
  ``pending/`` (a successful claim refreshes its mtime, starting the
  lease); :meth:`requeue_worker` requeues a specific worker's claims
  immediately when the server *knows* it died (missed heartbeats, or a
  spawner that saw the process exit).  Delivery is therefore **at least
  once** — a worker that merely stalled past its lease may complete a
  job a second worker re-ran — which is safe because
  :func:`execute_job` is deterministic: both completions write
  byte-identical cache entries.
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
from repro.experiments.store import ResultStore, atomic_write_bytes

__all__ = ["ClaimedJob", "DirectoryQueue", "QueueCounts",
           "default_worker_id"]

#: Zero-padded width of the submission-priority filename prefix.
_PRIORITY_WIDTH = 8

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


class DirectoryQueue:
    """The queue directory a :class:`QueueServer` serves (see the module
    docstring for the layout)."""

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        self.pending_dir = self.root / "pending"
        self.claimed_dir = self.root / "claimed"
        self.failed_dir = self.root / "failed"
        for directory in (self.pending_dir, self.claimed_dir,
                          self.failed_dir):
            directory.mkdir(parents=True, exist_ok=True)
        #: Completed results: the SQLite result database, in the same
        #: provenance-stamped rows the in-process backends write.  Its
        #: full sync per commit makes every result the server
        #: acknowledges durable.
        self.results = ResultStore(self.root / "results")
        self._sequence = self._next_sequence()
        # Lease aging state for requeue_stale(): claim-file name ->
        # (st_mtime_ns, base) where ``base`` is the _mono() instant the
        # claim was last known fresh.  Ages are measured on the
        # monotonic clock so a wall-clock jump (NTP step, DST, manual
        # reset) can neither expire a healthy lease nor immortalize a
        # dead one; the wall clock is consulted only once per claim, on
        # first sighting, to credit age accrued before this sweeper
        # started watching.  Patchable clocks for tests.
        self._wall = time.time
        self._mono = time.monotonic
        self._lease_marks: dict[str, tuple[int, float]] = {}

    # -- filename helpers -------------------------------------------------------------
    @staticmethod
    def _key_of(name: str) -> str:
        stem = name.split("@", 1)[0]             # drop any @worker suffix
        stem = stem.split("-", 1)[1]             # drop the priority prefix
        return stem[: -len(".job")]

    def _next_sequence(self) -> int:
        highest = -1
        for directory in (self.pending_dir, self.claimed_dir):
            for path in directory.iterdir():
                prefix = path.name.split("-", 1)[0]
                if prefix.isdigit():
                    highest = max(highest, int(prefix))
        return highest + 1

    def _queued_keys(self) -> set[str]:
        keys = set()
        for directory in (self.pending_dir, self.claimed_dir):
            for path in directory.iterdir():
                if ".job" in path.name:
                    keys.add(self._key_of(path.name))
        return keys

    # -- submitter side ---------------------------------------------------------------
    def submit(self, job: ExperimentJob) -> str:
        return self._submit(job, self._queued_keys())

    def submit_many(self, jobs: Sequence[ExperimentJob]) -> list[str]:
        """Batch :meth:`submit`: one duplicate scan for the whole batch."""
        queued = self._queued_keys()
        return [self._submit(job, queued) for job in jobs]

    def _submit(self, job: ExperimentJob, queued: set[str]) -> str:
        key = job.key()
        if key in queued or self.result_entry(key) is not None:
            return key
        queued.add(key)
        # A marker from an earlier attempt would fail this fresh one at
        # once: the submitter polls for failures as well as results.
        (self.failed_dir / f"{key}.json").unlink(missing_ok=True)
        name = f"{self._sequence:0{_PRIORITY_WIDTH}d}-{key}.job"
        self._sequence += 1
        atomic_write_bytes(self.root, self.pending_dir / name,
                           pickle.dumps(job,
                                        protocol=pickle.HIGHEST_PROTOCOL))
        return key

    def result_entry(self, key: str) -> Optional[dict]:
        return self.results.get_entry(key)

    def invalidate(self, key: str) -> None:
        self.results.invalidate(key)

    def failure(self, key: str) -> Optional[dict]:
        path = self.failed_dir / f"{key}.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {"key": key, "error": "unreadable failure marker"}

    def requeue_stale(self, lease_s: float) -> list[str]:
        wall_now = self._wall()
        mono_now = self._mono()
        marks = self._lease_marks
        seen: set[str] = set()
        requeued = []
        for path in sorted(self.claimed_dir.iterdir()):
            name = path.name
            if "@" not in name:
                continue
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue                         # completed under our feet
            seen.add(name)
            mark = marks.get(name)
            if mark is None or stat.st_mtime_ns < mark[0]:
                # First sighting (or the claim file was replaced since):
                # trust the wall clock once for age accrued before we
                # started watching, clamping future stamps to zero age.
                base = mono_now - max(wall_now - stat.st_mtime, 0.0)
            elif stat.st_mtime_ns > mark[0]:
                base = mono_now                  # witnessed a heartbeat
            else:
                base = mark[1]                   # unchanged: keep aging
            marks[name] = (stat.st_mtime_ns, base)
            if mono_now - base >= lease_s:
                if self._requeue(path):
                    requeued.append(self._key_of(name))
                    marks.pop(name, None)
        # Forget claims that vanished (completed or requeued elsewhere);
        # a recycled name must re-enter through the first-sighting path.
        for name in list(marks):
            if name not in seen:
                del marks[name]
        return requeued

    def requeue_worker(self, worker_id: str) -> list[str]:
        suffix = f"@{_SAFE_ID.sub('_', worker_id)}"
        requeued = []
        for path in sorted(self.claimed_dir.iterdir()):
            if path.name.endswith(suffix) and self._requeue(path):
                requeued.append(self._key_of(path.name))
        return requeued

    def _requeue(self, claimed_path: Path) -> bool:
        pending_name = claimed_path.name.split("@", 1)[0]
        try:
            os.rename(claimed_path, self.pending_dir / pending_name)
        except FileNotFoundError:
            return False                         # raced with completion
        return True

    def counts(self) -> QueueCounts:
        return QueueCounts(
            pending=sum(1 for p in self.pending_dir.iterdir()
                        if p.name.endswith(".job")),
            claimed=sum(1 for p in self.claimed_dir.iterdir()
                        if "@" in p.name),
            completed=len(self.results),
            failed=sum(1 for p in self.failed_dir.iterdir()
                       if p.name.endswith(".json")),
        )

    def pending_files(self) -> list[tuple[str, Path]]:
        """``(key, path)`` of every pending job, in priority order.

        The paths feed :meth:`claim_file` — the queue server scans once
        and claims by file instead of re-scanning per claim.
        """
        return [(self._key_of(path.name), path)
                for path in sorted(self.pending_dir.iterdir())
                if path.name.endswith(".job")]

    def pending_keys(self) -> list[str]:
        """Every pending job key, in priority (i.e. submission) order."""
        return [key for key, _ in self.pending_files()]

    def claimed_workers(self) -> set[str]:
        """The worker ids currently holding claims (from the filenames).

        A restarted coordinator (the queue server) adopts these into its
        liveness registry: a worker that never heartbeats again has its
        claims requeued after the heartbeat timeout instead of the full
        lease.
        """
        return {path.name.split("@", 1)[1]
                for path in self.claimed_dir.iterdir() if "@" in path.name}

    # -- claims -----------------------------------------------------------------------
    def heartbeat(self, worker_id: str,
                  keys: Optional[Sequence[str]] = None) -> list[str]:
        """Refresh the lease clock (claim-file mtime) of a worker's claims.

        With ``keys``, only the listed claims are refreshed — a claim
        the worker does not acknowledge working on (e.g. one orphaned by
        a retried CLAIM whose first response was lost) keeps aging and
        is recovered by the ordinary lease expiry.
        """
        worker = _SAFE_ID.sub("_", worker_id) if worker_id \
            else default_worker_id()
        suffix = f"@{worker}"
        wanted = None if keys is None else set(keys)
        refreshed = []
        for path in self.claimed_dir.iterdir():
            if not path.name.endswith(suffix):
                continue
            key = self._key_of(path.name)
            if wanted is not None and key not in wanted:
                continue
            try:
                os.utime(path)
            except FileNotFoundError:
                continue                         # completed under our feet
            refreshed.append(key)
        return refreshed

    def release_claim(self, key: str, worker_id: str) -> bool:
        """Drop the claim ``worker_id`` holds on ``key`` (idempotent).

        The server-side half of a remote completion: the result has been
        stored, so the claim file — if a requeue has not already taken
        it — is simply removed.
        """
        worker = _SAFE_ID.sub("_", worker_id) if worker_id \
            else default_worker_id()
        suffix = f"@{worker}"
        for path in self.claimed_dir.iterdir():
            if path.name.endswith(suffix) and self._key_of(path.name) == key:
                path.unlink(missing_ok=True)
                return True
        return False

    def record_failure(self, key: str, worker_id: str, error_repr: str,
                       traceback_text: str = "") -> None:
        """Write a failure marker from already-formatted error text (the
        form a failure crosses the wire in)."""
        marker = {
            "key": key,
            "worker": worker_id,
            "error": error_repr,
            "traceback": traceback_text,
        }
        atomic_write_bytes(self.root, self.failed_dir / f"{key}.json",
                           json.dumps(marker, indent=2).encode("utf-8"))

    def claim_file(self, path: Path,
                   worker_id: Optional[str] = None) -> Optional[ClaimedJob]:
        """Atomically claim one specific pending file, or None.

        None means the file is gone (another claimant won the rename
        race) or unreadable (a failure marker was recorded and the file
        dropped) — either way the caller just moves to its next
        candidate.
        """
        worker = _SAFE_ID.sub("_", worker_id) if worker_id \
            else default_worker_id()
        target = self.claimed_dir / f"{path.name}@{worker}"
        try:
            # The lease clock is the claim file's mtime, and rename
            # preserves mtime — so refresh it *before* the rename.
            # Refreshing after would leave a window where a job that
            # sat pending longer than the lease looks instantly
            # stale and requeue_stale snatches the claim back.
            os.utime(path)
            os.rename(path, target)
        except FileNotFoundError:
            return None                          # another worker won the race
        key = self._key_of(path.name)
        try:
            with target.open("rb") as handle:
                job = pickle.load(handle)
        except Exception as error:
            self.record_failure(key, worker, repr(error),
                                "".join(traceback.format_exception(error)))
            target.unlink(missing_ok=True)
            return None
        return ClaimedJob(key=key, job=job, worker_id=worker)
