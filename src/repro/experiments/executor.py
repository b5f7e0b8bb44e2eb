"""Experiment execution: interchangeable serial / parallel / socket backends.

:class:`ExperimentSuite` takes a list of :class:`ExperimentJob` values
and returns their results in the same order.  Three layers cooperate:

* **deduplication** — identical jobs in one submission execute once
  (several figures slice the same testbed runs);
* **caching** — with a ``cache_dir``, results are stored in the SQLite
  result database (:class:`~repro.experiments.store.ResultStore`, at
  ``<cache_dir>/results.sqlite``) keyed by the job's content hash, so
  re-running a figure (or another figure sharing its runs) replays
  instantly and bit-identically — and the accumulated rows are
  queryable/diffable with ``python -m repro.experiments results``;
* **execution backend** — ``serial`` runs jobs in-process; ``parallel``
  fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`;
  ``socket`` submits them to a
  :class:`~repro.experiments.server.QueueServer` over TCP
  (:class:`~repro.experiments.socket_queue.SocketQueue`) — an external
  server named by ``queue_addr``, or one the suite starts in-process —
  drained by heartbeating workers anywhere the server is reachable:
  spawned locally by the suite's
  :class:`~repro.experiments.coordinator.Coordinator` (a fixed fleet of
  ``workers`` processes, kept alive between waves and killed on
  ``close()``), or started by hand with ``python -m repro.experiments
  worker --addr HOST:PORT``.

Whatever the backend, jobs are handed over in the caller's order, in
two waves: ``train`` jobs first (later jobs consume their artefacts),
then the rest.  Because :func:`repro.experiments.jobs.execute_job` is
deterministic, the choice of backend (or a store replay) never changes
a result — only how fast it arrives.
"""

from __future__ import annotations

import atexit
import logging
import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.coordinator import Coordinator
from repro.experiments.jobs import ExperimentJob, execute_job
from repro.experiments.socket_queue import SocketQueue
from repro.experiments.store import (ResultStore, _check_scenario_hash,
                                     _load_entry)

__all__ = ["BACKENDS", "ExperimentSuite", "SuiteStats", "default_suite",
           "run_jobs"]

logger = logging.getLogger(__name__)

#: The execution backends a suite can run jobs on.
BACKENDS = ("serial", "parallel", "socket")


@dataclass
class SuiteStats:
    """What happened during :meth:`ExperimentSuite.run` calls."""

    submitted: int = 0
    executed: int = 0
    deduplicated: int = 0
    cache_hits: int = 0


def _timed_execute(job: ExperimentJob) -> tuple:
    """(result, wall seconds) for ``job`` — module-level for pool pickling."""
    started = time.perf_counter()
    result = execute_job(job)
    return result, time.perf_counter() - started


def _pool_initializer(cache_dir) -> None:
    """Bind the suite's result store as each pool worker's ambient
    artifact store (module-level so spawn-based pools can pickle it).

    Jobs that consume trained-agent artefacts then resolve them from the
    shared database instead of retraining per worker process; without a
    cache the resolution path falls back to deterministic on-demand
    training, so results are identical either way.
    """
    if cache_dir is not None:
        from repro.agents.artifacts import set_artifact_store
        set_artifact_store(ResultStore(cache_dir))


def _split_waves(pending: list[ExperimentJob]) -> list[list[ExperimentJob]]:
    """Dependency waves for one batch: ``train`` jobs, then the rest.

    Training jobs publish the content-addressed artefacts the
    measurement jobs in the same submission consume, so draining them
    first makes every dependent job a warm store hit on every backend
    (serial, pool, socket).  Nothing is wrong if a
    measurement job runs cold — artefact resolution trains on demand,
    deterministically — the wave split just prevents that duplicated
    work.
    """
    train = [job for job in pending if job.kind == "train"]
    rest = [job for job in pending if job.kind != "train"]
    return [wave for wave in (train, rest) if wave]


@dataclass
class ExperimentSuite:
    """Runs experiment jobs through a pluggable execution backend.

    ``backend`` is normally inferred — ``socket`` when a ``queue_addr``
    is given, ``parallel`` when ``workers > 1``, else ``serial`` — but
    can be pinned explicitly (the CLI's ``--backend``).

    On the socket backend ``workers`` is the number of local worker
    processes the suite spawns against the queue server, through a
    :class:`~repro.experiments.coordinator.Coordinator` with
    ``min_workers = max_workers = workers``: they stay up between
    waves, a crashed one has its claims requeued and is replaced, and
    ``workers`` crashes with no job completed raise.  A crashed
    worker's log, under ``<tmp>/pictor-workers/``, outlives the suite;
    the others are deleted.  With
    ``spawn_workers=False`` the suite only submits and waits, leaving
    execution to externally started workers (``python -m
    repro.experiments worker --addr HOST:PORT``, on this or any other
    machine that can reach the server).  With ``queue_addr`` the suite is
    a client of an external ``python -m repro.experiments serve``
    process; without one it starts its own
    :class:`~repro.experiments.server.QueueServer` in-process over a
    suite-owned temp directory — handy for tests and for accepting extra
    external ``--addr`` workers into an otherwise local run.
    """

    workers: int = 1
    cache_dir: Optional[os.PathLike | str] = None
    backend: Optional[str] = None
    #: ``host:port`` of an external queue server (implies ``socket``).
    queue_addr: Optional[str] = None
    spawn_workers: bool = True
    #: How long the socket backend waits for results before raising.
    timeout_s: Optional[float] = None
    stats: SuiteStats = field(default_factory=SuiteStats)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.backend is None:
            self.backend = ("socket" if self.queue_addr is not None
                            else "parallel" if self.workers > 1 else "serial")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"known: {BACKENDS}")
        if self.queue_addr is not None and self.backend != "socket":
            raise ValueError("queue_addr only applies to the socket "
                             f"backend, not {self.backend!r}")
        # The canonical result path of every backend: the SQLite result store.
        self._cache = ResultStore(self.cache_dir) if self.cache_dir else None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._queue: Optional[SocketQueue] = None
        self._server = None                      # suite-owned QueueServer
        self._fleet: Optional[Coordinator] = None  # the spawned workers
        # Results live for the suite's lifetime, so figures sharing runs
        # (10-13 share a sweep, 8-9 the characterization runs) execute
        # them once per suite even without an on-disk cache.  Callers
        # treat results as read-only; determinism makes sharing safe.
        self._memo: dict[ExperimentJob, object] = {}

    @property
    def store(self) -> Optional[ResultStore]:
        """The suite's result store (``None`` when uncached) — the seam
        fleet analytics reports through after a drain."""
        return self._cache

    # -- lifecycle --------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._fleet is not None:
            self._fleet.stop(kill=True)
            self._fleet = None
        if self._queue is not None:
            self._queue.close()
        self._queue = None
        if self._server is not None:
            self._server.stop()
            shutil.rmtree(self._server.queue.root, ignore_errors=True)
            self._server = None

    def __enter__(self) -> "ExperimentSuite":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution --------------------------------------------------------------------
    def run(self, jobs: Sequence[ExperimentJob]) -> list:
        """Execute ``jobs`` and return their results, aligned with ``jobs``.

        Duplicate jobs execute once; cached jobs are replayed from disk;
        the rest run on the backend.  The result for a given job is
        bit-identical regardless of which path produced it.
        """
        jobs = list(jobs)
        self.stats.submitted += len(jobs)

        unique: dict[ExperimentJob, object] = {}
        for job in jobs:
            if job in unique:
                self.stats.deduplicated += 1
            else:
                unique[job] = None

        pending: list[ExperimentJob] = []
        for job in unique:
            cached = self._memo.get(job)
            if cached is None and self._cache is not None:
                cached = self._cache.get(job)
            if cached is not None:
                unique[job] = cached
                self._memo[job] = cached
                self.stats.cache_hits += 1
            else:
                pending.append(job)

        if pending:
            self.stats.executed += len(pending)
            # The suite's store doubles as the process-ambient artifact
            # store while its jobs run, so in-process execution (serial
            # backend, and the fused accuracy/inference paths) trains
            # each agent artefact at most once per database.
            bound = self._cache is not None
            if bound:
                from repro.agents.artifacts import set_artifact_store
                previous_store = set_artifact_store(self._cache)
            try:
                for wave in _split_waves(pending):
                    for job, (result, runtime_s) in zip(wave,
                                                        self._map(wave)):
                        unique[job] = result
                        self._memo[job] = result
                        if self._cache is not None:
                            self._cache.put(job, result, runtime_s=runtime_s)
            finally:
                if bound:
                    set_artifact_store(previous_store)

        return [unique[job] for job in jobs]

    def _map(self, jobs: list[ExperimentJob]) -> list[tuple]:
        """(result, runtime_s) per job, aligned with ``jobs`` and handed
        to the backend in that order."""
        if self.backend == "socket":
            gathered = self._run_queued(jobs)
            return [gathered[job] for job in jobs]
        if self.backend == "parallel" and self.workers > 1 and len(jobs) > 1:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_initializer,
                    initargs=(self.cache_dir,))
            futures = [self._pool.submit(_timed_execute, job) for job in jobs]
            return [future.result() for future in futures]
        return [_timed_execute(job) for job in jobs]

    # -- the socket backend -----------------------------------------------------------
    def _ensure_queue(self) -> SocketQueue:
        if self._queue is None:
            addr = self.queue_addr
            if addr is None:
                # No external server: run one in-process over a
                # suite-owned temp directory.  The suite's workers — and
                # any external --addr worker — connect over TCP exactly
                # as they would to a standalone `serve` process.
                from repro.experiments.server import QueueServer
                self._server = QueueServer(
                    Path(tempfile.mkdtemp(prefix="pictor-queue-"))).start()
                addr = self._server.address
            self._queue = SocketQueue(addr)
            if self.spawn_workers:
                # External workers (``spawn_workers=False`` or other
                # machines) are invisible here; the server's sweep
                # requeues their claims once their heartbeats stop.
                self._fleet = Coordinator(
                    addr, min_workers=self.workers, max_workers=self.workers,
                    queue=self._queue, name=f"suite-{os.getpid()}")
        return self._queue

    def _run_queued(self, jobs: list[ExperimentJob]) -> dict:
        queue = self._ensure_queue()
        outstanding = dict(zip(queue.submit_many(jobs), jobs))
        if self._fleet is not None:
            self._fleet.scale_once()

        gathered: dict[ExperimentJob, tuple] = {}
        deadline = (None if self.timeout_s is None
                    else time.monotonic() + self.timeout_s)
        last_warning = time.monotonic()
        # Scaling costs a COUNTS round trip, so it runs at the fleet's
        # own interval, not on every poll of the results.
        next_scale = time.monotonic()
        while outstanding:
            progressed = False
            for key in list(outstanding):
                blob = queue.result_blob(key)
                if blob is not None:
                    job = outstanding[key]
                    location = f"{queue.addr}#{key}"
                    entry = _load_entry(blob, location)
                    if entry is None \
                            or not _check_scenario_hash(entry, job, location):
                        # As in ResultStore.get: a row this suite cannot
                        # use (unreadable, stale, tampered) is logged,
                        # dropped and re-executed.
                        queue.invalidate(key)
                        queue.submit(job)
                        continue
                    gathered[outstanding.pop(key)] = (
                        entry.get("result"), entry.get("runtime_s"))
                    progressed = True
                    continue
                failure = queue.failure(key)
                if failure is not None:
                    raise RuntimeError(
                        f"queued job {key[:12]} failed on worker "
                        f"{failure.get('worker', '?')}: "
                        f"{failure.get('error', '?')}\n"
                        f"{failure.get('traceback', '')}")
            if not outstanding:
                break
            if self._fleet is not None and time.monotonic() >= next_scale:
                self._fleet.scale_once()
                next_scale = time.monotonic() + self._fleet.scale_interval_s
            if not progressed:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"socket backend timed out after "
                        f"{self.timeout_s:g}s with {len(outstanding)} job(s) "
                        f"outstanding in {queue.addr}")
                if self._fleet is None \
                        and time.monotonic() - last_warning > 30.0:
                    # No spawned workers to watch (spawn_workers=False):
                    # an external fleet may simply not be up yet, but
                    # don't hang silently.
                    last_warning = time.monotonic()
                    logger.warning(
                        "socket backend waiting on %d job(s) with no "
                        "spawned workers; start one with 'python -m "
                        "repro.experiments worker --addr %s'",
                        len(outstanding), queue.addr)
                time.sleep(0.05)
        return gathered


def run_jobs(jobs: Sequence[ExperimentJob],
             suite: Optional[ExperimentSuite] = None) -> list:
    """Run ``jobs`` on ``suite``, or on the environment-default suite."""
    return (suite or default_suite()).run(jobs)


_DEFAULT_SUITES: dict[tuple, ExperimentSuite] = {}


@atexit.register
def _close_default_suites() -> None:
    # Memoized suites have no owning `with` block, so their spawned
    # queue workers (and any suite-owned queue server and temp
    # directory) must be torn down at interpreter exit or they would
    # linger.
    for suite in _DEFAULT_SUITES.values():
        suite.close()


def default_suite() -> ExperimentSuite:
    """The process-wide suite the figure generators fall back to.

    Configured through the environment so existing entry points (tests,
    benchmark harnesses, examples) gain parallelism and caching without
    signature changes:

    * ``PICTOR_WORKERS`` — worker-process count (default 1 = serial);
    * ``PICTOR_CACHE_DIR`` — result cache directory (default: none);
    * ``PICTOR_BACKEND`` — pin a backend (default: inferred);
    * ``PICTOR_QUEUE_ADDR`` — queue server ``host:port`` (implies socket).

    Suites are memoized per configuration so a process pool (or a fleet
    of spawned queue workers) is reused across calls rather than
    respawned.
    """
    workers = max(1, int(os.environ.get("PICTOR_WORKERS", "1") or "1"))
    cache_dir = os.environ.get("PICTOR_CACHE_DIR") or None
    backend = os.environ.get("PICTOR_BACKEND") or None
    queue_addr = os.environ.get("PICTOR_QUEUE_ADDR") or None
    key = (workers, cache_dir, backend, queue_addr)
    suite = _DEFAULT_SUITES.get(key)
    if suite is None:
        suite = ExperimentSuite(workers=workers, cache_dir=cache_dir,
                                backend=backend, queue_addr=queue_addr)
        _DEFAULT_SUITES[key] = suite
    return suite
