"""The standalone queue worker.

A worker is deliberately dumb: it asks a queue server (through a
:class:`~repro.experiments.socket_queue.SocketQueue`) for the
highest-priority pending job, executes it with the same
:func:`~repro.experiments.jobs.execute_job` the in-process backends
use, sends the result's row back for the server to store in its
provenance-stamped SQLite :class:`~repro.experiments.store.ResultStore`,
and repeats.  All scheduling (claim order, crash recovery, leases)
lives with the server and the submitter.

Run one per core, on any machine that can reach the server::

    PYTHONPATH=src python -m repro.experiments worker --addr HOST:PORT

While executing a job the worker heartbeats the server, which restamps
the claim's lease, so an in-flight job lives as long as its worker
beats — and a worker that dies mid-job is noticed by its *silence*
within the server's heartbeat timeout.  The heartbeat names exactly the
keys the worker is executing, so a claim it never acknowledged
(orphaned by a retried CLAIM) still ages out.

:func:`run_worker` is the loop behind that entrypoint;
:func:`spawn_worker` starts one as a local subprocess, logging to
:func:`worker_log`.  Spawned workers are owned by a
:class:`~repro.experiments.coordinator.Coordinator` — the one behind
``serve --min/--max`` or the one ``ExperimentSuite``'s socket backend
runs for its own workers — which reaps them, requeues a crashed
worker's claims at once and stops respawning after repeated crashes.
The crash-recovery tests spawn and kill workers directly.
"""

from __future__ import annotations

import logging
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

from repro.experiments.jobs import execute_job
from repro.experiments.socket_queue import SocketQueue

__all__ = ["default_worker_id", "run_worker", "spawn_worker", "worker_log"]

logger = logging.getLogger(__name__)

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]")


def default_worker_id() -> str:
    """A host-unique worker identity: ``<hostname>-<pid>``."""
    return _SAFE_ID.sub("_", f"{socket.gethostname()}-{os.getpid()}")


class _HeartbeatPump:
    """A daemon thread beating ``queue.heartbeat(worker, keys)``.

    ``keys`` is always the exact set of claims the worker is executing
    right now — usually one; with none, no beat is sent.  Heartbeat
    failures are logged and swallowed; liveness is advisory, and the
    worker's real calls carry their own retry loop.
    """

    def __init__(self, queue: SocketQueue, worker_id: str, interval_s: float):
        self._queue = queue
        self._worker = worker_id
        self._interval_s = interval_s
        self._keys: list[str] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"heartbeat-{worker_id}")

    def start(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval_s + 1.0)

    def set_keys(self, keys: list[str]) -> None:
        with self._lock:
            self._keys = list(keys)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            with self._lock:
                keys = list(self._keys)
            if not keys:
                continue
            try:
                self._queue.heartbeat(self._worker, keys=keys)
            except Exception as error:
                logger.warning("heartbeat failed (will retry): %r", error)


def run_worker(queue: SocketQueue, *, worker_id: Optional[str] = None,
               poll_s: float = 0.2, max_jobs: Optional[int] = None,
               idle_timeout_s: Optional[float] = None,
               heartbeat_s: Optional[float] = None) -> int:
    """Pull and execute jobs from ``queue``; returns how many completed.

    Runs until ``max_jobs`` jobs have completed or the queue has stayed
    empty for ``idle_timeout_s`` seconds (forever when both are None —
    a coordinator's floor worker, which it terminates on ``stop``).  A
    job that raises is recorded as a failure marker and the worker moves
    on; the submitter decides what a failure means.

    With ``heartbeat_s`` the worker pings the queue that often, naming
    the claim it is currently executing (see the module docstring).
    """
    worker = worker_id or default_worker_id()
    pump = (_HeartbeatPump(queue, worker, heartbeat_s).start()
            if heartbeat_s else None)
    # The server's artefact store becomes this process's ambient one for
    # the life of the loop, so jobs that consume trained agents resolve
    # them from (and publish them to) the fleet-shared database instead
    # of retraining per worker.
    from repro.agents.artifacts import set_artifact_store
    previous_store = set_artifact_store(queue.artifact_store())
    executed = 0
    idle_since = time.monotonic()
    try:
        while max_jobs is None or executed < max_jobs:
            claimed = queue.claim(worker)
            if claimed is None:
                if idle_timeout_s is not None \
                        and time.monotonic() - idle_since >= idle_timeout_s:
                    break
                time.sleep(poll_s)
                continue
            if pump is not None:
                pump.set_keys([claimed.key])
            try:
                started = time.perf_counter()
                result = execute_job(claimed.job)
                runtime_s = time.perf_counter() - started
            except Exception as error:
                queue.fail(claimed, error)
            else:
                queue.complete(claimed, result, runtime_s=runtime_s)
                executed += 1
            finally:
                if pump is not None:
                    pump.set_keys([])
            idle_since = time.monotonic()
    finally:
        if pump is not None:
            pump.stop()
        set_artifact_store(previous_store)
    return executed


def worker_log(worker_id: str, log_dir: os.PathLike | str | None = None) -> Path:
    """Where :func:`spawn_worker` sends ``worker_id``'s output:
    ``<log_dir>/<worker_id>.log``, by default in a ``pictor-workers``
    temp directory."""
    if log_dir is None:
        log_dir = Path(tempfile.gettempdir()) / "pictor-workers"
    return Path(log_dir) / f"{worker_id}.log"


def spawn_worker(addr: str, *, worker_id: str, poll_s: float = 0.05,
                 idle_timeout_s: Optional[float] = None,
                 heartbeat_s: Optional[float] = None,
                 log_dir: os.PathLike | str | None = None
                 ) -> subprocess.Popen:
    """Start ``python -m repro.experiments worker --addr ADDR`` as a
    subprocess.

    The child inherits the current environment with this checkout's
    ``src`` prepended to ``PYTHONPATH`` (tests and suites don't export
    it), and its output goes to :func:`worker_log`, truncated first.  Without
    ``heartbeat_s`` it beats at the CLI default.
    """
    import repro

    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_root) + (os.pathsep + existing
                                         if existing else "")
    command = [sys.executable, "-m", "repro.experiments", "worker",
               "--addr", str(addr), "--worker-id", worker_id,
               "--poll", str(poll_s)]
    if idle_timeout_s is not None:
        command += ["--idle-timeout", str(idle_timeout_s)]
    if heartbeat_s is not None:
        command += ["--heartbeat", str(heartbeat_s)]
    log_path = worker_log(worker_id, log_dir)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with log_path.open("wb") as log:
        return subprocess.Popen(command, env=env, stdout=log, stderr=log)
