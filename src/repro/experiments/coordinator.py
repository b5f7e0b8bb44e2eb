"""The ``Coordinator``: the one owner of locally spawned queue workers.

Two callers run one.  ``python -m repro.experiments serve --queue DIR
--port N --min 0 --max 8`` runs an elastic fleet inside the server
process, and the socket backend of
:class:`~repro.experiments.executor.ExperimentSuite` runs a fixed one
(``min = max = workers``) for its spawned workers.  Every
``scale_once`` asks the queue for its depth and sizes the fleet to::

    target = clamp(pending + claimed, min_workers, max_workers)

— one worker per outstanding job, bounded.  Scaling **up** spawns
``python -m repro.experiments worker --addr HOST:PORT`` subprocesses
(heartbeating, so the server requeues their claims within seconds if
they die), each logging to ``<tmp>/pictor-workers/<worker_id>.log``.
A worker that exits cleanly or is killed by ``stop`` has its log
deleted; a crashed worker's log is kept, and the warning names it.
The first ``min_workers`` are **floor** workers: they have no idle
timeout and exit only on ``stop(kill=True)``.  Workers above the floor
are spawned with an idle timeout of a few scale intervals, so the
fleet shrinks by itself when they find the queue empty, and the
coordinator merely reaps them.  That keeps the shrink path race-free:
the coordinator never kills a worker that might hold a claim.

**The crash rule.**  A reaped worker that exited non-zero (crashed,
killed) gets its claims requeued at once via ``requeue_worker``: the
coordinator spawned it, so it knows the death for certain and need not
wait for the missed-heartbeat sweep.  The coordinator also counts such
crashes, and the count resets whenever the queue's completed count
rises.  Once ``max_workers`` workers have crashed with no job completed
in between, ``scale_once`` raises :class:`RuntimeError` naming the last
crashed worker's log, instead of respawning forever.  Raising resets the
count, so a caller that goes on scaling gets a fresh fleet.
"""

from __future__ import annotations

import logging
import subprocess
import threading
import time
from typing import Optional

from repro.experiments.socket_queue import SocketQueue
from repro.experiments.worker import spawn_worker, worker_log

__all__ = ["Coordinator"]

logger = logging.getLogger(__name__)


class Coordinator:
    """Spawn, reap and autoscale local worker subprocesses against queue depth."""

    def __init__(
        self,
        addr: str,
        *,
        min_workers: int = 0,
        max_workers: int = 4,
        scale_interval_s: float = 1.0,
        poll_s: float = 0.05,
        heartbeat_s: float = 2.0,
        queue: Optional[SocketQueue] = None,
        name: str = "coord",
    ):
        if min_workers < 0 or max_workers < min_workers:
            raise ValueError(
                f"need 0 <= min_workers <= max_workers, got {min_workers}..{max_workers}"
            )
        self.addr = addr
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.scale_interval_s = scale_interval_s
        self.poll_s = poll_s
        self.heartbeat_s = heartbeat_s
        #: Workers above the floor exit on their own after idling this
        #: long; the fleet shrinks itself without the coordinator ever
        #: killing a worker that might hold a claim.
        self.idle_timeout_s = max(4 * scale_interval_s, 2.0)
        self.queue = queue if queue is not None else SocketQueue(addr)
        self.name = name
        self._workers: dict[str, subprocess.Popen] = {}
        #: ``serve`` scales on a thread and stops from the main one: the
        #: lock keeps a scaling step from spawning into a stopped fleet.
        self._lock = threading.Lock()
        self._stopped = False
        self._spawned = 0
        #: Crashes since the completed count last rose, and the last one.
        self._crashes = 0
        self._last_crash = ""
        self._completed = 0
        #: Most workers ever alive at once (the soak test's acceptance
        #: criterion: the fleet really did scale out).
        self.peak_workers = 0

    # -- one scaling step -------------------------------------------------------------
    def scale_once(self) -> int:
        """Reap exits, apply the crash rule, spawn up to the target;
        returns the live count."""
        with self._lock:
            if self._stopped:
                return 0
            counts = self.queue.counts()
            if counts.completed > self._completed:
                self._completed = counts.completed
                self._crashes = 0
            self._reap()
            if self._crashes and self._crashes >= self.max_workers:
                crashes, self._crashes = self._crashes, 0  # fires once per run of crashes
                raise RuntimeError(
                    f"{crashes} spawned queue worker(s) crashed with no job completed; "
                    f"last: {self._last_crash}"
                )
            outstanding = counts.pending + counts.claimed
            target = max(self.min_workers, min(self.max_workers, outstanding))
            while len(self._workers) < target:
                worker_id = f"{self.name}-{self._spawned}"
                self._spawned += 1
                floor = len(self._workers) < self.min_workers
                self._workers[worker_id] = spawn_worker(
                    self.addr,
                    worker_id=worker_id,
                    poll_s=self.poll_s,
                    idle_timeout_s=None if floor else self.idle_timeout_s,
                    heartbeat_s=self.heartbeat_s,
                )
                logger.info(
                    "coordinator scaled up to %d/%d workers (%d outstanding)",
                    len(self._workers),
                    target,
                    outstanding,
                )
            self.peak_workers = max(self.peak_workers, len(self._workers))
            return len(self._workers)

    def _reap(self) -> None:
        for worker_id, process in list(self._workers.items()):
            code = process.poll()
            if code is None:
                continue
            del self._workers[worker_id]
            if code == 0:
                worker_log(worker_id).unlink(missing_ok=True)
            else:
                # A crash, not an idle exit: we *know* it died, so
                # requeue its claims now instead of waiting for the
                # missed-heartbeat sweep.
                self._crashes += 1
                self._last_crash = (
                    f"worker {worker_id} exited with code {code}; log: {worker_log(worker_id)}"
                )
                logger.warning("%s; requeueing its claims", self._last_crash)
                try:
                    self.queue.requeue_worker(worker_id)
                except Exception as error:
                    logger.warning(
                        "requeue for dead worker %s failed: %r",
                        worker_id,
                        error,
                    )

    # -- the loop ---------------------------------------------------------------------
    def run(
        self,
        *,
        until_drained: bool = False,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Scale every interval; with ``until_drained``, return once the
        queue is empty (no pending, no claimed) and the fleet has been
        reaped down to ``min_workers`` or fewer."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            self.scale_once()
            if until_drained:
                counts = self.queue.counts()
                if counts.pending == 0 and counts.claimed == 0:
                    self._reap()
                    return
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"queue not drained within {timeout_s}s: final counts {self.queue.counts()}"
                )
            time.sleep(self.scale_interval_s)

    def stop(self, *, kill: bool = False) -> None:
        """Reap everything; with ``kill``, terminate live workers too.

        Idle timeouts wind the workers above the floor down on their
        own, but floor workers exit only here, with ``kill`` — what the
        suite's ``close()`` and ``serve`` shutting down do.  A stopped
        coordinator's ``scale_once`` spawns nothing and returns 0.
        """
        with self._lock:
            self._stopped = True
        self._reap()
        if kill:
            for process in self._workers.values():
                process.terminate()
            for process in self._workers.values():
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
            for worker_id in self._workers:
                worker_log(worker_id).unlink(missing_ok=True)
            self._workers.clear()
        self.queue.close()
