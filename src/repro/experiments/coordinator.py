"""The ``Coordinator``: an elastic local worker fleet for a queue server.

``python -m repro.experiments serve --queue DIR --port N --min 0 --max 8``
runs one inside the server process; tests and soaks drive the class
directly.  Every ``scale_interval_s`` the coordinator asks the queue for
its depth and sizes the fleet to::

    target = clamp(pending + claimed, min_workers, max_workers)

— one worker per outstanding job, bounded.  Scaling **up** spawns
``python -m repro.experiments worker --addr HOST:PORT`` subprocesses
(heartbeating, so the server requeues their claims within seconds if
they die).  Scaling **down** is left to the workers themselves: each is
spawned with an idle timeout of a few scale intervals, so workers that
find the queue empty exit on their own and the coordinator merely reaps
them.  That keeps the shrink path race-free — the coordinator never
kills a worker that might hold a claim.

A reaped worker that exited *without* being idle (crashed, killed) gets
its claims requeued immediately via ``requeue_worker`` — the
coordinator spawned it, so it knows the death for certain and need not
wait for the missed-heartbeat sweep.
"""

from __future__ import annotations

import logging
import subprocess
import time
from typing import Optional

from repro.experiments.socket_queue import SocketQueue
from repro.experiments.worker import spawn_worker

__all__ = ["Coordinator"]

logger = logging.getLogger(__name__)


class Coordinator:
    """Autoscale local worker subprocesses against queue depth."""

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
        #: Idle workers exit on their own after this long; the fleet
        #: shrinks itself without the coordinator ever killing a worker
        #: that might hold a claim.
        self.idle_timeout_s = max(4 * scale_interval_s, 2.0)
        self.queue = queue if queue is not None else SocketQueue(addr)
        self.name = name
        self._workers: dict[str, subprocess.Popen] = {}
        self._spawned = 0
        #: Most workers ever alive at once (the soak test's acceptance
        #: criterion: the fleet really did scale out).
        self.peak_workers = 0

    # -- one scaling step -------------------------------------------------------------
    def scale_once(self) -> int:
        """Reap exits, spawn up to the target; returns the live count."""
        self._reap()
        counts = self.queue.counts()
        outstanding = counts.pending + counts.claimed
        target = max(self.min_workers, min(self.max_workers, outstanding))
        while len(self._workers) < target:
            worker_id = f"{self.name}-{self._spawned}"
            self._spawned += 1
            self._workers[worker_id] = spawn_worker(
                self.addr,
                worker_id=worker_id,
                poll_s=self.poll_s,
                idle_timeout_s=self.idle_timeout_s,
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
            if code != 0:
                # A crash, not an idle exit: we *know* it died, so
                # requeue its claims now instead of waiting for the
                # missed-heartbeat sweep.
                logger.warning(
                    "worker %s exited with code %d; requeueing its claims",
                    worker_id,
                    code,
                )
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

        Idle timeouts normally wind the fleet down on their own —
        ``kill`` is for tests and for ``serve`` shutting down.
        """
        self._reap()
        if kill:
            for process in self._workers.values():
                process.terminate()
            for process in self._workers.values():
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    process.kill()
            self._workers.clear()
        self.queue.close()
