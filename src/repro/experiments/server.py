"""The queue server: the socket transport's stateless-by-design front end.

``python -m repro.experiments serve --queue DIR --port N`` exposes a
:class:`~repro.experiments.queue.JobQueue` (and therefore its
provenance-stamped SQLite :class:`~repro.experiments.store.ResultStore`)
over TCP, speaking the framed protocol of
:mod:`repro.experiments.protocol`.  The queue's database is the server's
private storage: every submitter and worker goes through the server.
The server keeps **no durable state outside it** — every job, claim,
result and failure marker is a row of ``DIR/results/results.sqlite`` —
so

* semantics (idempotent content-addressed submit, submission order,
  lease recovery, provenance stamps) are the ``JobQueue``'s, and
* a server crash or restart loses nothing — a new server adopts the
  database as found, re-registers the workers named in the claimed
  rows, and carries on.

**Worker liveness** is layered on top.  Workers heartbeat
(:class:`MessageType.HEARTBEAT`) every couple of seconds, naming the
claims they are actually executing.  A heartbeat refreshes those
claims' leases, so an in-flight job outlives any fixed lease while its
worker is alive; a worker that misses heartbeats for
``heartbeat_timeout_s`` has **all** its claims requeued immediately —
crashed-worker recovery in seconds instead of a full lease.  A claim a
live worker does not name in its heartbeats (one orphaned by a retried
CLAIM) still ages out via ``requeue_stale(lease_s)``.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Optional

from repro.experiments.protocol import (
    FrameError,
    MessageType,
    recv_frame,
    send_frame,
)
from repro.experiments.queue import JobQueue
from repro.experiments.store import build_entry

__all__ = ["QueueServer"]

logger = logging.getLogger(__name__)

#: A worker silent for this long has its claims requeued immediately.
DEFAULT_HEARTBEAT_TIMEOUT_S = 15.0

#: How often the sweeper checks heartbeats and stale leases.
DEFAULT_SWEEP_INTERVAL_S = 1.0


class _Handler(socketserver.BaseRequestHandler):
    """One connection: a loop of request frames, each answered OK/ERROR."""

    def handle(self) -> None:
        server: QueueServer = self.server.queue_server
        server._track_connection(self.request)
        try:
            while True:
                try:
                    frame = recv_frame(self.request)
                except FrameError:
                    # Already logged with the documented line; the
                    # stream cannot be trusted past a bad frame.
                    break
                except OSError:
                    break
                if frame is None:  # clean close between frames
                    break
                kind, payload = frame
                try:
                    reply = server._dispatch(kind, payload or {})
                except Exception as error:  # surfaced to the client
                    logger.exception("queue server: %s request failed", kind.name)
                    reply_kind, reply = MessageType.ERROR, {"error": repr(error)}
                else:
                    reply_kind = MessageType.OK
                try:
                    send_frame(self.request, reply_kind, reply)
                except OSError:
                    break
        finally:
            server._untrack_connection(self.request)


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True  # restarts rebind immediately
    daemon_threads = True
    queue_server: "QueueServer"


class QueueServer:
    """Serve a :class:`JobQueue` over the framed TCP protocol.

    ``start()`` runs the accept loop and the heartbeat/lease sweeper on
    daemon threads and returns; ``serve_forever()`` blocks (the CLI).
    ``address`` is the bound ``host:port`` — with ``port=0`` the OS
    picks a free port, so tests and suite-owned servers never collide.
    """

    def __init__(
        self,
        queue: Path | str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_s: float = 300.0,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        sweep_interval_s: float = DEFAULT_SWEEP_INTERVAL_S,
    ):
        self.queue = JobQueue(queue)
        self.lease_s = lease_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.sweep_interval_s = sweep_interval_s
        #: worker id -> monotonic time of the last claim/heartbeat/
        #: complete/fail.  Seeded from the claimed rows on disk so a
        #: restarted server inherits responsibility for claims handed
        #: out by its predecessor.
        self._workers: dict[str, float] = {
            worker: time.monotonic() for worker in self.queue.claimed_workers()
        }
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._connections: set = set()
        self._threads: list[threading.Thread] = []
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.queue_server = self
        self.host, self.port = self._tcp.server_address[:2]

    # -- lifecycle --------------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "QueueServer":
        """Run the accept loop and the sweeper in background threads."""
        for name, target in (("accept", self._tcp.serve_forever), ("sweep", self._sweep_loop)):
            thread = threading.Thread(
                target=target, daemon=True, name=f"queue-server-{name}-{self.port}"
            )
            thread.start()
            self._threads.append(thread)
        logger.info("queue server listening on %s (queue: %s)", self.address, self.queue.root)
        return self

    def serve_forever(self) -> None:
        """Block serving requests (the ``serve`` CLI entry point)."""
        self.start()
        try:
            self._stop.wait()
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop accepting, sever live connections, stop the sweeper.

        The queue database is left exactly as-is: outstanding claims
        are recovered by the next server (adopted via the claimed rows)
        or by plain lease expiry — a restart degrades to a requeue.
        """
        self._stop.set()
        self._tcp.shutdown()
        self._tcp.server_close()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def __enter__(self) -> "QueueServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _track_connection(self, connection) -> None:
        with self._lock:
            self._connections.add(connection)

    def _untrack_connection(self, connection) -> None:
        with self._lock:
            self._connections.discard(connection)

    # -- the sweeper ------------------------------------------------------------------
    def _sweep_loop(self) -> None:
        while not self._stop.wait(self.sweep_interval_s):
            try:
                self.sweep()
            except Exception:
                logger.exception("queue server sweep failed")

    def sweep(self) -> list[str]:
        """One liveness/lease pass; returns every requeued key.

        Claims of workers that missed their heartbeats requeue
        immediately; any other claim falls back to lease expiry.
        """
        requeued: list[str] = []
        now = time.monotonic()
        with self._lock:
            for worker, last_seen in list(self._workers.items()):
                if now - last_seen < self.heartbeat_timeout_s:
                    continue
                del self._workers[worker]
                keys = self.queue.requeue_worker(worker)
                if keys:
                    logger.warning(
                        "worker %s missed heartbeats for %.1fs; requeued %d claimed job(s)",
                        worker,
                        now - last_seen,
                        len(keys),
                    )
                requeued.extend(keys)
            requeued.extend(self.queue.requeue_stale(self.lease_s))
        return requeued

    # -- request dispatch -------------------------------------------------------------
    def _dispatch(self, kind: MessageType, payload: dict) -> dict:
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise ValueError(f"unexpected request type {kind.name}")
        with self._lock:
            return handler(self, payload)

    def _mark_alive(self, worker: Optional[str]) -> None:
        if worker:
            self._workers[worker] = time.monotonic()

    def _op_submit(self, payload: dict) -> dict:
        jobs = payload.get("jobs")
        if jobs is None:
            jobs = [payload["job"]]
        return {"keys": self.queue.submit_many(jobs)}

    def _op_claim(self, payload: dict) -> dict:
        worker = payload.get("worker")
        self._mark_alive(worker)
        claimed = self.queue.claim(worker)
        if claimed is None:
            return {"claimed": None}
        return {"claimed": {"key": claimed.key, "job": claimed.job, "worker": claimed.worker_id}}

    def _op_complete(self, payload: dict) -> dict:
        """Store the result and drop the claim in one commit (one sync)."""
        worker = payload.get("worker")
        self._mark_alive(worker)
        entry = build_entry(payload["job"], payload["result"], runtime_s=payload.get("runtime_s"))
        self.queue.complete(payload["key"], worker, entry)
        return {}

    def _op_fail(self, payload: dict) -> dict:
        worker = payload.get("worker")
        self._mark_alive(worker)
        self.queue.record_failure(
            payload["key"],
            worker,
            payload.get("error", "unknown error"),
            payload.get("traceback", ""),
        )
        self.queue.release_claim(payload["key"], worker)
        return {}

    def _op_heartbeat(self, payload: dict) -> dict:
        worker = payload.get("worker")
        self._mark_alive(worker)
        refreshed = self.queue.heartbeat(worker, keys=payload.get("keys"))
        return {"refreshed": refreshed}

    def _op_counts(self, payload: dict) -> dict:
        counts = self.queue.counts()
        return {"counts": counts, "workers": len(self._workers)}

    def _op_requeue(self, payload: dict) -> dict:
        if payload.get("worker") is not None:
            keys = self.queue.requeue_worker(payload["worker"])
            self._workers.pop(payload["worker"], None)
        else:
            keys = self.queue.requeue_stale(payload.get("lease_s", self.lease_s))
        return {"keys": keys}

    def _op_result(self, payload: dict) -> dict:
        return {"entry": self.queue.result_entry(payload["key"])}

    def _op_failure(self, payload: dict) -> dict:
        return {"marker": self.queue.failure(payload["key"])}

    def _op_invalidate(self, payload: dict) -> dict:
        self.queue.invalidate(payload["key"])
        return {}

    def _op_artifact_get(self, payload: dict) -> dict:
        if payload.get("rows"):
            return {"rows": self.queue.results.artifact_rows(payload.get("benchmark"))}
        return {
            "payload": self.queue.results.get_artifact_bytes(
                payload["hash"], schema=payload.get("schema")
            )
        }

    def _op_artifact_put(self, payload: dict) -> dict:
        stored = self.queue.results.put_artifact_bytes(
            payload["hash"],
            payload["payload"],
            schema=payload["schema"],
            kind=payload.get("kind", "agent"),
            benchmark=payload.get("benchmark"),
            spec=payload.get("spec"),
            runtime_s=payload.get("runtime_s"),
        )
        return {"stored": stored}

    _HANDLERS = {
        MessageType.SUBMIT: _op_submit,
        MessageType.CLAIM: _op_claim,
        MessageType.COMPLETE: _op_complete,
        MessageType.FAIL: _op_fail,
        MessageType.HEARTBEAT: _op_heartbeat,
        MessageType.COUNTS: _op_counts,
        MessageType.REQUEUE: _op_requeue,
        MessageType.RESULT: _op_result,
        MessageType.FAILURE: _op_failure,
        MessageType.INVALIDATE: _op_invalidate,
        MessageType.ARTIFACT_GET: _op_artifact_get,
        MessageType.ARTIFACT_PUT: _op_artifact_put,
    }
