"""The queue server: the socket transport's one owner of the queue.

``python -m repro.experiments serve --queue DIR --port N`` exposes a
:class:`~repro.experiments.queue.JobQueue` (and therefore its
provenance-stamped SQLite :class:`~repro.experiments.store.ResultStore`)
over TCP, speaking the framed protocol of
:mod:`repro.experiments.protocol`.  The queue's database is the server's
private storage: every submitter and worker goes through the server.
Every job, result and failure marker is a row of
``DIR/results/results.sqlite``; only the leases (who holds which job)
live in the server's memory, so

* semantics (idempotent content-addressed submit, submission order,
  lease recovery, provenance stamps) are the ``JobQueue``'s, and
* a server crash or restart loses nothing acknowledged — a new server
  adopts the database as found and offers every unfinished job again
  at once; a worker still executing one of them completes it into
  the same result row a second worker would write.

The server **moves bytes**: a SUBMIT carries each job's canonical JSON
and a CLAIM hands it back unread; a COMPLETE carries the result row its
worker built, inserted once its key is checked; a RESULT returns the
stored entry blob untouched.  Only the client decodes.

**One expiry rule.**  A claim stamps its lease, and each worker
heartbeat (:class:`MessageType.HEARTBEAT`, every couple of seconds)
restamps the leases it names — the claims the worker is actually
executing — so an in-flight job lives as long as its worker beats.  The
sweeper requeues every lease not stamped for ``heartbeat_timeout_s``: a
crashed or silent worker's jobs, and a claim a live worker never names
(one orphaned by a retried CLAIM), recover in seconds.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from dataclasses import asdict
from pathlib import Path

from repro.experiments.protocol import (
    FrameError,
    MessageType,
    blob_to_text,
    recv_frame,
    send_frame,
    text_to_blob,
)
from repro.experiments.queue import JobQueue

__all__ = ["QueueServer"]

logger = logging.getLogger(__name__)

#: A lease no claim or heartbeat stamped for this long is requeued.
DEFAULT_HEARTBEAT_TIMEOUT_S = 15.0

#: How often the sweeper checks for stale leases.
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

    ``start()`` runs the accept loop and the lease sweeper on
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
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        sweep_interval_s: float = DEFAULT_SWEEP_INTERVAL_S,
    ):
        self.queue = JobQueue(queue)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.sweep_interval_s = sweep_interval_s
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

        The queue database is left exactly as-is and the leases die
        with the server: the next server offers their jobs again at
        once — a restart degrades to a requeue.
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
        """One lease pass: requeue every lease no claim or heartbeat
        stamped for ``heartbeat_timeout_s``; returns their keys."""
        with self._lock:
            keys = self.queue.requeue_stale(self.heartbeat_timeout_s)
        if keys:
            logger.warning(
                "requeued %d claim(s) not heartbeaten for %.1fs", len(keys), self.heartbeat_timeout_s
            )
        return keys

    # -- request dispatch -------------------------------------------------------------
    def _dispatch(self, kind: MessageType, payload: dict) -> dict:
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise ValueError(f"unexpected request type {kind.name}")
        with self._lock:
            return handler(self, payload)

    def _op_submit(self, payload: dict) -> dict:
        return {"keys": self.queue.submit_many([text_to_blob(job) for job in payload["jobs"]])}

    def _op_claim(self, payload: dict) -> dict:
        claimed = self.queue.claim(payload["worker"])
        if claimed is None:
            return {"claimed": None}
        key, job = claimed
        return {"claimed": {"key": key, "job": blob_to_text(job)}}

    def _op_complete(self, payload: dict) -> dict:
        """Store the worker's result row and delete the job row in one
        commit (one sync)."""
        row = dict(payload["row"], entry=text_to_blob(payload["row"]["entry"]))
        self.queue.complete(payload["key"], row)
        return {}

    def _op_fail(self, payload: dict) -> dict:
        self.queue.fail(
            payload["key"],
            payload["worker"],
            payload.get("error", "unknown error"),
            payload.get("traceback", ""),
        )
        return {}

    def _op_heartbeat(self, payload: dict) -> dict:
        return {"refreshed": self.queue.heartbeat(payload["worker"], payload["keys"])}

    def _op_counts(self, payload: dict) -> dict:
        return {"counts": asdict(self.queue.counts())}

    def _op_requeue(self, payload: dict) -> dict:
        return {"keys": self.queue.requeue_worker(payload["worker"])}

    def _op_result(self, payload: dict) -> dict:
        return {"entry": blob_to_text(self.queue.results.entry_blob(payload["key"]))}

    def _op_failure(self, payload: dict) -> dict:
        return {"marker": self.queue.failure(payload["key"])}

    def _op_invalidate(self, payload: dict) -> dict:
        self.queue.results.invalidate(payload["key"])
        return {}

    def _op_artifact_get(self, payload: dict) -> dict:
        if payload.get("rows"):
            return {"rows": self.queue.results.artifact_rows(payload.get("benchmark"))}
        blob = self.queue.results.get_artifact_bytes(payload["hash"], schema=payload.get("schema"))
        return {"payload": blob_to_text(blob)}

    def _op_artifact_put(self, payload: dict) -> dict:
        blob = text_to_blob(payload.pop("payload"))
        stored = self.queue.results.put_artifact_bytes(payload.pop("hash"), blob, **payload)
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
