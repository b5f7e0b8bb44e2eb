"""``SocketQueue``: the TCP transport behind ``backend="socket"``.

The one queue client: every method is one request frame to a
:class:`~repro.experiments.server.QueueServer` (see
:mod:`repro.experiments.protocol` for the wire format).  The server keeps
its queue in the tables of a private
:class:`~repro.experiments.queue.JobQueue`, so the semantics —
idempotent content-addressed submit, submission order, lease recovery,
provenance-stamped results — are that storage's, and submitters and
workers need nothing but a route to the server.

The client is where formats are known: it sends each job's canonical
JSON, decodes claimed jobs (one that does not decode becomes a failure
marker), builds the result row the server stores
(:func:`~repro.experiments.store.result_row`), and loads stored entries
through the same checks as ``ResultStore.get_entry``.

**Failure model.**  Every call retries with exponential backoff over a
fresh connection: a dropped connection, a restarted server, or a server
that has not bound its port yet all look the same — transient — and a
call only raises :class:`QueueConnectionError` once the retry budget is
exhausted.  Retrying is safe for every request type:

* SUBMIT, COMPLETE, FAIL, HEARTBEAT, REQUEUE and the queries are
  idempotent (re-submitting a key is a no-op; re-storing a result writes
  the byte-identical row).
* CLAIM is the one non-idempotent request: if the server applied a claim
  but the response was lost, the retry claims a *different* job and the
  first claim is orphaned.  Orphans are never refreshed — heartbeats
  name only the keys the worker is actually executing — so the sweeper
  requeues them within the heartbeat timeout.  Delivery stays
  at-least-once, and at-least-once is safe because job execution is
  deterministic.

A server-side failure (the server answered, with an ERROR frame) raises
:class:`QueueRemoteError` and is **not** retried — the request arrived
fine; repeating it would repeat the failure.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.jobs import ExperimentJob
from repro.experiments.protocol import (
    FrameError,
    MessageType,
    blob_to_text,
    recv_frame,
    send_frame,
    text_to_blob,
)
from repro.experiments.queue import QueueCounts
from repro.experiments.store import _load_entry, build_entry, result_row

__all__ = [
    "ClaimedJob",
    "QueueConnectionError",
    "QueueRemoteError",
    "SocketQueue",
    "parse_addr",
]

logger = logging.getLogger(__name__)

#: Jobs per SUBMIT frame; bounds frame size for very large suites.
_SUBMIT_CHUNK = 500


@dataclass(frozen=True)
class ClaimedJob:
    """One job a worker holds exclusively until completed/failed/requeued."""

    key: str
    job: ExperimentJob
    worker_id: str


class QueueConnectionError(ConnectionError):
    """The server stayed unreachable through the whole retry budget."""


class QueueRemoteError(RuntimeError):
    """The server received the request and reported a failure."""


def parse_addr(addr: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (the ``--addr`` CLI format)."""
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"queue address {addr!r} is not of the form host:port")
    return host, int(port)


class SocketQueue:
    """A queue client speaking the framed protocol over TCP.

    One persistent connection, re-established transparently inside the
    retry loop; a lock serializes requests so a worker's heartbeat
    thread can share the instance with its main loop.
    """

    def __init__(
        self,
        addr: str,
        *,
        timeout_s: float = 30.0,
        retries: int = 8,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
    ):
        self.addr = addr
        self.host, self.port = parse_addr(addr)
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._lock = threading.RLock()
        self._sock: Optional[socket.socket] = None

    # -- connection management --------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._disconnect()

    def __enter__(self) -> "SocketQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the request loop -------------------------------------------------------------
    def _request(self, kind: MessageType, payload: dict) -> dict:
        """One request/response exchange, retried over fresh connections.

        Raises :class:`QueueRemoteError` on a server-reported failure
        (not retried) and :class:`QueueConnectionError` once transport
        errors exhaust the retry budget.
        """
        with self._lock:
            delay = self.backoff_s
            last_error: Optional[Exception] = None
            for attempt in range(self.retries + 1):
                if attempt:
                    time.sleep(delay)
                    delay = min(delay * 2, self.backoff_max_s)
                try:
                    sock = self._connect()
                    send_frame(sock, kind, payload)
                    reply = recv_frame(sock)
                except (OSError, FrameError) as error:
                    last_error = error
                    self._disconnect()
                    logger.debug(
                        "queue request %s attempt %d/%d failed: %r",
                        kind.name,
                        attempt + 1,
                        self.retries + 1,
                        error,
                    )
                    continue
                if reply is None:  # server closed between frames
                    last_error = ConnectionError("server closed the connection")
                    self._disconnect()
                    continue
                reply_kind, reply_payload = reply
                if reply_kind is MessageType.ERROR:
                    raise QueueRemoteError(
                        (reply_payload or {}).get("error", "unknown server error")
                    )
                return reply_payload or {}
            raise QueueConnectionError(
                f"queue server {self.addr} unreachable after "
                f"{self.retries + 1} attempts ({last_error!r})"
            )

    # -- submitter side ---------------------------------------------------------------
    def submit(self, job: ExperimentJob) -> str:
        return self.submit_many([job])[0]

    def submit_many(self, jobs: Sequence[ExperimentJob]) -> list[str]:
        keys: list[str] = []
        blobs = [blob_to_text(job.to_bytes()) for job in jobs]
        for start in range(0, len(blobs), _SUBMIT_CHUNK):
            chunk = blobs[start : start + _SUBMIT_CHUNK]
            keys.extend(self._request(MessageType.SUBMIT, {"jobs": chunk})["keys"])
        return keys

    def result_blob(self, key: str) -> Optional[bytes]:
        """The newest stored entry blob for ``key``, as the server holds it."""
        return text_to_blob(self._request(MessageType.RESULT, {"key": key})["entry"])

    def result_entry(self, key: str) -> Optional[dict]:
        """The newest stored entry for ``key``, loaded and checked, or None
        (after a log line when the stored entry is unusable)."""
        blob = self.result_blob(key)
        return None if blob is None else _load_entry(blob, f"{self.addr}#{key}")

    def failure(self, key: str) -> Optional[dict]:
        return self._request(MessageType.FAILURE, {"key": key})["marker"]

    def invalidate(self, key: str) -> None:
        self._request(MessageType.INVALIDATE, {"key": key})

    def requeue_worker(self, worker_id: str) -> list[str]:
        return self._request(MessageType.REQUEUE, {"worker": worker_id})["keys"]

    def counts(self) -> QueueCounts:
        return QueueCounts(**self._request(MessageType.COUNTS, {})["counts"])

    # -- worker side ------------------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[ClaimedJob]:
        """Claim the next pending job for ``worker_id``, or None when none
        is.

        A claimed job whose bytes do not decode is recorded as a failure
        marker, and the next one is claimed.
        """
        while True:
            claimed = self._request(MessageType.CLAIM, {"worker": worker_id})["claimed"]
            if claimed is None:
                return None
            try:
                job = ExperimentJob.from_bytes(text_to_blob(claimed["job"]))
            except Exception as error:
                self._fail(claimed["key"], worker_id, error)
                continue
            return ClaimedJob(key=claimed["key"], job=job, worker_id=worker_id)

    def heartbeat(self, worker_id: str, keys: Sequence[str]) -> list[str]:
        """Restamp the leases ``worker_id`` holds among ``keys``."""
        payload = {"worker": worker_id, "keys": list(keys)}
        return self._request(MessageType.HEARTBEAT, payload)["refreshed"]

    def complete(self, claimed: ClaimedJob, result, runtime_s: Optional[float] = None) -> None:
        """Send the result row of ``claimed``'s job for the server to store."""
        row = result_row(build_entry(claimed.job, result, runtime_s=runtime_s))
        row["entry"] = blob_to_text(row["entry"])
        self._request(MessageType.COMPLETE, {"key": claimed.key, "row": row})

    def fail(self, claimed: ClaimedJob, error: BaseException) -> None:
        self._fail(claimed.key, claimed.worker_id, error)

    def _fail(self, key: str, worker_id: str, error: BaseException) -> None:
        self._request(
            MessageType.FAIL,
            {
                "key": key,
                "worker": worker_id,
                "error": repr(error),
                "traceback": "".join(traceback.format_exception(error)),
            },
        )

    # -- artifact transfer ------------------------------------------------------------
    def artifact_store(self) -> "_SocketArtifactStore":
        """A store adapter serving trained-agent artefacts from the
        server's result database over the wire."""
        return _SocketArtifactStore(self)


class _SocketArtifactStore:
    """Artifact get/put against the queue server's result database.

    Speaks the ARTIFACT_GET / ARTIFACT_PUT frames.  A server that fails
    one (an ERROR frame, :class:`QueueRemoteError`) or stays unreachable
    through the whole retry budget (:class:`QueueConnectionError`)
    disables the adapter with one log line: gets miss and puts drop, so
    workers fall back to deterministic on-demand training instead of
    failing the fleet — artifact transfer is an optimization, never a
    correctness dependency.
    """

    def __init__(self, queue: SocketQueue):
        self._queue = queue
        self._disabled = False

    def _call(self, kind: MessageType, request: dict, field: str, fallback):
        """The reply's ``field``, or ``fallback`` once disabled."""
        if self._disabled:
            return fallback
        try:
            return self._queue._request(kind, request)[field]
        except (QueueConnectionError, QueueRemoteError) as error:
            logger.warning(
                "queue server %s cannot serve agent artifacts (%s); "
                "falling back to on-demand training",
                self._queue.addr,
                error,
            )
            self._disabled = True
            return fallback

    def get_artifact_bytes(self, hash: str, schema: Optional[int] = None) -> Optional[bytes]:
        request = {"hash": hash, "schema": schema}
        return text_to_blob(self._call(MessageType.ARTIFACT_GET, request, "payload", None))

    def put_artifact_bytes(
        self,
        hash: str,
        payload: bytes,
        *,
        schema: int,
        kind: str = "agent",
        benchmark: Optional[str] = None,
        spec: Optional[dict] = None,
        runtime_s: Optional[float] = None,
    ) -> bool:
        request = {
            "hash": hash,
            "payload": blob_to_text(payload),
            "schema": schema,
            "kind": kind,
            "benchmark": benchmark,
            "spec": spec,
            "runtime_s": runtime_s,
        }
        return self._call(MessageType.ARTIFACT_PUT, request, "stored", False)

    def artifact_rows(self, benchmark: Optional[str] = None) -> list[dict]:
        """Explicit-hash resolution support (``agent#<hash>`` placements
        on socket workers)."""
        request = {"benchmark": benchmark, "rows": True}
        return self._call(MessageType.ARTIFACT_GET, request, "rows", [])
