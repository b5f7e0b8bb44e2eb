"""The socket transport's wire format: length-prefixed, checksummed frames.

Every message between a :class:`~repro.experiments.socket_queue.SocketQueue`
client and the :class:`~repro.experiments.server.QueueServer` is one
**frame** — a fixed 12-byte header followed by a JSON payload::

    offset  size  field
    0       2     magic     b"PQ"
    2       1     version   PROTOCOL_VERSION (bumped on incompatible change)
    3       1     type      a MessageType code
    4       4     length    payload byte count, big-endian unsigned
    8       4     crc32     zlib.crc32 of the payload bytes
    12      N     payload   compact JSON of a plain-data value

The checksum makes corruption *detectable* rather than silently
deserialized: a frame whose magic, version, declared length or CRC-32 is
wrong is **rejected with a log line** (grep for ``"rejecting corrupt
frame"``) and raises :class:`CorruptFrameError`; a stream that ends in
the middle of a frame is likewise logged (``"rejecting truncated
frame"``) and raises :class:`TruncatedFrameError`.  Neither error is
ever turned into a half-read message — the connection is the unit of
failure, and the queue's retry/requeue machinery (client backoff, worker
heartbeats, lease recovery) turns a dropped connection into a re-run,
never a lost or corrupted result.

Request/response types mirror the
:class:`~repro.experiments.socket_queue.SocketQueue` methods — SUBMIT /
CLAIM / COMPLETE / FAIL / HEARTBEAT / COUNTS / REQUEUE plus the
result-query messages — and every request is answered by exactly one OK
(payload: the reply) or ERROR (payload: the remote failure description)
frame.

A payload is plain data (a tuple comes back a list); binary fields —
job bytes, entry blobs, artifact payloads — ride as base64 text
(:func:`blob_to_text`), so decoding a frame never runs code.  Frames are
not authenticated, so only trusted peers may reach the server: ``serve``
binds to loopback unless told otherwise.
"""

from __future__ import annotations

import base64
import enum
import json
import logging
import socket
import struct
import zlib
from typing import BinaryIO, Optional, Union

__all__ = [
    "CorruptFrameError",
    "FrameError",
    "HEADER",
    "MAGIC",
    "MAX_PAYLOAD",
    "MessageType",
    "PROTOCOL_VERSION",
    "TruncatedFrameError",
    "blob_to_text",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
    "text_to_blob",
]

logger = logging.getLogger(__name__)

MAGIC = b"PQ"
PROTOCOL_VERSION = 2

#: magic, version, type, payload length, payload crc32 — big-endian.
HEADER = struct.Struct(">2sBBII")

#: Sanity cap on a frame's declared payload size.  Real payloads are a
#: batch of jobs (KBs each) or a result row (MBs at the most); a corrupt
#: length field must not make a reader allocate gigabytes before the CRC
#: check.
MAX_PAYLOAD = 256 * 1024 * 1024

#: Compact JSON; payloads are plain data built here, never self-referencing.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


class MessageType(enum.IntEnum):
    """One byte on the wire; requests mirror the SocketQueue methods."""

    SUBMIT = 1
    CLAIM = 2
    COMPLETE = 3
    FAIL = 4
    HEARTBEAT = 5
    COUNTS = 6
    REQUEUE = 7
    RESULT = 8
    FAILURE = 9
    INVALIDATE = 10
    ARTIFACT_GET = 11
    ARTIFACT_PUT = 12
    #: Response types: every request gets exactly one of these back.
    OK = 64
    ERROR = 65


class FrameError(ConnectionError):
    """A frame could not be decoded; the stream is no longer trustworthy."""


class CorruptFrameError(FrameError):
    """Bad magic, version, length or checksum (see the module docstring)."""


class TruncatedFrameError(FrameError):
    """The stream ended (or the buffer ran out) mid-frame."""


def encode_frame(kind: Union[MessageType, int], payload: object = None) -> bytes:
    """One wire-ready frame: header + ``payload`` as compact JSON."""
    body = _ENCODER.encode(payload).encode("ascii")
    if len(body) > MAX_PAYLOAD:
        raise ValueError(f"frame payload of {len(body)} bytes exceeds the {MAX_PAYLOAD}-byte cap")
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, int(kind), len(body), zlib.crc32(body))
    return header + body


def _reject_corrupt(reason: str) -> CorruptFrameError:
    # THE documented corruption log line — tests (and operators) grep
    # for it, so keep the prefix stable.
    logger.warning("rejecting corrupt frame: %s", reason)
    return CorruptFrameError(reason)


def decode_frame(buffer: Union[bytes, bytearray, memoryview]) -> tuple[MessageType, object, int]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(type, payload, bytes_consumed)``.  Raises
    :class:`TruncatedFrameError` when ``buffer`` holds less than one full
    frame (callers streaming from a socket read more and retry;
    :func:`read_frame` turns it into the documented rejection when the
    stream has actually ended) and :class:`CorruptFrameError` — after
    the documented log line — when the header or checksum is wrong.
    """
    view = memoryview(buffer)
    if len(view) < HEADER.size:
        raise TruncatedFrameError(f"need {HEADER.size} header bytes, have {len(view)}")
    magic, version, kind, length, crc = HEADER.unpack_from(view)
    if magic != MAGIC:
        raise _reject_corrupt(f"bad magic {bytes(magic)!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise _reject_corrupt(f"protocol version {version} (speaking {PROTOCOL_VERSION})")
    if length > MAX_PAYLOAD:
        raise _reject_corrupt(f"declared payload of {length} bytes exceeds the {MAX_PAYLOAD} cap")
    end = HEADER.size + length
    if len(view) < end:
        raise TruncatedFrameError(f"need {end} bytes for the payload, have {len(view)}")
    body = view[HEADER.size:end]
    if zlib.crc32(body) != crc:
        raise _reject_corrupt(f"payload checksum mismatch ({length}-byte payload, type {kind})")
    try:
        payload = json.loads(str(body, "utf-8"))
    except (ValueError, RecursionError) as error:
        raise _reject_corrupt(f"payload is not JSON ({error!r})")
    try:
        message_type = MessageType(kind)
    except ValueError:
        raise _reject_corrupt(f"unknown message type {kind}")
    return message_type, payload, end


def blob_to_text(blob: Optional[bytes]) -> Optional[str]:
    """A binary field's wire form: base64 text (None stays None)."""
    return None if blob is None else base64.b64encode(blob).decode("ascii")


def text_to_blob(text: Optional[str]) -> Optional[bytes]:
    """The bytes :func:`blob_to_text` encoded (None stays None)."""
    return None if text is None else base64.b64decode(text, validate=True)


def _reject_truncated(got: int, wanted: int) -> TruncatedFrameError:
    # THE documented truncation log line (see the module docstring).
    reason = f"stream ended after {got} of {wanted} frame bytes"
    logger.warning("rejecting truncated frame: %s", reason)
    return TruncatedFrameError(reason)


def read_frame(stream: BinaryIO) -> Optional[tuple[MessageType, object]]:
    """Read exactly one frame from a blocking binary stream.

    Returns ``(type, payload)``, or None on a clean end-of-stream (the
    peer closed between frames).  An end-of-stream *inside* a frame is a
    truncation: logged and raised, never silently swallowed.
    """
    return _read_frame(stream.read)


def recv_frame(sock: socket.socket) -> Optional[tuple[MessageType, object]]:
    """:func:`read_frame` over a connected socket (``recv`` semantics)."""
    return _read_frame(sock.recv)


def _read_frame(read) -> Optional[tuple[MessageType, object]]:
    """One frame from ``read(n)``, a blocking call returning at most ``n``
    bytes and ``b""`` at end-of-stream (see :func:`read_frame`)."""
    header = _read_exact(read, HEADER.size, allow_clean_eof=True)
    if header is None:
        return None
    length = HEADER.unpack(header)[3]
    if length > MAX_PAYLOAD:
        raise _reject_corrupt(f"declared payload of {length} bytes exceeds the {MAX_PAYLOAD} cap")
    body = _read_exact(read, length, prefix=header)
    kind, payload, _ = decode_frame(header + body)
    return kind, payload


def send_frame(sock: socket.socket, kind: Union[MessageType, int], payload: object = None) -> None:
    """Encode and send one frame over a connected socket."""
    sock.sendall(encode_frame(kind, payload))


def _read_exact(read, n: int, allow_clean_eof: bool = False, prefix: bytes = b""):
    """``n`` bytes from ``read()``, or a documented truncation error.

    ``prefix`` is what the current frame already consumed — only used to
    report *frame* progress accurately when the stream dies mid-payload.
    With ``allow_clean_eof``, end-of-stream before the first byte
    returns None (a peer closing between frames is not an error).
    """
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = read(n - got)
        if not chunk:
            if not chunks and not prefix and allow_clean_eof:
                return None
            raise _reject_truncated(len(prefix) + got, len(prefix) + n)
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
