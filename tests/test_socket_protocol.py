"""The socket transport's frame codec: round-trips, truncation, corruption.

The property under test is the module docstring's contract for
:mod:`repro.experiments.protocol`: any plain-data payload survives an
encode/decode round-trip exactly; anything less than a whole,
checksum-clean JSON frame of the spoken version — a pickle included — is
*rejected* — with the documented ``"rejecting corrupt frame"`` /
``"rejecting truncated frame"`` log lines — never half-decoded.
"""

from __future__ import annotations

import io
import json
import logging
import pickle
import socket
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    CorruptFrameError,
    MessageType,
    TruncatedFrameError,
    blob_to_text,
    decode_frame,
    encode_frame,
    read_frame,
    recv_frame,
    text_to_blob,
)

# Arbitrary plain-data payloads: scalars nested arbitrarily in
# lists/dicts — the shapes real request/response payloads take.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),        # NaN != NaN breaks equality checks
    st.text(),
    st.binary().map(blob_to_text),     # a binary field's wire form
)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)
_kinds = st.sampled_from(list(MessageType))


@given(kind=_kinds, payload=_payloads)
@settings(max_examples=200, deadline=None)
def test_roundtrip_restores_any_payload_exactly(kind, payload):
    frame = encode_frame(kind, payload)
    decoded_kind, decoded, consumed = decode_frame(frame)
    assert decoded_kind is kind
    assert decoded == payload
    assert consumed == len(frame)


@given(blob=st.binary())
@settings(max_examples=100, deadline=None)
def test_binary_fields_roundtrip_as_base64_text(blob):
    text = blob_to_text(blob)
    assert text_to_blob(text) == blob
    _, decoded, _ = decode_frame(encode_frame(MessageType.OK, {"entry": text}))
    assert text_to_blob(decoded["entry"]) == blob
    assert blob_to_text(None) is None and text_to_blob(None) is None


@given(kind=_kinds, payload=_payloads, trailing=st.binary(min_size=1))
@settings(max_examples=50, deadline=None)
def test_decode_consumes_exactly_one_frame(kind, payload, trailing):
    frame = encode_frame(kind, payload)
    _, decoded, consumed = decode_frame(frame + trailing)
    assert decoded == payload
    assert consumed == len(frame)      # trailing bytes are the next frame's


@given(kind=_kinds, payload=_payloads, data=st.data())
@settings(max_examples=100, deadline=None)
def test_any_truncated_frame_is_rejected(kind, payload, data):
    frame = encode_frame(kind, payload)
    cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
    with pytest.raises(TruncatedFrameError):
        decode_frame(frame[:cut])


@given(kind=_kinds, payload=_payloads, data=st.data())
@settings(max_examples=100, deadline=None)
def test_any_corrupted_payload_byte_is_rejected(kind, payload, data):
    """Flip one payload byte: the CRC-32 catches it, every time."""
    frame = bytearray(encode_frame(kind, payload))
    position = data.draw(st.integers(min_value=HEADER.size,
                                     max_value=len(frame) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    frame[position] ^= flip
    with pytest.raises(CorruptFrameError):
        decode_frame(bytes(frame))


def test_corrupt_frame_rejection_is_logged(caplog):
    frame = bytearray(encode_frame(MessageType.OK, {"keys": ["abc"]}))
    frame[-1] ^= 0xFF
    with caplog.at_level(logging.WARNING, logger="repro.experiments.protocol"):
        with pytest.raises(CorruptFrameError):
            decode_frame(bytes(frame))
    assert any("rejecting corrupt frame" in record.message
               for record in caplog.records)


def test_bad_magic_version_and_type_are_rejected(caplog):
    good = encode_frame(MessageType.COUNTS, None)
    body = good[HEADER.size:]

    def header(magic=MAGIC, version=PROTOCOL_VERSION,
               kind=int(MessageType.COUNTS), length=len(body),
               crc=zlib.crc32(body)):
        return HEADER.pack(magic, version, kind, length, crc)

    with caplog.at_level(logging.WARNING, logger="repro.experiments.protocol"):
        with pytest.raises(CorruptFrameError, match="magic"):
            decode_frame(header(magic=b"XX") + body)
        with pytest.raises(CorruptFrameError, match="version"):
            decode_frame(header(version=PROTOCOL_VERSION + 1) + body)
        with pytest.raises(CorruptFrameError, match="message type"):
            decode_frame(header(kind=250) + body)
        with pytest.raises(CorruptFrameError, match="cap"):
            decode_frame(header(length=MAX_PAYLOAD + 1) + body)
    rejections = [record for record in caplog.records
                  if "rejecting corrupt frame" in record.message]
    assert len(rejections) == 4


@pytest.mark.parametrize("body", [
    pickle.dumps({"worker": "w-1"}, protocol=pickle.HIGHEST_PROTOCOL),
    b"\x80\x04not really a pickle",
    b"{\"truncated\": ",
], ids=["pickle", "garbage", "half-json"])
def test_non_json_payload_is_rejected_not_crashed(body, caplog):
    """A checksum-clean frame whose payload is not JSON — a pickle
    included — is rejected with the documented line, never loaded."""
    frame = HEADER.pack(MAGIC, PROTOCOL_VERSION, int(MessageType.OK),
                        len(body), zlib.crc32(body)) + body
    with caplog.at_level(logging.WARNING, logger="repro.experiments.protocol"):
        with pytest.raises(CorruptFrameError, match="not JSON"):
            decode_frame(frame)
    assert any("rejecting corrupt frame: payload is not JSON" in record.message
               for record in caplog.records)


def test_version_one_frame_is_rejected_with_the_documented_line(caplog):
    """A peer speaking the pickled protocol version 1 gets one clear
    rejection, before its payload is looked at."""
    assert PROTOCOL_VERSION == 2
    body = pickle.dumps({"worker": "w-1"}, protocol=pickle.HIGHEST_PROTOCOL)
    frame = HEADER.pack(MAGIC, 1, int(MessageType.CLAIM), len(body),
                        zlib.crc32(body)) + body
    with caplog.at_level(logging.WARNING, logger="repro.experiments.protocol"):
        with pytest.raises(CorruptFrameError):
            decode_frame(frame)
    assert [record.message for record in caplog.records] == [
        "rejecting corrupt frame: protocol version 1 (speaking 2)"]


def test_unencodable_payload_refuses_to_encode():
    """Only plain data crosses the wire: bytes must be base64 text first."""
    with pytest.raises(TypeError):
        encode_frame(MessageType.OK, {"entry": b"raw bytes"})


def test_oversized_payload_refuses_to_encode(monkeypatch):
    import repro.experiments.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_PAYLOAD", 1024)
    encode_frame(MessageType.SUBMIT, "x" * 1000)
    with pytest.raises(ValueError, match="cap"):
        encode_frame(MessageType.SUBMIT, "x" * 1024)


def test_read_frame_streams_multiple_frames_then_clean_eof():
    messages = [
        (MessageType.SUBMIT, {"jobs": ["a", "b"]}),
        (MessageType.OK, {"keys": ["k1", "k2"]}),
        (MessageType.CLAIM, {"worker": "w-1"}),
    ]
    stream = io.BytesIO(b"".join(encode_frame(kind, payload)
                                 for kind, payload in messages))
    assert [read_frame(stream) for _ in messages] == messages
    assert read_frame(stream) is None  # EOF between frames: clean close


def test_read_frame_rejects_mid_frame_eof_with_log_line(caplog):
    frame = encode_frame(MessageType.SUBMIT, {"job": "payload"})
    stream = io.BytesIO(frame[:-3])
    with caplog.at_level(logging.WARNING, logger="repro.experiments.protocol"):
        with pytest.raises(TruncatedFrameError):
            read_frame(stream)
    [record] = [r for r in caplog.records
                if "rejecting truncated frame" in r.message]
    assert f"{len(frame) - 3} of {len(frame)} frame bytes" in record.message


def test_read_frame_rejects_mid_header_eof(caplog):
    stream = io.BytesIO(MAGIC)                   # 2 of 12 header bytes
    with caplog.at_level(logging.WARNING, logger="repro.experiments.protocol"):
        with pytest.raises(TruncatedFrameError):
            read_frame(stream)
    assert any("rejecting truncated frame" in record.message
               for record in caplog.records)


def test_recv_frame_reads_a_socket_stream_and_logs_a_mid_frame_close(caplog):
    messages = [(MessageType.COMPLETE, {"key": "k" * 64}), (MessageType.OK, {})]
    frame = encode_frame(MessageType.CLAIM, {"worker": "w-1"})
    ours, peer = socket.socketpair()
    with ours, peer:
        peer.sendall(b"".join(encode_frame(kind, payload)
                              for kind, payload in messages))
        peer.sendall(frame[:-3])
        peer.shutdown(socket.SHUT_WR)
        assert [recv_frame(ours) for _ in messages] == messages
        with caplog.at_level(logging.WARNING,
                             logger="repro.experiments.protocol"):
            with pytest.raises(TruncatedFrameError):
                recv_frame(ours)
    [record] = [r for r in caplog.records
                if "rejecting truncated frame" in r.message]
    assert f"{len(frame) - 3} of {len(frame)} frame bytes" in record.message


def test_read_frame_caps_declared_length_before_allocating():
    header = HEADER.pack(MAGIC, PROTOCOL_VERSION, int(MessageType.OK),
                         MAX_PAYLOAD + 1, 0)
    with pytest.raises(CorruptFrameError, match="cap"):
        read_frame(io.BytesIO(header + b"\x00" * 64))


def test_header_layout_is_the_documented_twelve_bytes():
    """The wire format is a public contract: 2s B B I I, big-endian."""
    assert HEADER.size == 12
    assert HEADER.format == ">2sBBII"
    frame = encode_frame(MessageType.HEARTBEAT, {"worker": "w"})
    magic, version, kind, length, crc = struct.unpack_from(">2sBBII", frame)
    assert magic == MAGIC == b"PQ"
    assert version == PROTOCOL_VERSION
    assert kind == int(MessageType.HEARTBEAT)
    assert length == len(frame) - 12
    assert crc == zlib.crc32(frame[12:])
    assert json.loads(frame[12:]) == {"worker": "w"}
