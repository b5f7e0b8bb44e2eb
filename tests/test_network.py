"""Tests for links, messages and protocol framing."""

import pytest

from repro.network.link import LinkSpec, NetworkLink, Nic
from repro.network.packet import Message, MessageKind
from repro.network.protocols import RfbProtocol, StreamingProtocol
from repro.sim.engine import SimulationError
from repro.sim.randomness import StreamRandom


def transmit_once(env, link, message, direction):
    result = {}

    def proc(env):
        yield from link.transmit(message, direction)
        result["elapsed"] = env.now

    env.process(proc(env))
    env.run()
    return result["elapsed"]


def test_small_message_latency_dominated_by_propagation(env):
    spec = LinkSpec(bandwidth_gbps=1.0, base_latency_ms=5.0, jitter_fraction=0.0)
    link = NetworkLink(env, spec, rng=StreamRandom(0))
    message = Message(kind=MessageKind.KEY_EVENT, size_bytes=8)
    elapsed = transmit_once(env, link, message, NetworkLink.UPLINK)
    assert elapsed == pytest.approx(0.005, rel=0.01)


def test_large_frame_serialization_time(env):
    spec = LinkSpec(bandwidth_gbps=1.0, base_latency_ms=0.0, jitter_fraction=0.0,
                    per_packet_overhead_bytes=0)
    link = NetworkLink(env, spec, rng=StreamRandom(0))
    message = Message(kind=MessageKind.FRAMEBUFFER_UPDATE, size_bytes=1.25e6)
    elapsed = transmit_once(env, link, message, NetworkLink.DOWNLINK)
    # 1.25 MB at 1 Gbps (125 MB/s) == 10 ms.
    assert elapsed == pytest.approx(0.010, rel=0.01)


def test_concurrent_downlink_transfers_share_bandwidth(env):
    spec = LinkSpec(bandwidth_gbps=1.0, base_latency_ms=0.0, jitter_fraction=0.0,
                    per_packet_overhead_bytes=0)
    link = NetworkLink(env, spec, rng=StreamRandom(0))
    finish = []

    def worker(env):
        message = Message(kind=MessageKind.FRAMEBUFFER_UPDATE, size_bytes=1.25e6)
        yield from link.transmit(message, NetworkLink.DOWNLINK)
        finish.append(env.now)

    env.process(worker(env))
    env.process(worker(env))
    env.run()
    assert max(finish) == pytest.approx(0.020, rel=0.05)


def test_uplink_and_downlink_counters_independent(env):
    link = NetworkLink(env, LinkSpec(jitter_fraction=0.0), rng=StreamRandom(0))
    up = Message(kind=MessageKind.KEY_EVENT, size_bytes=8)
    down = Message(kind=MessageKind.FRAMEBUFFER_UPDATE, size_bytes=1e6)
    transmit_once(env, link, up, NetworkLink.UPLINK)
    transmit_once(env, link, down, NetworkLink.DOWNLINK)
    assert link.message_count(NetworkLink.UPLINK) == 1
    assert link.message_count(NetworkLink.DOWNLINK) == 1
    assert link.bytes_moved(NetworkLink.DOWNLINK) > link.bytes_moved(NetworkLink.UPLINK)
    assert link.bandwidth_usage_mbps(NetworkLink.DOWNLINK, elapsed=1.0) > 0


def test_invalid_direction_rejected(env):
    link = NetworkLink(env)
    message = Message(kind=MessageKind.KEY_EVENT, size_bytes=8)
    with pytest.raises(SimulationError):
        next(link.transmit(message, "sideways"))


def test_message_network_time_recorded(env):
    link = NetworkLink(env, LinkSpec(jitter_fraction=0.0), rng=StreamRandom(0))
    message = Message(kind=MessageKind.KEY_EVENT, size_bytes=8)
    transmit_once(env, link, message, NetworkLink.UPLINK)
    assert message.network_time is not None and message.network_time > 0


def test_message_validation_and_tagging():
    with pytest.raises(ValueError):
        Message(kind=MessageKind.KEY_EVENT, size_bytes=-1)
    message = Message(kind=MessageKind.POINTER_EVENT, size_bytes=6)
    assert message.is_input
    assert message.with_tag(17).tag == 17
    frame_update = Message(kind=MessageKind.FRAMEBUFFER_UPDATE, size_bytes=100)
    assert not frame_update.is_input


def test_rfb_input_encoding_sizes():
    rfb = RfbProtocol()
    key = rfb.encode_input(MessageKind.KEY_EVENT)
    pointer = rfb.encode_input(MessageKind.POINTER_EVENT)
    hmd = rfb.encode_input(MessageKind.HMD_EVENT)
    assert key.size_bytes == rfb.key_event_bytes
    assert pointer.size_bytes == rfb.pointer_event_bytes
    assert hmd.size_bytes > key.size_bytes
    with pytest.raises(ValueError):
        rfb.encode_input(MessageKind.FRAMEBUFFER_UPDATE)


def test_rfb_frame_update_includes_headers():
    rfb = RfbProtocol()
    update = rfb.encode_frame_update(1_000_000, rectangles=3)
    assert update.size_bytes > 1_000_000
    with pytest.raises(ValueError):
        rfb.encode_frame_update(-1.0)
    with pytest.raises(ValueError):
        rfb.encode_frame_update(100.0, rectangles=0)


def test_streaming_protocol_packetization_overhead():
    rtsp = StreamingProtocol()
    update = rtsp.encode_frame_update(14_000)
    packets = 14_000 // rtsp.packet_payload_bytes + 1
    assert update.size_bytes == pytest.approx(14_000 + packets * rtsp.rtp_header_bytes)


def test_nic_wraps_link_directions(env):
    link = NetworkLink(env, LinkSpec(jitter_fraction=0.0), rng=StreamRandom(0))
    nic = Nic(env, link)

    def proc(env):
        yield from nic.send_to_client(
            Message(kind=MessageKind.FRAMEBUFFER_UPDATE, size_bytes=1000))
        yield from link.transmit(
            Message(kind=MessageKind.KEY_EVENT, size_bytes=8), NetworkLink.UPLINK)

    env.process(proc(env))
    env.run()
    assert link.message_count(NetworkLink.DOWNLINK) == 1
    assert link.message_count(NetworkLink.UPLINK) == 1


def test_link_presets_are_sensible():
    lan = LinkSpec.lan_1gbps()
    cellular = LinkSpec.cellular_5g()
    broadband = LinkSpec.broadband_10g()
    assert cellular.base_latency_ms > lan.base_latency_ms
    assert broadband.bandwidth_gbps > lan.bandwidth_gbps
