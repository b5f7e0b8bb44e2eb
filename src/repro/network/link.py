"""Network links and NICs.

Each benchmark instance gets its own full-duplex :class:`NetworkLink`
(the paper provisions one 1 Gbps NIC per instance precisely to avoid
network contention between instances).  Within a link, concurrent
transmissions in the same direction share the bandwidth equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.network.packet import Message
from repro.sim.engine import Environment, SimulationError
from repro.sim.randomness import StreamRandom

__all__ = ["LinkSpec", "NetworkLink", "Nic"]


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one network path between client and server."""

    bandwidth_gbps: float = 1.0     # usable bandwidth, gigabits per second
    base_latency_ms: float = 5.0    # one-way propagation + switching latency
    jitter_fraction: float = 0.25   # uniform jitter applied to the latency
    mtu_bytes: int = 1500
    per_packet_overhead_bytes: int = 66   # Ethernet + IP + TCP headers

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0

    @staticmethod
    def lan_1gbps() -> "LinkSpec":
        """The testbed's 1 Gbps LAN (behaves like 5G for frame delivery)."""
        return LinkSpec(bandwidth_gbps=1.0, base_latency_ms=5.0, jitter_fraction=0.25)

    @staticmethod
    def cellular_5g() -> "LinkSpec":
        """A 5G-like profile: similar bandwidth, slightly higher latency."""
        return LinkSpec(bandwidth_gbps=1.0, base_latency_ms=8.0, jitter_fraction=0.45)

    @staticmethod
    def broadband_10g() -> "LinkSpec":
        return LinkSpec(bandwidth_gbps=10.0, base_latency_ms=2.0, jitter_fraction=0.15)


class _Direction:
    """Per-direction state of a full-duplex link."""

    def __init__(self) -> None:
        self.active_transfers = 0
        self.bytes_moved = 0.0
        self.messages = 0


class NetworkLink:
    """A full-duplex point-to-point link between one client and the server."""

    UPLINK = "client_to_server"
    DOWNLINK = "server_to_client"

    def __init__(self, env: Environment, spec: Optional[LinkSpec] = None,
                 rng: Optional[StreamRandom] = None, name: str = "link"):
        self.env = env
        self.spec = spec or LinkSpec.lan_1gbps()
        self.rng = rng or StreamRandom(0)
        self.name = name
        self._directions = {self.UPLINK: _Direction(), self.DOWNLINK: _Direction()}
        # Hot-path caches: transmit() runs per message, and the frozen
        # dataclass recomputes these on every property access.
        self._bandwidth_bytes_per_s = self.spec.bandwidth_bytes_per_s
        self._base_latency_s = self.spec.base_latency_ms * 1e-3

    # -- transmission -----------------------------------------------------------
    def transmit(self, message: Message, direction: str):
        """Generator: move ``message`` across the link; returns the message."""
        state = self._direction_state(direction)
        message.sent_at = self.env.now

        wire_bytes = self._wire_bytes(message.size_bytes)
        state.active_transfers += 1
        try:
            share = max(1, state.active_transfers)
            effective_bw = self._bandwidth_bytes_per_s / share
            serialization = wire_bytes / effective_bw
            latency = self.rng.jitter(self._base_latency_s,
                                      self.spec.jitter_fraction)
            yield self.env.timeout(latency + serialization)
        finally:
            state.active_transfers = max(0, state.active_transfers - 1)

        message.received_at = self.env.now
        state.bytes_moved += wire_bytes
        state.messages += 1
        return message

    def _wire_bytes(self, payload_bytes: float) -> float:
        packets = max(1, int(payload_bytes // self.spec.mtu_bytes) + 1)
        return payload_bytes + packets * self.spec.per_packet_overhead_bytes

    def _direction_state(self, direction: str) -> _Direction:
        if direction not in self._directions:
            raise SimulationError(
                f"direction must be {self.UPLINK!r} or {self.DOWNLINK!r}, "
                f"got {direction!r}")
        return self._directions[direction]

    def record_synthetic_bytes(self, direction: str, wire_bytes: float) -> None:
        """Credit ``wire_bytes`` skipped over by a fast-forward macro jump."""
        if wire_bytes < 0:
            raise ValueError("synthetic wire bytes cannot be negative")
        self._direction_state(direction).bytes_moved += wire_bytes

    # -- reporting ----------------------------------------------------------------
    def bandwidth_usage_mbps(self, direction: str,
                             elapsed: Optional[float] = None) -> float:
        """Average megabits per second moved in ``direction``."""
        state = self._direction_state(direction)
        horizon = elapsed if elapsed is not None else self.env.now
        if horizon <= 0:
            return 0.0
        return state.bytes_moved * 8.0 / 1e6 / horizon

    def bytes_moved(self, direction: str) -> float:
        return self._direction_state(direction).bytes_moved

    def message_count(self, direction: str) -> int:
        return self._direction_state(direction).messages


class Nic:
    """A server-side network interface dedicated to one benchmark instance."""

    def __init__(self, env: Environment, link: NetworkLink, name: str = "nic0"):
        self.env = env
        self.link = link
        self.name = name

    def send_to_client(self, message: Message):
        return self.link.transmit(message, NetworkLink.DOWNLINK)
