"""PCIe bus model: shared bandwidth between the CPU and the GPU.

Frame copies from GPU memory back to system memory (the FC stage) and
upload traffic (vertex/texture data) both cross this bus.  The paper's
characterization shows per-benchmark PCIe usage up to ~5 GB/s out of the
31.5 GB/s a PCIe 3 x16 link offers (Figure 9) and identifies the frame
copy as a dominant latency component (Figure 13), so the model tracks
per-direction byte counters and lets concurrent transfers share the link
bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Environment, SimulationError

__all__ = ["PcieBus", "PcieSpec"]


@dataclass(frozen=True)
class PcieSpec:
    """Static link description (defaults: PCIe 3.0 x16)."""

    bandwidth_gbps: float = 31.5  # GB/s usable
    latency_us: float = 5.0       # per-transfer setup latency

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_gbps * 1e9


class PcieBus:
    """The shared PCIe link of one server machine.

    Transfers are modelled with an effective-bandwidth approach: a transfer
    observes the number of concurrent transfers when it starts and receives
    an equal share of the link for its whole duration.  The bus counts
    bytes per direction; it keeps nothing per transfer.
    """

    VALID_DIRECTIONS = ("to_gpu", "from_gpu")

    def __init__(self, env: Environment, spec: Optional[PcieSpec] = None):
        self.env = env
        self.spec = spec or PcieSpec()
        self._bandwidth = self.spec.bandwidth_bytes_per_s
        self._latency = self.spec.latency_us * 1e-6
        self._active_transfers = 0
        self.bytes_by_direction: dict[str, float] = {d: 0.0 for d in self.VALID_DIRECTIONS}

    def transfer(self, size_bytes: float, direction: str):
        """Generator performing one DMA transfer and counting its bytes."""
        if direction not in self.VALID_DIRECTIONS:
            raise SimulationError(
                f"direction must be one of {self.VALID_DIRECTIONS}, got {direction!r}")
        if size_bytes < 0:
            raise SimulationError(f"transfer size cannot be negative: {size_bytes}")

        self._active_transfers += 1
        try:
            share = self._active_transfers if self._active_transfers > 1 else 1
            duration = self._latency + size_bytes / (self._bandwidth / share)
            yield self.env.timeout(duration)
        finally:
            self._active_transfers = (self._active_transfers - 1
                                      if self._active_transfers > 0 else 0)

        self.bytes_by_direction[direction] += size_bytes

    # -- reporting -------------------------------------------------------------
    def bandwidth_usage(self, direction: str, elapsed: Optional[float] = None) -> float:
        """Average bytes/second moved in ``direction`` over the run."""
        if direction not in self.VALID_DIRECTIONS:
            raise SimulationError(
                f"direction must be one of {self.VALID_DIRECTIONS}, got {direction!r}")
        horizon = elapsed if elapsed is not None else self.env.now
        if horizon <= 0:
            return 0.0
        return self.bytes_by_direction[direction] / horizon

    @property
    def active_transfers(self) -> int:
        return self._active_transfers
