"""Frame compression codecs used by the server proxy (stage CP).

TurboVNC compresses each framebuffer update with its "Tight" JPEG-based
encoder before shipping it to the client; the compression time and the
compressed size both depend on how much of the scene changed since the
previous frame, which is why the VNC proxy's CPU utilization varies from
169% to 243% across benchmarks (Section 5.1.1) and the per-frame network
cost stays under ~600 Mbps (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graphics.frame import Frame
from repro.hardware.cpu import CpuThread, StageCpuProfile
from repro.sim.randomness import StreamRandom

__all__ = ["Codec", "CompressedFrame", "RawCodec", "TightCodec"]


#: Compression is vectorized, branch-light CPU work that streams the whole
#: framebuffer: high retiring share but also memory-hungry.
COMPRESSION_CPU_PROFILE = StageCpuProfile(
    demand=1.9,
    memory_intensity=0.7,
    base_retiring=0.40,
    base_frontend=0.08,
    base_bad_speculation=0.03,
    working_set_mb=16.0,
)


@dataclass
class CompressedFrame:
    """The result of compressing one frame."""

    frame: Frame
    compressed_bytes: float
    compression_time: float
    codec_name: str


class Codec:
    """Base class for frame codecs.

    Subclasses define the compressed-size and CPU-time models; ``compress``
    charges the CPU time to the supplied proxy thread and returns a
    :class:`CompressedFrame`.
    """

    name = "base"

    def __init__(self, rng: Optional[StreamRandom] = None):
        self.rng = rng or StreamRandom(0)
        self.frames_compressed = 0
        self.bytes_out = 0.0

    # -- model hooks ---------------------------------------------------------
    def compressed_size(self, frame: Frame) -> float:
        raise NotImplementedError

    def compression_time(self, frame: Frame) -> float:
        raise NotImplementedError

    # -- public API ------------------------------------------------------------
    def compress(self, frame: Frame, thread: CpuThread):
        """Generator: compress ``frame`` on ``thread``; returns CompressedFrame."""
        nominal = self.compression_time(frame)
        started = thread.cpu.env.now
        yield from thread.run(nominal, COMPRESSION_CPU_PROFILE)
        elapsed = thread.cpu.env.now - started
        size = self.compressed_size(frame)
        self.frames_compressed += 1
        self.bytes_out += size
        return CompressedFrame(frame=frame, compressed_bytes=size,
                               compression_time=elapsed, codec_name=self.name)


class TightCodec(Codec):
    """TurboVNC's Tight/JPEG encoder model.

    The compressed size scales with how much of the frame changed (VNC only
    re-encodes damaged regions) plus a floor for headers and the always-
    changing HUD; the CPU time scales with the changed area and a per-frame
    fixed cost.
    """

    name = "tight-jpeg"

    def __init__(self, rng: Optional[StreamRandom] = None,
                 quality_ratio: float = 0.20,
                 base_time_ms: float = 4.0,
                 time_ms_per_changed_mb: float = 3.5):
        super().__init__(rng)
        if not 0.0 < quality_ratio <= 1.0:
            raise ValueError(f"quality_ratio must be in (0, 1], got {quality_ratio}")
        self.quality_ratio = quality_ratio
        self.base_time_ms = base_time_ms
        self.time_ms_per_changed_mb = time_ms_per_changed_mb

    def compressed_size(self, frame: Frame) -> float:
        changed_fraction = 0.15 + 0.85 * frame.scene_change
        size = frame.raw_bytes * changed_fraction * self.quality_ratio
        return self.rng.jitter(size, 0.10)

    def compression_time(self, frame: Frame) -> float:
        changed_mb = frame.raw_bytes * (0.15 + 0.85 * frame.scene_change) / 1e6
        nominal_ms = self.base_time_ms + self.time_ms_per_changed_mb * changed_mb
        return self.rng.jitter(nominal_ms * 1e-3, 0.15)


class RawCodec(Codec):
    """No compression: ships raw pixels (the fallback RFB "Raw" encoding)."""

    name = "raw"

    def __init__(self, rng: Optional[StreamRandom] = None,
                 copy_time_ms_per_mb: float = 0.35):
        super().__init__(rng)
        self.copy_time_ms_per_mb = copy_time_ms_per_mb

    def compressed_size(self, frame: Frame) -> float:
        return frame.raw_bytes

    def compression_time(self, frame: Frame) -> float:
        return frame.raw_bytes / 1e6 * self.copy_time_ms_per_mb * 1e-3
