"""Frame-rate counters and system-level resource monitors.

Pictor measures FPS by counting frames at the server proxy (frames
generated) and at the client proxy (frames delivered), and samples
system-level resource usage — CPU/GPU utilization, memory, PCIe and
network bandwidth — from the OS and driver interfaces (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hardware.machine import ServerMachine
from repro.sim.engine import Environment

__all__ = ["EventRateMonitor", "FpsCounter", "ResourceMonitor",
           "ResourceSample"]


class FpsCounter:
    """Counts frames observed at one point of the pipeline.

    ``record_frame`` is called once per frame; FPS is reported over the
    measurement interval.
    """

    def __init__(self, env: Environment, name: str = "fps"):
        self.env = env
        self.name = name
        self.timestamps: list[float] = []
        # Frames credited by fast-forward macro jumps (rate x skipped
        # seconds); they have no timestamps, but totals cover the whole
        # virtual interval.
        self.synthetic_frames = 0.0
        self._started_at: Optional[float] = None

    def start(self) -> None:
        """Mark the start of the measurement interval (defaults to first frame)."""
        self._started_at = self.env.now

    def record_frame(self) -> None:
        if self._started_at is None:
            self._started_at = self.env.now
        self.timestamps.append(self.env.now)

    def record_synthetic(self, frames: float) -> None:
        """Credit ``frames`` frames skipped over by a macro jump."""
        if frames < 0:
            raise ValueError("synthetic frame count cannot be negative")
        self.synthetic_frames += frames

    @property
    def frame_count(self) -> float:
        count = len(self.timestamps) + self.synthetic_frames
        return int(count) if not self.synthetic_frames else count

    def fps(self, elapsed: Optional[float] = None) -> float:
        """Average frames per second over the measurement interval."""
        total = len(self.timestamps) + self.synthetic_frames
        if not total:
            return 0.0
        if elapsed is None:
            start = self._started_at
            if start is None:
                if not self.timestamps:
                    return 0.0
                start = self.timestamps[0]
            elapsed = self.env.now - start
        if elapsed <= 0:
            return 0.0
        return total / elapsed


class EventRateMonitor:
    """Tallies processed kernel events by type, via the event bus.

    A lightweight consumer of the kernel's observability seam: it
    subscribes to ``env.bus`` alongside any trace recorder (subscribers
    chain, they do not replace each other) and counts every dispatched
    event, giving experiments a cheap "kernel pressure" signal — events
    per simulated second, broken down by event type — without recording
    a full trace.  Detach with :meth:`close`.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.counts: dict[str, int] = {}
        self.total = 0
        self._closed = False
        # The bus matches subscribers by identity; bind the method once
        # so close() hands back the exact object subscribe() saw.
        self._subscription = self._observe
        env.bus.subscribe(self._subscription)

    def _observe(self, now: float, event) -> None:
        self.total += 1
        name = event.__class__.__name__
        self.counts[name] = self.counts.get(name, 0) + 1

    def close(self) -> None:
        """Detach from the bus (idempotent); counts stay readable."""
        if not self._closed:
            self._closed = True
            self.env.bus.unsubscribe(self._subscription)


@dataclass
class ResourceSample:
    """One periodic snapshot of server-level resource usage."""

    timestamp: float
    cpu_utilization_cores: float
    gpu_utilization: float
    gpu_memory_mb: float
    pcie_to_gpu_bytes_per_s: float
    pcie_from_gpu_bytes_per_s: float
    l3_miss_rate: float
    cpu_by_owner: dict[str, float] = field(default_factory=dict)


class ResourceMonitor:
    """Periodically samples a server machine's resource usage.

    The monitor runs as a simulation process (like ``nvidia-smi`` /
    ``/proc`` polling in the real framework) and keeps the full sample
    series so experiments can report averages or time series.
    """

    def __init__(self, env: Environment, machine: ServerMachine,
                 interval: float = 1.0):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.env = env
        self.machine = machine
        self.interval = interval
        self.samples: list[ResourceSample] = []
        self._process = None

    def start(self) -> None:
        """Begin periodic sampling."""
        if self._process is None:
            self._process = self.env.process(self._run())

    def _run(self):
        while True:
            self.sample()
            yield self.env.timeout(self.interval)

    def sample(self) -> ResourceSample:
        summary = self.machine.summary()
        sample = ResourceSample(
            timestamp=self.env.now,
            cpu_utilization_cores=summary["cpu_utilization_cores"],
            gpu_utilization=summary["gpu_utilization"],
            gpu_memory_mb=summary["gpu_memory_mb"],
            pcie_to_gpu_bytes_per_s=summary["pcie_to_gpu_bytes_per_s"],
            pcie_from_gpu_bytes_per_s=summary["pcie_from_gpu_bytes_per_s"],
            l3_miss_rate=summary["l3_miss_rate"],
            cpu_by_owner=self.machine.cpu.utilization_by_owner(max(self.env.now, 1e-9)),
        )
        self.samples.append(sample)
        return sample
