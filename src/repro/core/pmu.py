"""Performance-monitoring-unit readers.

Architecture-level measurements in the paper come from three sources:
CPU PMUs read with PAPI inside the API hooks (Top-Down cycle breakdown
and L3 miss rates, Figures 14–15), AMD GPU counters read through the GPU
Performance API, and NVidia GPU counters read with the external NSight
tool (GPU L2 and texture cache miss rates, Figure 16).  0 A.D. still uses
OpenGL 1.3, which the NVidia tooling cannot attach to, so its GPU
counters are reported as unavailable.

The readers below expose the same quantities from the simulated hardware
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.cpu import Cpu, CycleBreakdown
from repro.hardware.gpu import RenderContext
from repro.hardware.memory import LlcModel, MemorySystem

__all__ = ["CpuPmuReader", "CpuPmuSample", "GpuPmuReader", "GpuPmuSample"]


@dataclass(frozen=True)
class CpuPmuSample:
    """One CPU PMU reading: Top-Down shares plus L3 statistics."""

    retiring: float
    frontend_bound: float
    backend_bound: float
    bad_speculation: float
    l3_miss_rate: float
    total_cycles: float

    def as_dict(self) -> dict[str, float]:
        return {
            "retiring": self.retiring,
            "frontend_bound": self.frontend_bound,
            "backend_bound": self.backend_bound,
            "bad_speculation": self.bad_speculation,
            "l3_miss_rate": self.l3_miss_rate,
            "total_cycles": self.total_cycles,
        }


@dataclass(frozen=True)
class GpuPmuSample:
    """One GPU PMU reading; fields are None when the PMU is unreadable."""

    l2_miss_rate: Optional[float]
    texture_miss_rate: Optional[float]
    frames_rendered: int

    @property
    def available(self) -> bool:
        return self.l2_miss_rate is not None


class CpuPmuReader:
    """Reads Top-Down cycle shares and L3 miss rates for one workload.

    The reader is attached to one benchmark instance: ``owner`` selects the
    CPU threads belonging to that instance (Pictor separates the
    application's counters from the VNC proxy's by reading the PMU from
    within the per-process API hooks) and ``llc`` is the instance's
    last-level-cache behaviour model.
    """

    def __init__(self, cpu: Cpu, memory: MemorySystem, owner: str,
                 llc: LlcModel):
        self.cpu = cpu
        self.memory = memory
        self.owner = owner
        self.llc = llc

    def read(self) -> CpuPmuSample:
        breakdown: CycleBreakdown = self.cpu.cycle_breakdown(self.owner)
        fractions = breakdown.fractions()
        return CpuPmuSample(
            retiring=fractions["retiring"],
            frontend_bound=fractions["frontend_bound"],
            backend_bound=fractions["backend_bound"],
            bad_speculation=fractions["bad_speculation"],
            l3_miss_rate=self.memory.effective_miss_rate(self.llc),
            total_cycles=breakdown.total,
        )


class GpuPmuReader:
    """Reads GPU cache-miss counters for one rendering context."""

    def __init__(self, context: RenderContext):
        self.context = context

    def read(self) -> GpuPmuSample:
        return GpuPmuSample(
            l2_miss_rate=self.context.l2_miss_rate(),
            texture_miss_rate=self.context.texture_miss_rate(),
            frames_rendered=self.context.frames_rendered,
        )
