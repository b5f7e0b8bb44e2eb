"""GPU model: render queue, shared L2 / private texture caches, utilization.

The GPU executes *render jobs* submitted by rendering contexts (one
context per application instance, the analogue of a vGPU).  The model
captures the behaviours the paper's evaluation depends on:

* GPU utilization between roughly 20% and 55% for a single instance
  (Figure 8) — rendering a frame takes far less than the frame interval,
  so the GPU idles between frames;
* render time inflation when several contexts share the GPU, driven by
  the internal graphics pipeline overlapping frames from different
  instances and thrashing the shared L2 (Figures 13 and 16);
* texture caches are private per context, so their miss rate does not
  move with colocation (Figure 16);
* GPU timestamps for the OpenGL time-query objects used by Pictor's
  measurement framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Environment, SimulationError

__all__ = ["Gpu", "GpuRenderJob", "GpuSpec", "GpuWorkloadProfile", "RenderContext"]


@dataclass(frozen=True)
class GpuSpec:
    """Static description of the GPU (defaults model a GTX 1080 Ti)."""

    memory_gb: float = 11.0
    l2_kb: float = 2816.0
    # How many frames the internal pipeline can overlap before serialization.
    pipeline_depth: int = 2
    # Relative cost of sharing the shader array between concurrent contexts.
    sharing_slowdown_per_context: float = 0.18
    # How strongly concurrent contexts raise the shared-L2 miss rate.
    l2_pressure_sensitivity: float = 0.35
    # Extra render-time factor per unit of L2 miss-rate increase.
    l2_miss_penalty: float = 0.6


@dataclass(frozen=True)
class GpuWorkloadProfile:
    """Per-application GPU behaviour when running alone."""

    base_l2_miss_rate: float = 0.30
    base_texture_miss_rate: float = 0.20
    gpu_memory_mb: float = 600.0
    # Supported: whether PMU readings are available (0 A.D. uses OpenGL 1.3
    # which the vendor tools cannot instrument — Figure 16 note).
    pmu_readable: bool = True

    def __post_init__(self) -> None:
        for name in ("base_l2_miss_rate", "base_texture_miss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.gpu_memory_mb < 0:
            raise ValueError("GPU memory footprint cannot be negative")


@dataclass
class GpuRenderJob:
    """One frame's worth of GPU rendering."""

    context_name: str
    nominal_time: float
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def gpu_time(self) -> float:
        return self.finished_at - self.started_at


class RenderContext:
    """A per-application (vGPU) rendering context."""

    def __init__(self, gpu: "Gpu", name: str, profile: GpuWorkloadProfile,
                 virtualization_overhead: float = 0.0):
        self.gpu = gpu
        self.name = name
        self.profile = profile
        self.virtualization_overhead = virtualization_overhead
        self.frames_rendered = 0
        self.gpu_busy_time = 0.0
        self.l2_accesses = 0.0
        self.l2_misses = 0.0
        self.texture_accesses = 0.0
        self.texture_misses = 0.0

    # -- rendering -------------------------------------------------------------
    def render(self, nominal_time: float, work_units: float = 1.0):
        """Generator rendering one frame; returns the finished job.

        ``work_units`` scales the cache traffic attributed to the frame
        (busier frames touch more data).  The context folds the job into
        its counters and keeps no reference to it.
        """
        if nominal_time <= 0:
            raise SimulationError(f"render time must be positive, got {nominal_time}")
        job = GpuRenderJob(context_name=self.name, nominal_time=nominal_time)
        job.started_at = self.gpu.env.now

        self.gpu._begin_render(self)
        try:
            slowdown = self.gpu.sharing_slowdown()
            l2_penalty = self.gpu.l2_penalty(self)
            actual = nominal_time * slowdown * l2_penalty
            actual *= 1.0 + self.virtualization_overhead
            yield self.gpu.env.timeout(actual)
        finally:
            self.gpu._end_render(self)

        job.finished_at = self.gpu.env.now
        self._account(job, work_units)
        return job

    def _account(self, job: GpuRenderJob, work_units: float) -> None:
        self.frames_rendered += 1
        self.gpu_busy_time += job.gpu_time
        # Cache traffic grows with the frame's work units.
        l2_accesses = 1e5 * work_units
        texture_accesses = 4e4 * work_units
        self.l2_accesses += l2_accesses
        self.l2_misses += l2_accesses * self.gpu.effective_l2_miss_rate(self)
        self.texture_accesses += texture_accesses
        self.texture_misses += texture_accesses * self.profile.base_texture_miss_rate

    # -- counters ----------------------------------------------------------------
    def l2_miss_rate(self) -> Optional[float]:
        """Observed shared-L2 miss rate, or None if the PMU is unreadable."""
        if not self.profile.pmu_readable:
            return None
        if self.l2_accesses <= 0:
            return 0.0
        return self.l2_misses / self.l2_accesses

    def texture_miss_rate(self) -> Optional[float]:
        if not self.profile.pmu_readable:
            return None
        if self.texture_accesses <= 0:
            return 0.0
        return self.texture_misses / self.texture_accesses

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return self.gpu_busy_time / elapsed


class Gpu:
    """The shared GPU of one server machine."""

    def __init__(self, env: Environment, spec: Optional[GpuSpec] = None):
        self.env = env
        self.spec = spec or GpuSpec()
        self.contexts: list[RenderContext] = []
        self._active_renders = 0
        self._busy_since: Optional[float] = None
        self._busy_time = 0.0
        self._allocated_memory_mb = 0.0

    # -- context management --------------------------------------------------------
    def create_context(self, name: str, profile: GpuWorkloadProfile,
                       virtualization_overhead: float = 0.0) -> RenderContext:
        if self._allocated_memory_mb + profile.gpu_memory_mb > self.spec.memory_gb * 1024:
            raise SimulationError(
                f"GPU memory exhausted allocating context {name!r}: "
                f"{self._allocated_memory_mb + profile.gpu_memory_mb:.0f} MB "
                f"> {self.spec.memory_gb * 1024:.0f} MB"
            )
        context = RenderContext(self, name, profile, virtualization_overhead)
        self.contexts.append(context)
        self._allocated_memory_mb += profile.gpu_memory_mb
        return context

    def destroy_context(self, context: RenderContext) -> None:
        if context in self.contexts:
            self.contexts.remove(context)
            self._allocated_memory_mb -= context.profile.gpu_memory_mb

    # -- contention ------------------------------------------------------------------
    def sharing_slowdown(self) -> float:
        """Render-time inflation from sharing the shader array."""
        concurrent = max(1, self._active_renders)
        if concurrent <= 1:
            return 1.0
        overlapped = min(concurrent, self.spec.pipeline_depth)
        serialized = concurrent - overlapped
        return (1.0
                + self.spec.sharing_slowdown_per_context * (overlapped - 1)
                + 0.6 * serialized)

    def l2_pressure(self) -> float:
        """Shared-L2 pressure from the number of resident contexts."""
        others = max(0, len(self.contexts) - 1)
        return min(1.0, others * self.spec.l2_pressure_sensitivity)

    def effective_l2_miss_rate(self, context: RenderContext) -> float:
        base = context.profile.base_l2_miss_rate
        return min(1.0, base + (1.0 - base) * self.l2_pressure())

    def l2_penalty(self, context: RenderContext) -> float:
        """Render-time multiplier from L2 miss-rate increase over standalone."""
        extra = self.effective_l2_miss_rate(context) - context.profile.base_l2_miss_rate
        return 1.0 + self.spec.l2_miss_penalty * extra

    # -- busy-time bookkeeping ----------------------------------------------------------
    def _begin_render(self, context: RenderContext) -> None:
        if self._active_renders == 0:
            self._busy_since = self.env.now
        self._active_renders += 1

    def _end_render(self, context: RenderContext) -> None:
        self._active_renders = max(0, self._active_renders - 1)
        if self._active_renders == 0 and self._busy_since is not None:
            self._busy_time += self.env.now - self._busy_since
            self._busy_since = None

    # -- reporting -----------------------------------------------------------------------
    def busy_seconds(self) -> float:
        """Total busy time so far, folding any in-progress render
        (fast-forward probe seam)."""
        busy = self._busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        return busy

    def record_synthetic_busy(self, seconds: float) -> None:
        """Credit ``seconds`` of busy time skipped by a macro jump."""
        if seconds < 0:
            raise ValueError("synthetic busy seconds cannot be negative")
        self._busy_time += seconds

    def utilization(self, elapsed: Optional[float] = None) -> float:
        # Without an explicit horizon the virtual clock is used, so the
        # macro-jump credit in _busy_time divides by the matching virtual
        # elapsed (identical to env.now when fast-forward never fired).
        horizon = elapsed if elapsed is not None else self.env.virtual_now
        if horizon <= 0:
            return 0.0
        busy = self._busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        return min(1.0, busy / horizon)

    @property
    def allocated_memory_mb(self) -> float:
        return self._allocated_memory_mb
