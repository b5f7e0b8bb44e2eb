"""Shared memory system: last-level cache and DRAM contention model.

The evaluation in the paper leans on two memory-system observations:

* the benchmarks are off-chip memory bound — L3 miss rates above 70% even
  when running alone, because graphics drivers use uncached write-combining
  buffers for CPU→GPU uploads (Figure 15, Section 5.1.3);
* colocating more instances raises both back-end stall cycles and L3 miss
  rates (Figures 14 and 15).

The model therefore exposes a *miss rate* that starts high and grows with
cache pressure, plus a CPU stall factor derived from it that the CPU model
applies to memory-intensive stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Environment

__all__ = ["LlcModel", "MemorySpec", "MemorySystem"]


@dataclass(frozen=True)
class MemorySpec:
    """Static description of the memory hierarchy below the cores."""

    l3_mb: float = 11.0
    dram_gb: float = 16.0
    dram_bandwidth_gbps: float = 60.0
    # How strongly additional working sets raise the miss rate: a pressure
    # of 1.0 (working sets equal to the L3) adds this fraction of the
    # remaining headroom to the miss rate.
    pressure_sensitivity: float = 0.35
    # Maximum extra stall factor a fully memory-bound stage can incur when
    # the cache is completely thrashed.  Most of the colocation slowdown
    # comes from core oversubscription; the memory system adds the rest.
    max_stall_factor: float = 1.5


@dataclass
class LlcModel:
    """Last-level cache statistics for a single workload.

    ``base_miss_rate`` is the miss rate observed when the workload runs
    alone (already high for these graphics workloads); the effective rate
    adds a share of the remaining headroom proportional to cache pressure
    from co-runners.
    """

    base_miss_rate: float
    working_set_mb: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_miss_rate <= 1.0:
            raise ValueError(f"miss rate must be in [0, 1], got {self.base_miss_rate}")
        if self.working_set_mb < 0:
            raise ValueError("working set cannot be negative")

    def effective_miss_rate(self, pressure: float, sensitivity: float) -> float:
        headroom = 1.0 - self.base_miss_rate
        extra = headroom * min(1.0, pressure * sensitivity)
        return min(1.0, self.base_miss_rate + extra)


class MemorySystem:
    """The shared L3 + DRAM subsystem of one server machine.

    Workloads register their working sets; the resulting *cache pressure*
    (total co-runner working set relative to L3 capacity) drives both the
    reported miss rates and the stall factor applied to CPU stages.
    Instantaneous pressure from in-flight CPU work (updated by
    :meth:`repro.hardware.cpu.CpuThread.run`) is also tracked so the stall
    factor reflects how many memory-hungry stages run concurrently.
    """

    def __init__(self, env: Environment, spec: Optional[MemorySpec] = None):
        self.env = env
        self.spec = spec or MemorySpec()
        self._registered_working_set_mb = 0.0
        self._resident_workloads = 0
        self._active_pressure = 0.0
        # The steady-state term of cpu_stall_factor, 0.7 * min(1, pressure);
        # only (un)registering a workload changes it.
        self._pressure_term = 0.0
        self.accesses = 0.0
        self.misses = 0.0
        self.dram_bytes = 0.0

    # -- workload registration ------------------------------------------------
    def register_workload(self, working_set_mb: float) -> None:
        """Declare a long-lived workload's working set (an app instance)."""
        if working_set_mb < 0:
            raise ValueError("working set cannot be negative")
        self._registered_working_set_mb += working_set_mb
        self._resident_workloads += 1
        self._pressure_term = 0.7 * min(1.0, self.cache_pressure())

    def unregister_workload(self, working_set_mb: float) -> None:
        self._registered_working_set_mb = max(
            0.0, self._registered_working_set_mb - working_set_mb)
        self._resident_workloads = max(0, self._resident_workloads - 1)
        self._pressure_term = 0.7 * min(1.0, self.cache_pressure())

    # -- derived quantities -----------------------------------------------------
    @property
    def resident_workloads(self) -> int:
        return self._resident_workloads

    def cache_pressure(self) -> float:
        """Working-set pressure relative to the L3 capacity.

        The first workload's own working set does not count as *pressure*
        — its footprint is already reflected in its base miss rate — so a
        single instance reproduces the paper's standalone miss rates.
        """
        if self._resident_workloads <= 1:
            return 0.0
        per_workload = self._registered_working_set_mb / self._resident_workloads
        competing = self._registered_working_set_mb - per_workload
        return competing / max(self.spec.l3_mb, 1e-9)

    def effective_miss_rate(self, llc: LlcModel) -> float:
        return llc.effective_miss_rate(self.cache_pressure(),
                                       self.spec.pressure_sensitivity)

    def cpu_stall_factor(self, memory_intensity: float) -> float:
        """Multiplier applied to a CPU stage's nominal time.

        Combines steady-state cache pressure with the instantaneous number
        of concurrently executing memory-hungry stages (the demand the CPU
        model adds to ``_active_pressure`` while a burst runs).
        """
        excess = self._active_pressure - 1.0
        concurrency = (excess if excess > 0.0 else 0.0) / 8.0
        load = self._pressure_term + 0.3 * (concurrency if concurrency < 1.0 else 1.0)
        raw = 1.0 + (self.spec.max_stall_factor - 1.0) * (load if load < 1.0 else 1.0)
        return 1.0 + (raw - 1.0) * memory_intensity

    # -- counter bookkeeping -------------------------------------------------------
    def record_accesses(self, accesses: float, llc: LlcModel) -> float:
        """Record L3 accesses for a workload; returns the misses charged."""
        if accesses < 0:
            raise ValueError("access count cannot be negative")
        miss_rate = self.effective_miss_rate(llc)
        misses = accesses * miss_rate
        self.accesses += accesses
        self.misses += misses
        self.dram_bytes += misses * 64.0  # one cache line per miss
        return misses

    def observed_miss_rate(self) -> float:
        if self.accesses <= 0:
            return 0.0
        return self.misses / self.accesses
