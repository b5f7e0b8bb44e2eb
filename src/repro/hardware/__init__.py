"""Hardware substrate models: CPU, GPU, PCIe, memory system, and power.

These models are deliberately *behavioural* rather than cycle-accurate:
they expose the quantities the paper's evaluation depends on — stage
latencies under contention, utilizations, Top-Down cycle shares, cache
miss rates, PCIe/network bandwidth, and power draw — as first-class,
queryable state.
"""

from repro.hardware.cpu import Cpu, CpuSpec, CpuThread, CycleBreakdown, StageCpuProfile
from repro.hardware.gpu import Gpu, GpuRenderJob, GpuSpec, GpuWorkloadProfile
from repro.hardware.machine import ClientMachine, MachineSpec, ServerMachine
from repro.hardware.memory import LlcModel, MemorySystem, MemorySpec
from repro.hardware.pcie import PcieBus, PcieSpec
from repro.hardware.power import PowerMeter, PowerModel, PowerSpec

__all__ = [
    "ClientMachine",
    "Cpu",
    "CpuSpec",
    "CpuThread",
    "CycleBreakdown",
    "Gpu",
    "GpuRenderJob",
    "GpuSpec",
    "GpuWorkloadProfile",
    "LlcModel",
    "MachineSpec",
    "MemorySpec",
    "MemorySystem",
    "PcieBus",
    "PcieSpec",
    "PowerMeter",
    "PowerModel",
    "PowerSpec",
    "ServerMachine",
    "StageCpuProfile",
]
