"""Figures 8 and 9: single-instance resource characterization.

Figure 8 reports per-benchmark CPU utilization (benchmark and VNC server
separately), GPU utilization, and the memory footprints discussed in
Section 5.1.1.  Figure 9 reports per-benchmark network bandwidth (frames
to the client) and PCIe bandwidth in both directions.

Both figures slice the *same* single-instance runs, so their job lists
are identical and a shared result cache executes each run only once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

__all__ = ["BandwidthRow", "UtilizationRow", "characterization_jobs",
           "bandwidth_from_results", "utilization_from_results"]


@dataclass
class UtilizationRow:
    """One Figure-8 bar group."""

    benchmark: str
    app_cpu_percent: float
    vnc_cpu_percent: float
    gpu_percent: float
    cpu_memory_mb: float
    gpu_memory_mb: float


@dataclass
class BandwidthRow:
    """One Figure-9 bar group."""

    benchmark: str
    network_send_mbps: float
    network_receive_mbps: float
    pcie_to_gpu_gbps: float
    pcie_from_gpu_gbps: float


def characterization_jobs(benchmarks, config: Optional[ExperimentConfig] = None,
                          ) -> list[ExperimentJob]:
    """One single-instance scenario per benchmark (shared by Figures 8 and 9)."""
    config = config or ExperimentConfig()
    return [ExperimentJob(Scenario.single(benchmark, config, seed_offset=index))
            for index, benchmark in enumerate(benchmarks)]


def utilization_from_results(benchmarks, results) -> list[UtilizationRow]:
    rows = []
    for benchmark, result in zip(benchmarks, results):
        report = result.reports[0]
        rows.append(UtilizationRow(
            benchmark=benchmark,
            app_cpu_percent=report.cpu_utilization_cores * 100.0,
            vnc_cpu_percent=report.vnc_cpu_utilization_cores * 100.0,
            gpu_percent=report.gpu_utilization * 100.0,
            cpu_memory_mb=report.cpu_memory_mb,
            gpu_memory_mb=report.gpu_memory_mb,
        ))
    return rows


def bandwidth_from_results(benchmarks, results) -> list[BandwidthRow]:
    rows = []
    for benchmark, result in zip(benchmarks, results):
        report = result.reports[0]
        rows.append(BandwidthRow(
            benchmark=benchmark,
            network_send_mbps=report.network_send_mbps,
            network_receive_mbps=report.network_receive_mbps,
            pcie_to_gpu_gbps=report.pcie_to_gpu_gbps,
            pcie_from_gpu_gbps=report.pcie_from_gpu_gbps,
        ))
    return rows

