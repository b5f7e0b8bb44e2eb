"""Figure 20: overhead of running each benchmark inside a container.

Each benchmark instance (and its VNC server) is placed in a container and
the run is compared with the bare-metal configuration.  The paper reports
low average overheads (1.3% RTT, 1.5% server FPS), occasional spikes
(8.5% RTT / 6% FPS), GPU render time up ~2.9% on average, and a few cases
of *negative* overhead where the container's isolation reduces
interference between the benchmark and the VNC proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

__all__ = ["ContainerOverheadRow", "container_jobs",
           "container_overhead_from_results"]


@dataclass
class ContainerOverheadRow:
    """One benchmark's bare-metal vs. containerized comparison."""

    benchmark: str
    bare_fps: float
    container_fps: float
    bare_rtt_ms: float
    container_rtt_ms: float
    bare_gpu_render_ms: float
    container_gpu_render_ms: float

    @property
    def fps_overhead_percent(self) -> float:
        if self.bare_fps <= 0:
            return 0.0
        return (self.bare_fps - self.container_fps) / self.bare_fps * 100.0

    @property
    def rtt_overhead_percent(self) -> float:
        if self.bare_rtt_ms <= 0:
            return 0.0
        return (self.container_rtt_ms - self.bare_rtt_ms) / self.bare_rtt_ms * 100.0

    @property
    def gpu_render_overhead_percent(self) -> float:
        if self.bare_gpu_render_ms <= 0:
            return 0.0
        return (self.container_gpu_render_ms - self.bare_gpu_render_ms) \
            / self.bare_gpu_render_ms * 100.0


def container_jobs(benchmarks, config: ExperimentConfig) -> list[ExperimentJob]:
    """A (bare, containerized) scenario pair per benchmark, interleaved."""
    jobs = []
    for index, benchmark in enumerate(benchmarks):
        jobs.append(ExperimentJob(Scenario.single(
            benchmark, config, seed_offset=600 + index)))
        jobs.append(ExperimentJob(Scenario.single(
            benchmark, config, seed_offset=600 + index, containerized=True)))
    return jobs


def container_overhead_from_results(benchmarks,
                                    results) -> list[ContainerOverheadRow]:
    rows = []
    for index, benchmark in enumerate(benchmarks):
        bare_report = results[2 * index].reports[0]
        contained_report = results[2 * index + 1].reports[0]
        rows.append(ContainerOverheadRow(
            benchmark=benchmark,
            bare_fps=bare_report.server_fps,
            container_fps=contained_report.server_fps,
            bare_rtt_ms=bare_report.rtt.mean * 1e3,
            container_rtt_ms=contained_report.rtt.mean * 1e3,
            bare_gpu_render_ms=bare_report.extra.get("gpu_render_time_mean", 0.0) * 1e3,
            container_gpu_render_ms=contained_report.extra.get(
                "gpu_render_time_mean", 0.0) * 1e3,
        ))
    return rows

