"""Figures 14–16: architecture-level counters under colocation.

* Figure 14 — Top-Down CPU cycle breakdown (retiring / front-end /
  back-end / bad speculation) for one instance as 1–4 instances colocate;
* Figure 15 — L3 miss rate under the same sweep;
* Figure 16 — GPU L2 and texture cache miss rates (unavailable for 0 A.D.
  whose OpenGL 1.3 context the vendor PMU tools cannot attach to).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.executor import ExperimentSuite, run_jobs
from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

__all__ = ["ArchitecturePoint", "architecture_jobs",
           "architecture_points_from_results", "architecture_sweep",
           "topdown_scaling", "l3_miss_scaling", "gpu_cache_scaling"]


@dataclass
class ArchitecturePoint:
    """Architecture counters of the first instance at one colocation level."""

    benchmark: str
    instances: int
    topdown: dict[str, float] = field(default_factory=dict)
    l3_miss_rate: float = 0.0
    gpu_l2_miss_rate: Optional[float] = None
    gpu_texture_miss_rate: Optional[float] = None


def architecture_jobs(benchmark: str, config: Optional[ExperimentConfig] = None,
                      max_instances: Optional[int] = None) -> list[ExperimentJob]:
    """The 1..N colocation runs of the sweep, as declarative jobs."""
    config = config or ExperimentConfig()
    max_instances = max_instances or config.max_instances
    return [ExperimentJob(Scenario.colocated(benchmark, count, config,
                                             seed_offset=100 + count))
            for count in range(1, max_instances + 1)]


def architecture_points_from_results(benchmark: str,
                                     results) -> list[ArchitecturePoint]:
    """Read the first instance's counters out of each sweep result."""
    points = []
    for result in results:
        report = result.reports[0]
        points.append(ArchitecturePoint(
            benchmark=benchmark,
            instances=len(result.reports),
            topdown={
                "retiring": report.cpu_pmu.get("retiring", 0.0),
                "frontend_bound": report.cpu_pmu.get("frontend_bound", 0.0),
                "backend_bound": report.cpu_pmu.get("backend_bound", 0.0),
                "bad_speculation": report.cpu_pmu.get("bad_speculation", 0.0),
            },
            l3_miss_rate=report.cpu_pmu.get("l3_miss_rate", 0.0),
            gpu_l2_miss_rate=report.gpu_pmu.get("l2_miss_rate"),
            gpu_texture_miss_rate=report.gpu_pmu.get("texture_miss_rate"),
        ))
    return points


def architecture_sweep(benchmark: str, config: Optional[ExperimentConfig] = None,
                       max_instances: Optional[int] = None,
                       suite: Optional[ExperimentSuite] = None,
                       ) -> list[ArchitecturePoint]:
    """Colocate 1..N instances and read the first instance's counters."""
    jobs = architecture_jobs(benchmark, config, max_instances)
    return architecture_points_from_results(benchmark, run_jobs(jobs, suite))


def topdown_scaling(benchmark: str, config: Optional[ExperimentConfig] = None,
                    max_instances: Optional[int] = None,
                    suite: Optional[ExperimentSuite] = None) -> list[dict]:
    """Figure 14 rows for one benchmark."""
    return [{"instances": p.instances, **p.topdown}
            for p in architecture_sweep(benchmark, config, max_instances, suite)]


def l3_miss_scaling(benchmark: str, config: Optional[ExperimentConfig] = None,
                    max_instances: Optional[int] = None,
                    suite: Optional[ExperimentSuite] = None) -> list[dict]:
    """Figure 15 rows for one benchmark."""
    return [{"instances": p.instances, "l3_miss_rate": p.l3_miss_rate}
            for p in architecture_sweep(benchmark, config, max_instances, suite)]


def gpu_cache_scaling(benchmark: str, config: Optional[ExperimentConfig] = None,
                      max_instances: Optional[int] = None,
                      suite: Optional[ExperimentSuite] = None) -> list[dict]:
    """Figure 16 rows for one benchmark (None when the PMU is unreadable)."""
    return [{"instances": p.instances,
             "gpu_l2_miss_rate": p.gpu_l2_miss_rate,
             "gpu_texture_miss_rate": p.gpu_texture_miss_rate}
            for p in architecture_sweep(benchmark, config, max_instances, suite)]
