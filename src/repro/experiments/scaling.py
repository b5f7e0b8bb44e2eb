"""Figures 10–13: colocating one to four instances of the same benchmark.

* Figure 10 — server and client FPS for 1–4 instances;
* Figure 11 — mean RTT broken into input-network / server / frame-network;
* Figure 12 — server time broken into PS / application / AS / CP;
* Figure 13 — application time broken into AL / FC with RD alongside.

One testbed run per (benchmark, instance-count) produces all four views,
so the generator returns a combined record and the per-figure accessors
slice it.  :func:`scaling_jobs` declares those runs as experiment jobs;
:func:`scaling_points_from_results` folds the (possibly parallel or
cached) results back into :class:`ScalingPoint` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.reporting import mean_breakdown
from repro.experiments.executor import ExperimentSuite, run_jobs
from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

__all__ = ["ScalingPoint", "scaling_jobs", "scaling_points_from_results",
           "scaling_sweep", "fps_scaling", "rtt_breakdown_scaling",
           "server_breakdown_scaling", "application_breakdown_scaling"]


@dataclass
class ScalingPoint:
    """Aggregated measurements for N colocated instances of one benchmark."""

    benchmark: str
    instances: int
    server_fps: float
    client_fps: float
    rtt_ms: float
    rtt_breakdown_ms: dict[str, float] = field(default_factory=dict)
    server_breakdown_ms: dict[str, float] = field(default_factory=dict)
    application_breakdown_ms: dict[str, float] = field(default_factory=dict)


def scaling_jobs(benchmark: str, config: Optional[ExperimentConfig] = None,
                 max_instances: Optional[int] = None) -> list[ExperimentJob]:
    """One colocation run per instance count, as declarative jobs."""
    config = config or ExperimentConfig()
    max_instances = max_instances or config.max_instances
    return [ExperimentJob(Scenario.colocated(benchmark, count, config,
                                             seed_offset=count))
            for count in range(1, max_instances + 1)]


def scaling_points_from_results(benchmark: str, results) -> list[ScalingPoint]:
    """Fold the job results of :func:`scaling_jobs` into scaling points."""
    points = []
    for result in results:
        reports = result.reports
        points.append(ScalingPoint(
            benchmark=benchmark,
            instances=len(reports),
            server_fps=float(np.mean([r.server_fps for r in reports])),
            client_fps=float(np.mean([r.client_fps for r in reports])),
            rtt_ms=float(np.mean([r.rtt.mean for r in reports])) * 1e3,
            rtt_breakdown_ms=mean_breakdown(
                [r.rtt_breakdown for r in reports], scale=1e3),
            server_breakdown_ms=mean_breakdown(
                [r.server_breakdown for r in reports], scale=1e3),
            application_breakdown_ms=mean_breakdown(
                [r.application_breakdown for r in reports], scale=1e3),
        ))
    return points


def scaling_sweep(benchmark: str, config: Optional[ExperimentConfig] = None,
                  max_instances: Optional[int] = None,
                  suite: Optional[ExperimentSuite] = None) -> list[ScalingPoint]:
    """Run 1..max_instances copies of ``benchmark`` and aggregate per count."""
    jobs = scaling_jobs(benchmark, config, max_instances)
    return scaling_points_from_results(benchmark, run_jobs(jobs, suite))


def fps_scaling(benchmark: str, config: Optional[ExperimentConfig] = None,
                max_instances: Optional[int] = None,
                suite: Optional[ExperimentSuite] = None) -> list[dict[str, float]]:
    """Figure 10 rows for one benchmark."""
    return [{"instances": p.instances, "server_fps": p.server_fps,
             "client_fps": p.client_fps}
            for p in scaling_sweep(benchmark, config, max_instances, suite)]


def rtt_breakdown_scaling(benchmark: str, config: Optional[ExperimentConfig] = None,
                          max_instances: Optional[int] = None,
                          suite: Optional[ExperimentSuite] = None) -> list[dict]:
    """Figure 11 rows for one benchmark."""
    return [{"instances": p.instances, "rtt_ms": p.rtt_ms,
             **{f"{k}_ms": v for k, v in p.rtt_breakdown_ms.items()}}
            for p in scaling_sweep(benchmark, config, max_instances, suite)]


def server_breakdown_scaling(benchmark: str,
                             config: Optional[ExperimentConfig] = None,
                             max_instances: Optional[int] = None,
                             suite: Optional[ExperimentSuite] = None) -> list[dict]:
    """Figure 12 rows for one benchmark."""
    return [{"instances": p.instances,
             **{f"{k}_ms": v for k, v in p.server_breakdown_ms.items()}}
            for p in scaling_sweep(benchmark, config, max_instances, suite)]


def application_breakdown_scaling(benchmark: str,
                                  config: Optional[ExperimentConfig] = None,
                                  max_instances: Optional[int] = None,
                                  suite: Optional[ExperimentSuite] = None,
                                  ) -> list[dict]:
    """Figure 13 rows for one benchmark."""
    return [{"instances": p.instances,
             **{f"{k}_ms": v for k, v in p.application_breakdown_ms.items()}}
            for p in scaling_sweep(benchmark, config, max_instances, suite)]
