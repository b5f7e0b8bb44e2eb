"""Figure 17: per-instance power when colocating 1–4 instances.

Adding an instance raises total server power only modestly (the idle
floor and the GPU dominate), so the power attributable to each instance
drops by roughly 33%, 50% and 61% at two, three and four instances —
the energy argument for cloud consolidation in Section 5.2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

__all__ = ["PowerPoint", "power_jobs", "power_points_from_results"]


@dataclass
class PowerPoint:
    """Power measurements for one (benchmark, instance-count) configuration."""

    benchmark: str
    instances: int
    total_power_watts: float
    per_instance_power_watts: float
    energy_joules: float

    def reduction_vs(self, single: "PowerPoint") -> float:
        """Per-instance power reduction (%) relative to the 1-instance run."""
        if single.per_instance_power_watts <= 0:
            return 0.0
        return (1.0 - self.per_instance_power_watts
                / single.per_instance_power_watts) * 100.0


def power_jobs(benchmark: str, config: Optional[ExperimentConfig] = None,
               max_instances: Optional[int] = None) -> list[ExperimentJob]:
    """The Figure-17 colocation runs, as declarative jobs."""
    config = config or ExperimentConfig()
    max_instances = max_instances or config.max_instances
    return [ExperimentJob(Scenario.colocated(benchmark, count, config,
                                             seed_offset=200 + count))
            for count in range(1, max_instances + 1)]


def power_points_from_results(benchmark: str, results) -> list[PowerPoint]:
    return [PowerPoint(
        benchmark=benchmark,
        instances=len(result.reports),
        total_power_watts=result.average_power_watts,
        per_instance_power_watts=result.per_instance_power_watts,
        energy_joules=result.energy_joules,
    ) for result in results]

