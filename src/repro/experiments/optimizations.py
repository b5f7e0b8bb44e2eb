"""Figures 21–22: the frame-copy optimizations' performance impact.

Each benchmark is run with the baseline interposer and again with the two
Section-6 optimizations (window-attribute memoization and the two-step
asynchronous frame copy).  The paper reports +57.7% server FPS on average
(+115.2% max), +7.4% client FPS, and −8.5% RTT.  An ablation variant runs
each optimization alone so their individual contributions are visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario
from repro.scenarios.variants import SessionVariant

__all__ = ["OptimizationRow", "optimization_jobs",
           "optimization_rows_from_results", "optimization_ablation_jobs",
           "optimization_ablation_from_results"]

#: The Figure-21 ablation variants: each optimization alone, then both.
_ABLATION_VARIANTS = {
    "memoize_xgwa_only": ("memoize_xgwa",),
    "two_step_copy_only": ("two_step_copy",),
    "both": ("memoize_xgwa", "two_step_copy"),
}


@dataclass
class OptimizationRow:
    """Baseline vs. optimized measurements for one benchmark."""

    benchmark: str
    baseline_server_fps: float
    optimized_server_fps: float
    baseline_client_fps: float
    optimized_client_fps: float
    baseline_rtt_ms: float
    optimized_rtt_ms: float

    @property
    def server_fps_improvement_percent(self) -> float:
        if self.baseline_server_fps <= 0:
            return 0.0
        return (self.optimized_server_fps / self.baseline_server_fps - 1.0) * 100.0

    @property
    def client_fps_improvement_percent(self) -> float:
        if self.baseline_client_fps <= 0:
            return 0.0
        return (self.optimized_client_fps / self.baseline_client_fps - 1.0) * 100.0

    @property
    def rtt_reduction_percent(self) -> float:
        if self.baseline_rtt_ms <= 0:
            return 0.0
        return (1.0 - self.optimized_rtt_ms / self.baseline_rtt_ms) * 100.0


def _pair_jobs(benchmark: str, config: ExperimentConfig, seed_offset: int,
               optimized: SessionVariant) -> list[ExperimentJob]:
    """The (baseline, optimized) scenario pair for one benchmark."""
    return [
        ExperimentJob(Scenario.single(benchmark, config,
                                      seed_offset=seed_offset)),
        ExperimentJob(Scenario.single(benchmark, config,
                                      seed_offset=seed_offset,
                                      variant=optimized)),
    ]


def _row_from_pair(benchmark: str, baseline, optimized) -> OptimizationRow:
    baseline_report = baseline.reports[0]
    optimized_report = optimized.reports[0]
    return OptimizationRow(
        benchmark=benchmark,
        baseline_server_fps=baseline_report.server_fps,
        optimized_server_fps=optimized_report.server_fps,
        baseline_client_fps=baseline_report.client_fps,
        optimized_client_fps=optimized_report.client_fps,
        baseline_rtt_ms=baseline_report.rtt.mean * 1e3,
        optimized_rtt_ms=optimized_report.rtt.mean * 1e3,
    )


def optimization_jobs(benchmarks, config: ExperimentConfig) -> list[ExperimentJob]:
    """A (baseline, both-optimizations) job pair per benchmark."""
    jobs = []
    for index, benchmark in enumerate(benchmarks):
        jobs.extend(_pair_jobs(benchmark, config, 700 + index,
                               SessionVariant.optimized()))
    return jobs


def optimization_rows_from_results(benchmarks,
                                   results) -> list[OptimizationRow]:
    return [_row_from_pair(benchmark, results[2 * index], results[2 * index + 1])
            for index, benchmark in enumerate(benchmarks)]


def optimization_ablation_jobs(benchmark: str,
                               config: ExperimentConfig) -> list[ExperimentJob]:
    """A (baseline, optimized) job pair per ablation variant.

    The three baselines are the same job, so a suite runs it once.
    """
    jobs = []
    for keys in _ABLATION_VARIANTS.values():
        jobs.extend(_pair_jobs(benchmark, config, 750,
                               SessionVariant.optimized(keys)))
    return jobs


def optimization_ablation_from_results(benchmark: str,
                                       results) -> dict[str, float]:
    """Ablation: each optimization alone vs. both together (server FPS gain %)."""
    gains = {}
    for index, label in enumerate(_ABLATION_VARIANTS):
        row = _row_from_pair(benchmark, results[2 * index],
                             results[2 * index + 1])
        gains[label] = row.server_fps_improvement_percent
    return gains
