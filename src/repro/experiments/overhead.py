"""Section 4: overhead of the performance analysis framework.

The framework's cost is measured by running each benchmark with the
instrumentation on and off (native TurboVNC) and comparing server FPS —
the native system provides no RTT readings, which is precisely why FPS is
the comparison metric.  The paper reports a 2.7% average FPS reduction
(5% maximum) with double-buffered GPU time queries, rising to ~10% when a
single query buffer forces the CPU to stall on query retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario
from repro.scenarios.variants import session_variant

__all__ = ["OverheadRow", "OverheadSummary", "overhead_jobs",
           "framework_overhead_from_results", "query_buffer_jobs",
           "query_buffer_from_results"]


@dataclass
class OverheadRow:
    """Per-benchmark FPS with and without the measurement framework."""

    benchmark: str
    native_fps: float
    instrumented_fps: float

    @property
    def overhead_percent(self) -> float:
        if self.native_fps <= 0:
            return 0.0
        return max(0.0, (self.native_fps - self.instrumented_fps)
                   / self.native_fps * 100.0)


@dataclass
class OverheadSummary:
    rows: list[OverheadRow] = field(default_factory=list)

    @property
    def mean_overhead_percent(self) -> float:
        if not self.rows:
            return 0.0
        return float(np.mean([row.overhead_percent for row in self.rows]))

    @property
    def max_overhead_percent(self) -> float:
        if not self.rows:
            return 0.0
        return float(max(row.overhead_percent for row in self.rows))


def overhead_jobs(benchmarks, config: ExperimentConfig,
                  double_buffered: bool = True) -> list[ExperimentJob]:
    """A (native, instrumented) scenario pair per benchmark, interleaved."""
    instrumented = session_variant("default" if double_buffered
                                   else "single_buffered")
    jobs = []
    for index, benchmark in enumerate(benchmarks):
        jobs.append(ExperimentJob(Scenario.single(
            benchmark, config, seed_offset=index,
            variant=session_variant("native"))))
        jobs.append(ExperimentJob(Scenario.single(
            benchmark, config, seed_offset=index, variant=instrumented)))
    return jobs


def framework_overhead_from_results(benchmarks, results) -> OverheadSummary:
    summary = OverheadSummary()
    for index, benchmark in enumerate(benchmarks):
        summary.rows.append(OverheadRow(
            benchmark=benchmark,
            native_fps=results[2 * index].reports[0].server_fps,
            instrumented_fps=results[2 * index + 1].reports[0].server_fps))
    return summary


def query_buffer_jobs(benchmark: str, config: ExperimentConfig,
                      ) -> list[ExperimentJob]:
    """Native plus double- and single-buffered instrumented runs."""
    return [
        ExperimentJob(Scenario.single(benchmark, config,
                                      variant=session_variant("native"))),
        ExperimentJob(Scenario.single(benchmark, config,
                                      variant=session_variant("default"))),
        ExperimentJob(Scenario.single(benchmark, config,
                                      variant=session_variant("single_buffered"))),
    ]


def query_buffer_from_results(results) -> dict[str, float]:
    """Design-choice ablation: double- vs single-buffered GPU time queries.

    Returns the FPS overhead (percent, against the native run) of each
    query-buffer configuration; the double-buffered scheme should cost
    noticeably less.
    """
    native, double, single = results
    native_fps = native.reports[0].server_fps

    overheads = {}
    for label, run in (("double_buffered", double), ("single_buffered", single)):
        fps = run.reports[0].server_fps
        overheads[label] = max(0.0, (native_fps - fps) / native_fps * 100.0)
    overheads["native_fps"] = native_fps
    return overheads
