"""Section 4: overhead of Pictor's performance analysis framework.

Paper result: enabling the measurement framework reduces FPS by 2.7% on
average (5% maximum); without the double-buffered GPU time queries the
overhead grows to ~10%.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.overhead import (
    framework_overhead_from_results,
    overhead_jobs,
    query_buffer_from_results,
    query_buffer_jobs,
)

OVERHEAD_BENCHMARKS = ("STK", "RE", "D2", "ITP")


def test_sec4_framework_overhead(benchmark, config, suite):
    def run():
        summary = framework_overhead_from_results(
            OVERHEAD_BENCHMARKS,
            run_jobs(overhead_jobs(OVERHEAD_BENCHMARKS, config), suite))
        ablation = query_buffer_from_results(
            run_jobs(query_buffer_jobs("STK", config), suite))
        return summary, ablation

    summary, ablation = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("Section 4: FPS overhead of the measurement framework",
         ["bench", "native FPS", "instrumented FPS", "overhead"],
         [[row.benchmark, f"{row.native_fps:.1f}", f"{row.instrumented_fps:.1f}",
           f"{row.overhead_percent:.1f}%"] for row in summary.rows],
         notes=(f"mean {summary.mean_overhead_percent:.1f}% / "
                f"max {summary.max_overhead_percent:.1f}% "
                "(paper: 2.7% mean, 5% max)"))
    emit("Section 4 ablation: GPU time-query buffering",
         ["configuration", "FPS overhead"],
         [["double_buffered", f"{ablation['double_buffered']:.1f}%"],
          ["single_buffered", f"{ablation['single_buffered']:.1f}%"]],
         notes="Paper: up to ~10% without the double buffer.")

    assert summary.mean_overhead_percent < 6.0
    assert summary.max_overhead_percent < 10.0
    assert ablation["single_buffered"] >= ablation["double_buffered"]
