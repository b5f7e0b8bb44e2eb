"""Figure 15: L3 cache miss rates under colocation.

Paper result: standalone L3 miss rates already exceed 70% (graphics
drivers use uncached write-combining buffers for CPU→GPU uploads), and
the rates climb further as instances colocate — evidence of memory-system
contention.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.architecture import (
    architecture_jobs,
    architecture_points_from_results,
)

L3_BENCHMARKS = ("STK", "RE", "IM")


def test_fig15_l3_miss_rates(benchmark, config, suite):
    def run():
        return {bench: architecture_points_from_results(
                    bench, run_jobs(architecture_jobs(bench, config), suite))
                for bench in L3_BENCHMARKS}

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("Figure 15: L3 miss rate vs. colocated instance count",
         ["bench", "instances", "L3 miss rate"],
         [[bench, point.instances, f"{point.l3_miss_rate:.2f}"]
          for bench, points in sweeps.items() for point in points],
         notes="Paper: > 70% even standalone, rising with colocation.")

    for bench, points in sweeps.items():
        rates = [point.l3_miss_rate for point in points]
        assert rates[0] > 0.70
        assert rates[-1] > rates[0]
        assert all(rate <= 1.0 for rate in rates)
        assert rates == sorted(rates)
