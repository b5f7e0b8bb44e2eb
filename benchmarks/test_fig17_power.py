"""Figure 17: per-instance power when colocating 1-4 instances.

Paper result: each added instance raises total server power by less than
~20-25%, so the power attributable to each instance drops by roughly 33%,
50% and 61% at two, three and four instances.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.power import power_jobs, power_points_from_results

POWER_BENCHMARKS = ("RE", "D2")


def test_fig17_per_instance_power(benchmark, config, suite):
    def run():
        return {bench: power_points_from_results(
                    bench, run_jobs(power_jobs(bench, config), suite))
                for bench in POWER_BENCHMARKS}

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("Figure 17: per-instance power vs. colocated instance count",
         ["bench", "instances", "total W", "per-instance W", "reduction vs 1"],
         [[bench, point.instances, f"{point.total_power_watts:.0f}",
           f"{point.per_instance_power_watts:.0f}",
           f"{point.reduction_vs(points[0]):.0f}%"]
          for bench, points in sweeps.items() for point in points],
         notes="Paper reductions: ~33% / 50% / 61% at 2 / 3 / 4 instances.")

    for bench, points in sweeps.items():
        single = points[0]
        reductions = [point.reduction_vs(single) for point in points[1:]]
        assert reductions == sorted(reductions)
        assert reductions[0] > 20.0
        assert reductions[-1] > 45.0
        for earlier, later in zip(points, points[1:]):
            assert later.total_power_watts < earlier.total_power_watts * 1.30
