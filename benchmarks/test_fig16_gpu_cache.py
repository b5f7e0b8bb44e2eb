"""Figure 16: GPU L2 and texture cache miss rates under colocation.

Paper result: most benchmarks have moderate GPU cache miss rates alone;
the shared L2's miss rate rises with colocation (frames from different
instances overlap in the GPU's internal pipeline) while the private
texture caches stay flat; 0 A.D. (OpenGL 1.3) cannot be measured because
the vendor PMU tools do not support that context version.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.architecture import (
    architecture_jobs,
    architecture_points_from_results,
)

GPU_BENCHMARKS = ("RE", "IM", "0AD")


def test_fig16_gpu_cache_miss_rates(benchmark, config, suite):
    def run():
        return {bench: architecture_points_from_results(
                    bench, run_jobs(architecture_jobs(bench, config), suite))
                for bench in GPU_BENCHMARKS}

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)

    def fmt(value):
        return "n/a" if value is None else f"{value:.2f}"

    emit("Figure 16: GPU L2 / texture miss rates vs. instance count",
         ["bench", "instances", "L2 miss", "texture miss"],
         [[bench, point.instances, fmt(point.gpu_l2_miss_rate),
           fmt(point.gpu_texture_miss_rate)]
          for bench, points in sweeps.items() for point in points],
         notes="Paper: shared L2 misses rise with colocation, private texture "
               "caches do not; 0AD is unreadable (OpenGL 1.3).")

    for bench in ("RE", "IM"):
        points = sweeps[bench]
        assert points[-1].gpu_l2_miss_rate > points[0].gpu_l2_miss_rate
        assert points[-1].gpu_texture_miss_rate == pytest.approx(
            points[0].gpu_texture_miss_rate, abs=0.05)
        assert points[0].gpu_l2_miss_rate < 0.65    # "moderate" standalone
    # InMind has the highest standalone GPU L2 miss rate of the suite.
    assert sweeps["IM"][0].gpu_l2_miss_rate > sweeps["RE"][0].gpu_l2_miss_rate
    # 0 A.D.'s GPU counters are unavailable.
    assert all(point.gpu_l2_miss_rate is None for point in sweeps["0AD"])
