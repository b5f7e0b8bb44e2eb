"""Figure 13: application time breakdown (AL / FC, with RD alongside).

Paper result: many benchmarks spend most of their application time copying
frames (the FC stage) rather than computing game logic; GPU rendering
overlaps with the CPU stages and is never the bottleneck; AL grows by up
to ~235% and RD by ~133% at four colocated instances.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.scaling import scaling_jobs, scaling_points_from_results

APP_BENCHMARKS = ("STK", "RE", "IM")


def test_fig13_application_breakdown(benchmark, config, suite):
    def run():
        return {bench: scaling_points_from_results(
                    bench, run_jobs(scaling_jobs(bench, config), suite))
                for bench in APP_BENCHMARKS}

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("Figure 13: application time breakdown vs. instance count (ms)",
         ["bench", "instances", "AL", "FC", "RD (GPU)"],
         [[bench, point.instances,
           f"{point.application_breakdown_ms.get('application_logic', 0.0):.1f}",
           f"{point.application_breakdown_ms.get('frame_copy', 0.0):.1f}",
           f"{point.application_breakdown_ms.get('gpu_render', 0.0):.1f}"]
          for bench, points in sweeps.items() for point in points],
         notes="Paper: the frame copy dominates the application time; "
               "AL and RD inflate substantially at 4 instances.")

    for bench, points in sweeps.items():
        single, loaded = points[0], points[-1]
        breakdown = single.application_breakdown_ms
        # The frame copy is a first-class component (the Section 6 target).
        assert breakdown["frame_copy"] > 8.0
        # AL and RD inflate under colocation.
        assert loaded.application_breakdown_ms["application_logic"] > \
            breakdown["application_logic"]
        assert loaded.application_breakdown_ms["gpu_render"] > breakdown["gpu_render"]
    # For the low-logic shooter the copy even exceeds the game logic itself.
    re_single = sweeps["RE"][0].application_breakdown_ms
    assert re_single["frame_copy"] > re_single["application_logic"]
