"""Figure 14: Top-Down CPU cycle breakdown under colocation.

Paper result: every benchmark is back-end bound (long memory stalls, low
IPC) even running alone, and the back-end share grows further as more
instances colocate on the server.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.architecture import (
    architecture_jobs,
    architecture_points_from_results,
)

TOPDOWN_BENCHMARKS = ("STK", "D2")


def test_fig14_topdown_breakdown(benchmark, config, suite):
    def run():
        return {bench: architecture_points_from_results(
                    bench, run_jobs(architecture_jobs(bench, config), suite))
                for bench in TOPDOWN_BENCHMARKS}

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("Figure 14: Top-Down CPU cycle shares vs. instance count",
         ["bench", "instances", "retiring", "front-end", "back-end", "bad spec"],
         [[bench, point.instances,
           f"{point.topdown['retiring']:.2f}",
           f"{point.topdown['frontend_bound']:.2f}",
           f"{point.topdown['backend_bound']:.2f}",
           f"{point.topdown['bad_speculation']:.2f}"]
          for bench, points in sweeps.items() for point in points],
         notes="Paper: benchmarks are back-end (memory) bound; the back-end "
               "share grows with colocation.")

    for bench, points in sweeps.items():
        single, loaded = points[0], points[-1]
        shares = single.topdown
        assert abs(sum(shares.values()) - 1.0) < 1e-6
        assert shares["backend_bound"] > shares["retiring"]
        assert shares["backend_bound"] > 0.4
        assert loaded.topdown["backend_bound"] >= shares["backend_bound"]
