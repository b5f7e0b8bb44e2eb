"""Figure 11: RTT breakdown (input network / server / frame network), 1-4 instances.

Paper result: input-network time is tiny (<10 ms), frame-network time is
14-35 ms and does not grow with colocation, and the server processing
time (61-106 ms single-instance) dominates the RTT and grows with the
number of colocated instances.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.scaling import scaling_jobs, scaling_points_from_results

RTT_BENCHMARKS = ("0AD", "RE", "IM")


def test_fig11_rtt_breakdown(benchmark, config, suite):
    def run():
        return {bench: scaling_points_from_results(
                    bench, run_jobs(scaling_jobs(bench, config), suite))
                for bench in RTT_BENCHMARKS}

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("Figure 11: RTT breakdown vs. colocated instance count (ms)",
         ["bench", "instances", "RTT", "input net (CS)", "server", "frame net (SS)"],
         [[bench, point.instances, f"{point.rtt_ms:.1f}",
           f"{point.rtt_breakdown_ms.get('input_network', 0.0):.1f}",
           f"{point.rtt_breakdown_ms.get('server', 0.0):.1f}",
           f"{point.rtt_breakdown_ms.get('frame_network', 0.0):.1f}"]
          for bench, points in sweeps.items() for point in points],
         notes="Paper: CS < 10 ms, SS 14-35 ms (flat), server time dominates "
               "and grows with colocation.")

    for bench, points in sweeps.items():
        single, loaded = points[0], points[-1]
        assert single.rtt_breakdown_ms["input_network"] < 10.0
        assert 5.0 < single.rtt_breakdown_ms["frame_network"] < 40.0
        assert single.rtt_breakdown_ms["server"] > \
            single.rtt_breakdown_ms["frame_network"]
        # Network time does not blow up with colocation; server time does.
        assert loaded.rtt_breakdown_ms["frame_network"] < \
            single.rtt_breakdown_ms["frame_network"] * 2.0
        assert loaded.rtt_breakdown_ms["server"] > single.rtt_breakdown_ms["server"]
        assert loaded.rtt_ms > single.rtt_ms
