"""Figure 12: server processing time breakdown (PS / application / AS / CP).

Paper result: the application stages dominate the server time; PS, AS and
CP each stay under ~18 ms single-instance; the IPC stages (PS, AS) inflate
by up to ~96% under colocation, and every stage grows with more instances.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.scaling import scaling_jobs, scaling_points_from_results

SERVER_BENCHMARKS = ("STK", "D2", "ITP")


def test_fig12_server_breakdown(benchmark, config, suite):
    def run():
        return {bench: scaling_points_from_results(
                    bench, run_jobs(scaling_jobs(bench, config), suite))
                for bench in SERVER_BENCHMARKS}

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("Figure 12: server time breakdown vs. instance count (ms)",
         ["bench", "instances", "PS", "application", "AS", "CP"],
         [[bench, point.instances,
           f"{point.server_breakdown_ms.get('proxy_send_input', 0.0):.1f}",
           f"{point.server_breakdown_ms.get('application', 0.0):.1f}",
           f"{point.server_breakdown_ms.get('app_send_frame', 0.0):.1f}",
           f"{point.server_breakdown_ms.get('compression', 0.0):.1f}"]
          for bench, points in sweeps.items() for point in points],
         notes="Paper: application stages dominate; PS/AS/CP < 18 ms alone; "
               "IPC stages inflate up to ~96% under colocation.")

    for bench, points in sweeps.items():
        single, loaded = points[0], points[-1]
        breakdown = single.server_breakdown_ms
        assert breakdown["application"] > breakdown["proxy_send_input"]
        assert breakdown["application"] > breakdown["app_send_frame"]
        assert breakdown["proxy_send_input"] < 18.0
        assert breakdown["app_send_frame"] < 18.0
        # Every stage grows under colocation, IPC stages included.
        for key in ("proxy_send_input", "application", "app_send_frame", "compression"):
            assert loaded.server_breakdown_ms[key] >= breakdown[key] * 0.95
        assert loaded.server_breakdown_ms["app_send_frame"] > breakdown["app_send_frame"]
