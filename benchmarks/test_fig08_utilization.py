"""Figure 8: single-instance CPU and GPU utilization per benchmark.

Paper result: benchmark CPU utilization spans 68% (Red Eclipse) to 266%
(Dota 2); the VNC server itself consumes 169-243% CPU; GPU utilization
spans 22-53%; CPU memory spans ~600 MB (Dota 2) to ~4 GB (InMind) and
GPU memory stays under ~800 MB.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments.figures import run_figure


def test_fig08_utilization(benchmark, config, suite):
    rows = benchmark.pedantic(
        lambda: run_figure("fig08", config, suite), rounds=1, iterations=1)

    emit("Figure 8: CPU / GPU utilization and memory footprints (single instance)",
         ["bench", "app CPU", "VNC CPU", "GPU", "CPU mem (MB)", "GPU mem (MB)"],
         [[row["benchmark"], f"{row['app_cpu_percent']:.0f}%",
           f"{row['vnc_cpu_percent']:.0f}%", f"{row['gpu_percent']:.0f}%",
           f"{row['cpu_memory_mb']:.0f}", f"{row['gpu_memory_mb']:.0f}"]
          for row in rows],
         notes="Paper: app CPU 68-266%, VNC CPU 169-243%, GPU 22-53%.")

    by_name = {row["benchmark"]: row for row in rows}
    # Shape checks from the paper's characterization.
    assert max(rows, key=lambda r: r["app_cpu_percent"])["benchmark"] == "D2"
    assert min(rows, key=lambda r: r["app_cpu_percent"])["benchmark"] == "RE"
    assert by_name["D2"]["app_cpu_percent"] > 200.0
    assert by_name["RE"]["app_cpu_percent"] < 120.0
    for row in rows:
        assert 15.0 < row["gpu_percent"] < 70.0
        assert row["vnc_cpu_percent"] > 80.0
        assert row["gpu_memory_mb"] <= 800.0
    assert max(rows, key=lambda r: r["cpu_memory_mb"])["benchmark"] == "IM"
    assert min(rows, key=lambda r: r["cpu_memory_mb"])["benchmark"] == "D2"
