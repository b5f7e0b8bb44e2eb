"""Figure 19: Dota 2's sensitivity to different co-runners.

Paper result: Dota 2's performance loss and cache-miss increases vary a
lot with the co-located benchmark — SuperTuxKart causes the most
contention and 0 A.D. the least — and the CPU-cache and GPU-cache
contentiousness of a co-runner are correlated.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments.figures import run_figure


def test_fig19_dota2_contentiousness(benchmark, config, suite):
    rows = benchmark.pedantic(
        lambda: run_figure("fig19", config, suite), rounds=1, iterations=1)

    def fmt(value):
        return "n/a" if value is None else f"{value:+.3f}"

    emit("Figure 19: Dota 2 vs. each co-runner",
         ["co-runner", "perf loss", "CPU L3 miss increase", "GPU L2 miss increase"],
         [[row["co_runner"], f"{row['performance_loss_percent']:.1f}%",
           fmt(row["cpu_cache_miss_increase"]), fmt(row["gpu_cache_miss_increase"])]
          for row in rows],
         notes="Paper: STK is the most contentious co-runner, 0AD the least; "
               "CPU and GPU cache contentiousness correlate.")

    by_runner = {row["co_runner"]: row for row in rows}
    losses = [row["performance_loss_percent"] for row in rows]
    cache_increases = [row["cpu_cache_miss_increase"] for row in rows]
    # Contentiousness varies meaningfully across co-runners.
    assert max(losses) - min(losses) > 2.0
    # SuperTuxKart pressures the shared cache hierarchy hardest, 0 A.D. least.
    assert by_runner["STK"]["cpu_cache_miss_increase"] >= max(cache_increases) - 1e-9
    assert by_runner["0AD"]["cpu_cache_miss_increase"] <= min(cache_increases) + 1e-9
    # Every co-runner hurts at least somewhat.
    assert all(loss > 0.0 for loss in losses)
