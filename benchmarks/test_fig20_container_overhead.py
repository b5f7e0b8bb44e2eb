"""Figure 20: overhead of running the benchmarks in containers.

Paper result: containers cost little on average (~1.3% RTT, ~1.5% server
FPS, ~2.9% GPU render time) but individual configurations can reach
~8.5% RTT / 6% FPS, and a few configurations even run *faster* inside a
container because isolation reduces benchmark-vs-proxy interference.
"""

from __future__ import annotations

import numpy as np

from conftest import emit
from repro.experiments.figures import run_figure


def test_fig20_container_overhead(benchmark, config, suite):
    rows = benchmark.pedantic(
        lambda: run_figure("fig20", config, suite), rounds=1, iterations=1)

    def mean(key):
        return float(np.mean([row[key] for row in rows]))

    emit("Figure 20: container overhead per benchmark (negative = speed-up)",
         ["bench", "FPS overhead", "RTT overhead", "GPU render overhead"],
         [[row["benchmark"], f"{row['fps_overhead_pct']:+.1f}%",
           f"{row['rtt_overhead_pct']:+.1f}%",
           f"{row['gpu_render_overhead_pct']:+.1f}%"] for row in rows],
         notes=(f"means: FPS {mean('fps_overhead_pct'):+.1f}%, "
                f"RTT {mean('rtt_overhead_pct'):+.1f}%, "
                f"GPU {mean('gpu_render_overhead_pct'):+.1f}% "
                "(paper: 1.5% / 1.3% / 2.9%)"))

    # Average overheads are small; individual ones can be larger but bounded.
    assert abs(mean("fps_overhead_pct")) < 10.0
    assert abs(mean("rtt_overhead_pct")) < 10.0
    assert max(row["rtt_overhead_pct"] for row in rows) < 20.0
    assert mean("gpu_render_overhead_pct") >= 0.0
    # GPU virtualization never speeds rendering up.
    assert all(row["gpu_render_overhead_pct"] > -1.0 for row in rows)
