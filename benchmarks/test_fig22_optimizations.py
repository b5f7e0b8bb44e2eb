"""Figures 21-22: the two frame-copy optimizations.

Paper result: memoizing XGetWindowAttributes and splitting the frame copy
into asynchronous start/finish halves improves server FPS by 57.7% on
average (115.2% maximum), improves client FPS by 7.4%, and reduces RTT by
8.5% on average.
"""

from __future__ import annotations

import numpy as np

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.figures import run_figure
from repro.experiments.optimizations import (
    optimization_ablation_from_results,
    optimization_ablation_jobs,
)


def test_fig22_optimized_frame_copy(benchmark, config, suite):
    def run():
        rows = run_figure("fig22", config, suite)
        ablation = optimization_ablation_from_results(
            "STK", run_jobs(optimization_ablation_jobs("STK", config), suite))
        return rows, ablation

    rows, ablation = benchmark.pedantic(run, rounds=1, iterations=1)

    def mean(key):
        return float(np.mean([row[key] for row in rows]))

    max_server_gain = max(row["server_fps_gain_pct"] for row in rows)
    emit("Figure 22: improvement from the two frame-copy optimizations",
         ["bench", "server FPS", "client FPS", "RTT reduction"],
         [[row["benchmark"], f"+{row['server_fps_gain_pct']:.1f}%",
           f"+{row['client_fps_gain_pct']:.1f}%",
           f"-{row['rtt_reduction_pct']:.1f}%"] for row in rows],
         notes=(f"means: server +{mean('server_fps_gain_pct'):.1f}% "
                f"(max +{max_server_gain:.1f}%), "
                f"client +{mean('client_fps_gain_pct'):.1f}%, "
                f"RTT -{mean('rtt_reduction_pct'):.1f}% "
                "(paper: +57.7% / +115.2% max / +7.4% / -8.5%)"))
    emit("Figure 21 ablation: each optimization alone (STK, server FPS gain)",
         ["variant", "server FPS gain"],
         [[label, f"+{gain:.1f}%"] for label, gain in ablation.items()])

    # Shape checks: large server-FPS win, modest client-FPS and RTT wins.
    assert mean("server_fps_gain_pct") > 30.0
    assert max_server_gain > 60.0
    assert mean("rtt_reduction_pct") > 2.0
    assert mean("client_fps_gain_pct") < mean("server_fps_gain_pct")
    assert all(row["server_fps_gain_pct"] > 10.0 for row in rows)
    # Both optimizations contribute; together they beat either alone.
    assert ablation["both"] >= max(ablation["memoize_xgwa_only"],
                                   ablation["two_step_copy_only"]) * 0.9
