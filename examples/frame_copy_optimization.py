#!/usr/bin/env python3
"""Reproduce the Section 6 frame-copy optimizations on one benchmark.

The characterization identifies the frame-copy (FC) stage — VirtualGL
reading the rendered frame back over PCIe, preceded by a gratuitous
XGetWindowAttributes round trip — as the dominant application-side cost.
This example runs SuperTuxKart four times: baseline, each optimization
alone, and both together, and prints the server/client FPS and RTT
changes (Figure 22) plus the per-stage application breakdown that explains
them (Figure 13 before/after).

Run with:  python examples/frame_copy_optimization.py
"""

from __future__ import annotations

from repro.core.reporting import format_table
from repro.optimizations import OPTIMIZATIONS
from repro.scenarios import Scenario, session_variant
from repro.scenarios.config import ExperimentConfig

BENCHMARK = "STK"


def main() -> None:
    config = ExperimentConfig(seed=5, duration_s=15.0, warmup_s=2.0)

    print("The two Section-6 optimizations:")
    for optimization in OPTIMIZATIONS:
        print(f"  * {optimization.name}: {optimization.description}")
    print()

    variants = {
        "baseline": session_variant("default"),
        "memoized XGetWindowAttributes": session_variant("memoize_xgwa"),
        "two-step frame copy": session_variant("two_step_copy"),
        "both optimizations": session_variant("optimized"),
    }

    rows = []
    baseline_report = None
    for label, variant in variants.items():
        result = Scenario.single(BENCHMARK, config, variant=variant).run()
        report = result.reports[0]
        if baseline_report is None:
            baseline_report = report
        app = report.application_breakdown
        rows.append([
            label,
            f"{report.server_fps:.1f}",
            f"{(report.server_fps / baseline_report.server_fps - 1) * 100:+.1f}%",
            f"{report.client_fps:.1f}",
            f"{report.rtt.mean * 1e3:.0f}",
            f"{app.get('application_logic', 0.0) * 1e3:.1f}",
            f"{app.get('frame_copy', 0.0) * 1e3:.1f}",
        ])

    print(format_table(
        ["variant", "server FPS", "vs baseline", "client FPS", "RTT (ms)",
         "AL (ms)", "FC (ms)"],
        rows,
        title=f"Frame-copy optimizations on {BENCHMARK}"))
    print()
    print("Paper result (suite average): +57.7% server FPS (max +115.2%),")
    print("+7.4% client FPS, -8.5% RTT; the frame-copy stage shrinks from the")
    print("largest application-side component to a negligible one.")


if __name__ == "__main__":
    main()
