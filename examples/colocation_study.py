#!/usr/bin/env python3
"""Colocation study: consolidate several 3D applications on one server.

This example reproduces the Section 5.2 / 5.3 style analysis that
motivates cloud consolidation:

* sweep one benchmark from one to four colocated instances and report
  client FPS, RTT, per-instance power and the architecture-level signs of
  contention (L3 and GPU-L2 miss rates);
* run a mixed pair of two different benchmarks and compare its energy
  against running the two applications on separate servers.

The whole grid — four colocation levels plus the three energy-comparison
runs — is declared as experiment jobs and executed through one
:class:`~repro.experiments.executor.ExperimentSuite`, so it fans out over
worker processes and the results are identical to a serial run.

Run with:  PYTHONPATH=src python examples/colocation_study.py

To keep the runs (and catch regressions between two checkouts), give the
suite a ``cache_dir``: every result lands in a SQLite result database
(``<cache_dir>/results.sqlite``) that ``python -m repro.experiments
results diff A B`` compares metric by metric — two runs of this study
must report zero deltas.
"""

from __future__ import annotations

import os

from repro.core.reporting import format_table
from repro.experiments.executor import ExperimentSuite
from repro.experiments.jobs import ExperimentJob
from repro.experiments.mixed import pair_energy_from_results, pair_energy_jobs
from repro.scenarios import Scenario
from repro.scenarios.config import ExperimentConfig

BENCHMARK = "D2"           # Dota 2: the heaviest CPU consumer of the suite
MIXED_PAIR = ("RE", "ITP")


def main() -> None:
    config = ExperimentConfig(seed=11, duration_s=15.0, warmup_s=2.0)

    colocation_jobs = [
        ExperimentJob(Scenario.colocated(BENCHMARK, instances, config,
                                         seed_offset=instances))
        for instances in range(1, 5)
    ]
    workers = min(4, os.cpu_count() or 1)
    with ExperimentSuite(workers=workers) as suite:
        results = suite.run(colocation_jobs + pair_energy_jobs(MIXED_PAIR, config))
    colocation_results = results[:len(colocation_jobs)]
    saving = pair_energy_from_results(results[len(colocation_jobs):])

    rows = []
    baseline_per_instance_power = None
    for result in colocation_results:
        instances = len(result.reports)
        report = result.reports[0]
        mean_client_fps = result.mean_client_fps
        if baseline_per_instance_power is None:
            baseline_per_instance_power = result.per_instance_power_watts
        power_saving = (1.0 - result.per_instance_power_watts
                        / baseline_per_instance_power) * 100.0
        rows.append([
            instances,
            f"{mean_client_fps:.1f}",
            "yes" if mean_client_fps >= 25.0 else "no",
            f"{report.rtt.mean * 1e3:.0f}",
            f"{report.cpu_pmu['l3_miss_rate']:.2f}",
            f"{report.gpu_pmu['l2_miss_rate']:.2f}",
            f"{result.average_power_watts:.0f}",
            f"{result.per_instance_power_watts:.0f}",
            f"{power_saving:.0f}%",
        ])

    print(format_table(
        ["instances", "client FPS", ">=25 FPS", "RTT (ms)", "L3 miss",
         "GPU L2 miss", "total W", "W/instance", "power saving"],
        rows,
        title=f"Colocating 1-4 instances of {BENCHMARK} on one server"))
    print()
    print("Observations expected from the paper: FPS degrades and RTT grows with")
    print("colocation while cache miss rates climb (contention), yet per-instance")
    print("power drops by roughly a third to two thirds — the consolidation win.")
    print()

    print(format_table(
        ["configuration", "power (W)"],
        [[f"{MIXED_PAIR[0]} + {MIXED_PAIR[1]} sharing one server",
          f"{saving['shared_power_watts']:.0f}"],
         ["each on its own server (sum)", f"{saving['separate_power_watts']:.0f}"]],
        title="Mixed-pair energy comparison (Section 5.3)"))
    print(f"Energy saving from sharing: {saving['energy_saving_percent']:.0f}% "
          "(paper: at least ~37%)")


if __name__ == "__main__":
    main()
