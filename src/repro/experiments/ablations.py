"""Design-choice ablations called out in DESIGN.md.

These are not figures from the paper; they justify the modelling choices
of this reproduction:

* the effective-rate contention model — disabling the contention levers
  should make colocated performance unrealistically flat;
* the double-buffered GPU time queries (see
  :func:`repro.experiments.overhead.query_buffer_ablation`);
* the activity coupling between input generation and workload intensity —
  without it the Table 3 methodology comparison loses its signal.

The contention-free machine is declared through the ``no_contention``
entry of :data:`repro.scenarios.machines.MACHINE_SPECS`, so the ablation is
four plain host jobs and parallelizes like any other experiment.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.executor import ExperimentSuite, run_jobs
from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

__all__ = ["contention_model_ablation", "contention_jobs",
           "contention_from_results"]


def contention_jobs(benchmark: str, instances: int,
                    config: ExperimentConfig) -> list[ExperimentJob]:
    """Single and loaded runs on the realistic and contention-free machines."""
    return [
        ExperimentJob(Scenario.single(benchmark, config, seed_offset=800)),
        ExperimentJob(Scenario.colocated(benchmark, instances, config,
                                         seed_offset=801)),
        ExperimentJob(Scenario.single(benchmark, config, seed_offset=802,
                                      machine="no_contention")),
        ExperimentJob(Scenario.colocated(benchmark, instances, config,
                                         seed_offset=803,
                                         machine="no_contention")),
    ]


def contention_from_results(results) -> dict[str, float]:
    single, loaded, flat_single, flat_loaded = results
    realistic_inflation = _mean_rtt(loaded) / max(_mean_rtt(single), 1e-9)
    flat_inflation = _mean_rtt(flat_loaded) / max(_mean_rtt(flat_single), 1e-9)
    return {
        "realistic_rtt_inflation": realistic_inflation,
        "contention_free_rtt_inflation": flat_inflation,
    }


def contention_model_ablation(benchmark: str = "D2", instances: int = 4,
                              config: Optional[ExperimentConfig] = None,
                              suite: Optional[ExperimentSuite] = None,
                              ) -> dict[str, float]:
    """Compare colocated RTT inflation with and without the contention model."""
    config = config or ExperimentConfig()
    results = run_jobs(contention_jobs(benchmark, instances, config), suite)
    return contention_from_results(results)


def _mean_rtt(result) -> float:
    reports = result.reports
    if not reports:
        return 0.0
    return sum(r.rtt.mean for r in reports) / len(reports)
