"""Experiment generators: one per table/figure of the paper's evaluation.

Every module exposes functions that run the relevant testbed
configuration and return structured rows mirroring what the paper
reports; the ``benchmarks/`` harnesses call them and print the rows.
Durations and training budgets are parameters so the same generators can
run in a quick CI-friendly mode or a longer, lower-variance mode.

| Paper artefact | Module / function |
|---|---|
| Figure 6 / Table 3 (methodology accuracy) | :func:`repro.experiments.accuracy.methodology_accuracy` |
| Figure 7 (inference times)                | :func:`repro.experiments.accuracy.inference_times` |
| Section 4 overhead                        | :func:`repro.experiments.overhead.framework_overhead` |
| Figure 8 (CPU/GPU utilization)            | :func:`repro.experiments.characterization.utilization` |
| Figure 9 (network/PCIe bandwidth)         | :func:`repro.experiments.characterization.bandwidth` |
| Figures 10–13 (FPS/RTT/server/app scaling)| :mod:`repro.experiments.scaling` |
| Figures 14–16 (Top-Down, L3, GPU caches)  | :mod:`repro.experiments.architecture` |
| Figure 17 (per-instance power)            | :func:`repro.experiments.power.per_instance_power` |
| Figures 18–19 (mixed pairs)               | :mod:`repro.experiments.mixed` |
| Figure 20 (container overhead)            | :func:`repro.experiments.containers.container_overhead` |
| Figures 21–22 (optimizations)             | :func:`repro.experiments.optimizations.optimization_improvements` |
| Table 4 (feature comparison)              | :func:`repro.experiments.feature_matrix.feature_matrix` |

Execution goes through the suite subsystem: every generator expresses its
testbed runs as declarative :class:`~repro.scenarios.Scenario` values
wrapped in :class:`~repro.experiments.jobs.ExperimentJob` lists that an
:class:`~repro.experiments.executor.ExperimentSuite` runs serially,
across local worker processes, over TCP to a queue server
(:mod:`repro.experiments.server` behind ``python -m repro.experiments
serve``, keeping its queue in a :mod:`repro.experiments.queue`
directory, reached by :class:`~repro.experiments.socket_queue.SocketQueue`
clients and heartbeating ``worker --addr`` processes, optionally
autoscaled by a :class:`~repro.experiments.coordinator.Coordinator`), or
out of the
content-addressed SQLite result database
(:mod:`repro.experiments.store`) — always with bit-identical results,
submitted in the caller's order.  ``python -m repro.experiments``
exposes the whole registry (plus a ``scenario`` subcommand for running
ad-hoc scenario specs and a ``results`` subcommand for listing,
showing, diffing and exporting stored results) on the command line (see
:mod:`repro.experiments.figures`).
"""

from repro.experiments.accuracy import run_custom
from repro.experiments.executor import (
    BACKENDS,
    ExperimentSuite,
    default_suite,
    run_jobs,
)
from repro.experiments.store import ResultStore, diff_result_sets
from repro.experiments.jobs import ExperimentJob, execute_job
from repro.experiments.coordinator import Coordinator
from repro.experiments.server import QueueServer
from repro.experiments.socket_queue import SocketQueue
from repro.experiments.worker import run_worker, spawn_worker
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.mixes import n_way_mixes
from repro.scenarios.scenario import Placement, Scenario, SeedPolicy
from repro.scenarios.variants import SessionVariant, session_variant

__all__ = [
    "BACKENDS",
    "Coordinator",
    "ExperimentConfig",
    "ExperimentJob",
    "ExperimentSuite",
    "Placement",
    "QueueServer",
    "ResultStore",
    "Scenario",
    "SeedPolicy",
    "SessionVariant",
    "SocketQueue",
    "default_suite",
    "diff_result_sets",
    "execute_job",
    "n_way_mixes",
    "run_custom",
    "run_jobs",
    "run_worker",
    "session_variant",
    "spawn_worker",
]
