"""Experiment generators: one per table/figure of the paper's evaluation.

Each figure module builds the testbed runs an artefact needs as
declarative :class:`~repro.scenarios.Scenario` values wrapped in
:class:`~repro.experiments.jobs.ExperimentJob` lists (its ``*_jobs``
functions) and folds the results into rows mirroring what the paper
reports (its ``*_from_results`` functions); no figure module runs
anything.  :data:`repro.experiments.figures.FIGURES` pairs each
artefact's jobs with its fold, and
:func:`~repro.experiments.figures.run_figure` is the one path from a
figure to its rows.  Durations and training budgets are parameters, so
the same generators run in a quick CI-friendly mode or a longer,
lower-variance mode.

| Paper artefact | ``--figure`` key | Module |
|---|---|---|
| Figure 6 / Table 3 (methodology accuracy) | ``fig06``, ``fig06-split`` | :mod:`repro.experiments.accuracy` |
| Figure 7 (inference times)                | ``fig07``    | :mod:`repro.experiments.accuracy` |
| Section 4 overhead                        | ``sec4``     | :mod:`repro.experiments.overhead` |
| Figures 8–9 (utilization, bandwidth)      | ``fig08``, ``fig09`` | :mod:`repro.experiments.characterization` |
| Figures 10–13 (FPS/RTT/server/app scaling)| ``fig10``–``fig13`` | :mod:`repro.experiments.scaling` |
| Figures 14–16 (Top-Down, L3, GPU caches)  | ``fig14``–``fig16`` | :mod:`repro.experiments.architecture` |
| Figure 17 (per-instance power)            | ``fig17``    | :mod:`repro.experiments.power` |
| Figures 18–19, 3/4-way mixes              | ``fig18``, ``fig19``, ``nway`` | :mod:`repro.experiments.mixed` |
| Figure 20 (container overhead)            | ``fig20``    | :mod:`repro.experiments.containers` |
| Figures 21–22 (optimizations)             | ``fig22``    | :mod:`repro.experiments.optimizations` |
| Contention-model ablation                 | ``ablation`` | :mod:`repro.experiments.ablations` |
| Table 4 (feature comparison)              | ``table4``   | :mod:`repro.experiments.feature_matrix` |

A caller whose job list is narrower than a figure's (a benchmark
harness sweeping a subset, a test) runs the module's ``*_jobs`` on the
executor itself and applies the module's fold.

Execution goes through the suite subsystem: an
:class:`~repro.experiments.executor.ExperimentSuite` runs job lists
serially, across local worker processes, over TCP to a queue server
(:mod:`repro.experiments.server` behind ``python -m repro.experiments
serve``, keeping its queue as rows in SQLite
(:mod:`repro.experiments.queue`), reached by
:class:`~repro.experiments.socket_queue.SocketQueue` clients and
heartbeating ``worker --addr`` processes, optionally autoscaled by a
:class:`~repro.experiments.coordinator.Coordinator`), or out of the
content-addressed SQLite result database
(:mod:`repro.experiments.store`) — always with bit-identical results,
submitted in the caller's order.  ``python -m repro.experiments``
exposes the whole registry (plus a ``scenario`` subcommand for running
ad-hoc scenario specs and a ``results`` subcommand for listing,
showing, diffing and exporting stored results) on the command line.
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
