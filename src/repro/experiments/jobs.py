"""Declarative experiment jobs: the unit of work of the execution subsystem.

An :class:`ExperimentJob` is now a thin wrapper around the canonical
:class:`~repro.scenarios.Scenario` value: ``(scenario, kind, duration)``.
The scenario says *what* runs (placements, machine, session variant,
network, seed policy); ``kind`` selects the executor routine and
``duration`` optionally overrides the measurement interval.  A job stays
a frozen, fully picklable value object, so it can be shipped to a worker
process, hashed into a cache key, and compared for deduplication.

:func:`execute_job` is the single entry point that turns a job into a
result.  It is a module-level function (required by
:class:`concurrent.futures.ProcessPoolExecutor`) and is deterministic:
the same job produces a bit-identical result whether executed serially,
in a worker process, or replayed from the result store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

# A submodule import (not the repro.scenarios facade): this module loads
# while repro.scenarios may itself still be initializing.
from repro.scenarios.scenario import SCENARIO_SCHEMA_VERSION, Scenario, SeedPolicy
from repro.server.host import CloudHost, HostResult

__all__ = ["CACHE_SCHEMA_VERSION", "ExperimentJob", "execute_job"]

#: Bump when the stored result layout (or the scenario schema) changes.
#: Stored *inside* every result-store entry so stale provenance is
#: detected and logged instead of silently recomputed (see
#: :class:`~repro.experiments.store.ResultStore`).
CACHE_SCHEMA_VERSION = SCENARIO_SCHEMA_VERSION

#: Job kinds understood by :func:`execute_job`.
JOB_KINDS = ("host", "accuracy", "inference", "train", "methodology")


@dataclass(frozen=True)
class ExperimentJob:
    """One independent unit of experiment work: ``(scenario, kind, duration)``.

    ``kind`` selects the executor routine:

    ``host``
        Build the scenario's :class:`~repro.server.host.CloudHost`, run it
        for the measurement interval (``duration`` when given, else the
        scenario config's) and return the
        :class:`~repro.server.host.HostResult`.
    ``accuracy``
        Train the intelligent client for the scenario's single benchmark
        (the training seed is offset by the seed policy) and run the
        five-methodology Table-3 comparison, returning an
        :class:`~repro.experiments.accuracy.AccuracyRow`.
    ``inference``
        Train the intelligent client for the scenario's single benchmark
        and measure its CNN/LSTM inference times (one Figure-7 row, a dict).
    ``train``
        Train (or warm-load) the scenario's single benchmark's intelligent
        client into the content-addressed artefact registry
        (:mod:`repro.agents.artifacts`) and return a provenance summary
        dict.  The seed policy's offset is the training-seed offset.
    ``methodology``
        Run one of the five Table-3 methodologies standalone, returning a
        :class:`~repro.experiments.accuracy.MethodologyResult`.  The seed
        policy's offset names the methodology (0–4 = H/IC/DB/CH/SM — the
        fused path's fixed run offsets) and the placement's agent carries
        the artefact reference (``intelligent@K`` / ``deskbench@K``).
    """

    scenario: Scenario
    kind: str = "host"
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; "
                             f"known: {JOB_KINDS}")
        if self.kind != "host":
            if len(self.scenario.benchmarks) != 1:
                raise ValueError(f"{self.kind!r} jobs take exactly one "
                                 "benchmark")
            # The training executors only honor (benchmark, config, seed
            # offset); reject scenario knobs they would silently ignore —
            # otherwise the cache would stamp paper-machine bare-metal
            # results with the unhonored scenario.
            reference = Scenario(placements=self.scenario.placements,
                                 config=self.scenario.config,
                                 seed=SeedPolicy(
                                     offset=self.scenario.seed.offset))
            if self.scenario != reference:
                raise ValueError(
                    f"{self.kind!r} jobs support only default variant/"
                    "machine/network/host options and config-relative seeds")
            if self.kind == "methodology" and not 0 <= self.scenario.seed.offset <= 4:
                raise ValueError(
                    "'methodology' jobs encode the methodology in the seed "
                    "policy's offset (0..4 = H/IC/DB/CH/SM), got "
                    f"{self.scenario.seed.offset}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration override must be positive")

    def effective_duration(self) -> float:
        return (self.scenario.config.duration_s if self.duration is None
                else self.duration)

    def cost_units(self) -> float:
        """The job's a-priori cost (see :meth:`Scenario.cost_units`).

        Units are comparable within one job kind; the executor's
        :class:`~repro.experiments.cost.CostModel` carries per-kind rates
        (``accuracy``/``inference`` jobs spend their time training, not
        simulating), calibrated from the runtimes stamped into cache
        entries.
        """
        return self.scenario.cost_units(self.duration)

    # -- identity ---------------------------------------------------------------------
    def key(self) -> str:
        """Content hash identifying this job's result in the cache."""
        payload = {
            "kind": self.kind,
            "duration": self.duration,
            "scenario": {key: value
                         for key, value in self.scenario.to_dict().items()
                         if key != "schema"},
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """A short human-readable label for progress output."""
        label = self.scenario.describe()
        if self.kind != "host":
            label = f"{self.kind} {label}"
        if self.duration is not None:
            label += f" dur={self.duration:g}s"
        return label


def build_job_host(job: ExperimentJob) -> CloudHost:
    """Construct the (not yet run) testbed host a ``host`` job describes."""
    return job.scenario.build_host()


def _execute_host(job: ExperimentJob) -> HostResult:
    host = job.scenario.build_host()
    return host.run(duration=job.effective_duration(),
                    warmup=job.scenario.config.warmup_s,
                    fast_forward=job.scenario.config.fast_forward)


def _execute_accuracy(job: ExperimentJob):
    # Imported lazily: accuracy builds its job lists from this module.
    from repro.agents.artifacts import ArtifactSpec, resolve_artifact
    from repro.experiments.accuracy import methodology_accuracy
    scenario = job.scenario
    benchmark = scenario.benchmarks[0]
    artifact = resolve_artifact(ArtifactSpec.for_config(
        benchmark, scenario.config, seed_offset=scenario.seed.offset))
    return methodology_accuracy(benchmark, scenario.config,
                                client=artifact.client(),
                                recording=artifact.recording)


def _execute_inference(job: ExperimentJob):
    from repro.experiments.accuracy import inference_time_row
    scenario = job.scenario
    return inference_time_row(scenario.benchmarks[0], scenario.config,
                              index=scenario.seed.offset)


def _execute_train(job: ExperimentJob):
    from repro.experiments.accuracy import train_for_job
    scenario = job.scenario
    return train_for_job(scenario.benchmarks[0], scenario.config,
                         seed_offset=scenario.seed.offset)


def _execute_methodology(job: ExperimentJob):
    from repro.experiments.accuracy import methodology_result_for_job
    return methodology_result_for_job(job)


_EXECUTORS = {
    "host": _execute_host,
    "accuracy": _execute_accuracy,
    "inference": _execute_inference,
    "train": _execute_train,
    "methodology": _execute_methodology,
}


def execute_job(job: ExperimentJob):
    """Run one job to completion and return its (picklable) result."""
    return _EXECUTORS[job.kind](job)
