"""Fleet execution: a sampled population drained through the suite.

This layer is deliberately thin: a population sample is just a list of
:class:`~repro.experiments.jobs.ExperimentJob` values, and every
property of the execution subsystem — deduplication, the content-
addressed result store (which makes interrupted fleet runs resumable
for free), and the serial / parallel / socket
backends — applies unchanged.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence

from repro.experiments.jobs import ExperimentJob
from repro.fleet.population import PopulationSpec, sample
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

__all__ = ["population_digest", "population_jobs", "scenarios_by_key"]


def population_jobs(spec: PopulationSpec, n: int, seed: int = 0,
                    config: Optional[ExperimentConfig] = None,
                    duration: Optional[float] = None) -> list[ExperimentJob]:
    """The ``host`` jobs of a population sample, in sample order: the
    order the suite submits them in and the stable identity order
    reports and digests use."""
    return [ExperimentJob(scenario, duration=duration)
            for scenario in sample(spec, n, seed=seed, config=config)]


def scenarios_by_key(jobs: Sequence[ExperimentJob]) -> dict[str, Scenario]:
    """``job key -> scenario`` — the cohort analytics' population index.

    Duplicate keys (a spec with ``seed_stride=0`` can draw the same
    scenario twice) collapse, exactly as the executor deduplicates them.
    """
    return {job.key(): job.scenario for job in jobs}


def population_digest(scenarios: Iterable[Scenario]) -> str:
    """One SHA-256 over the sample's scenario hash sequence.

    A cheap cross-process / cross-backend determinism check: two
    machines that print the same digest sampled byte-identical
    populations.
    """
    digest = hashlib.sha256()
    for scenario in scenarios:
        digest.update(scenario.content_hash().encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()
