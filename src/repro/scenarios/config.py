"""Shared experiment configuration (lives with the scenario model).

The paper runs each benchmark for three 15-minute sessions and notes the
results are stable after ~10 minutes.  Simulated time is cheap but not
free, so the default configuration uses a shorter measurement interval
that is already past the warm-up transient; the ``quick()`` preset trims
it further for unit tests and CI.

Every :class:`~repro.scenarios.Scenario` embeds an
:class:`ExperimentConfig`, which is why it is defined here at the bottom
of the dependency stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.apps.registry import BENCHMARK_SHORT_NAMES
from repro.sim.fastforward import FastForwardConfig

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment generator."""

    seed: int = 0
    duration_s: float = 30.0          # measurement interval per run
    warmup_s: float = 3.0
    benchmarks: tuple[str, ...] = BENCHMARK_SHORT_NAMES
    max_instances: int = 4            # colocation sweep upper bound
    # Intelligent-client training budget.
    recording_seconds: float = 12.0
    cnn_epochs: int = 10
    lstm_epochs: int = 25
    # Temporal upscaling (repro.sim.fastforward); off by default.  Also
    # accepts a bool or a partial dict — the JSON-spec / replace() forms.
    fast_forward: FastForwardConfig = field(
        default_factory=FastForwardConfig)

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.warmup_s < 0:
            raise ValueError("durations must be positive (warmup non-negative)")
        if self.max_instances < 1:
            raise ValueError("max_instances must be at least 1")
        unknown = [b for b in self.benchmarks if b not in BENCHMARK_SHORT_NAMES]
        if unknown:
            raise ValueError(f"unknown benchmarks in config: {unknown}")
        object.__setattr__(self, "fast_forward",
                           FastForwardConfig.coerce(self.fast_forward))

    @staticmethod
    def quick(seed: int = 0) -> "ExperimentConfig":
        """A fast preset for unit tests and smoke benchmarks."""
        return ExperimentConfig(
            seed=seed, duration_s=8.0, warmup_s=1.0,
            recording_seconds=6.0, cnn_epochs=4, lstm_epochs=10)

    @staticmethod
    def smoke(seed: int = 0) -> "ExperimentConfig":
        """The smallest sensible preset: CI smoke runs and CLI dry runs.

        Shared by ``python -m repro.experiments --profile smoke`` and the
        benchmark harnesses' ``PICTOR_BENCH_PROFILE=smoke`` so their jobs
        hash identically and can share one result cache.
        """
        return ExperimentConfig(
            seed=seed, duration_s=2.0, warmup_s=0.5,
            recording_seconds=3.0, cnn_epochs=2, lstm_epochs=4)

    @staticmethod
    def paper(seed: int = 0) -> "ExperimentConfig":
        """A longer preset closer to the paper's measurement intervals."""
        return ExperimentConfig(
            seed=seed, duration_s=120.0, warmup_s=10.0,
            recording_seconds=30.0, cnn_epochs=20, lstm_epochs=50)

    def with_benchmarks(self, benchmarks) -> "ExperimentConfig":
        return replace(self, benchmarks=tuple(benchmarks))
