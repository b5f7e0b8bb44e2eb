"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.scenarios.config import ExperimentConfig
from repro.sim.engine import Environment
from repro.sim.randomness import RandomStreams, StreamRandom


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def rng() -> StreamRandom:
    return StreamRandom(1234)


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture
def tiny_config() -> ExperimentConfig:
    """A very small experiment configuration for fast integration tests."""
    return ExperimentConfig(seed=7, duration_s=4.0, warmup_s=0.5,
                            recording_seconds=4.0, cnn_epochs=2, lstm_epochs=5)
