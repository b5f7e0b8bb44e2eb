"""Shared fixtures and reporting helpers for the benchmark harnesses.

Every file in this directory regenerates one table or figure of the paper
(see DESIGN.md for the index).  Each harness runs the corresponding
experiment under pytest-benchmark and prints the same rows / series the
paper reports, so the output can be compared side by side with the
published figures.  Absolute numbers are not expected to match the
authors' testbed — the substrate here is a simulator — but the shapes
(who wins, by roughly what factor, where crossovers fall) should.

A harness whose jobs are a whole figure's calls
:func:`~repro.experiments.figures.run_figure` with the session
``config``; one that sweeps a subset of the benchmarks runs the figure
module's ``*_jobs`` through :func:`~repro.experiments.executor.run_jobs`
and applies the module's ``*_from_results`` fold.  Either way the jobs
carry the session ``config`` unchanged, so harnesses share result-store
keys with each other and with ``python -m repro.experiments``.

Every harness is marked ``bench`` (registered in ``pyproject.toml``), so
CI can split the fast unit suite (``-m "not bench"``) from a benchmark
smoke pass.  Execution goes through a shared
:class:`~repro.experiments.executor.ExperimentSuite`, configurable via
the environment:

``PICTOR_BENCH_PROFILE``
    ``smoke`` (seconds, CI), ``quick`` (default, minutes), ``standard``
    or ``paper`` (longer, lower variance).
``PICTOR_WORKERS``
    worker-process count for the suite (default 1 = serial).
``PICTOR_CACHE_DIR``
    content-addressed result store shared between figures and runs —
    a SQLite database at ``$PICTOR_CACHE_DIR/results.sqlite``, queryable
    afterwards with ``python -m repro.experiments results list/diff
    --store $PICTOR_CACHE_DIR``.
``PICTOR_BACKEND`` / ``PICTOR_QUEUE_ADDR``
    pin an execution backend (``serial``/``parallel``/``socket``) and,
    for the socket one, the ``host:port`` of a ``python -m
    repro.experiments serve`` queue server whose workers connect with
    ``worker --addr`` (without it the suite runs its own in-process
    server).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence

import pytest

from repro.core.reporting import format_table
from repro.experiments.executor import ExperimentSuite
from repro.scenarios.config import ExperimentConfig

_BENCH_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items) -> None:
    """Mark every harness in this directory with the ``bench`` marker."""
    for item in items:
        try:
            in_bench_dir = Path(item.path).is_relative_to(_BENCH_DIR)
        except (TypeError, ValueError):
            in_bench_dir = False
        if in_bench_dir:
            item.add_marker(pytest.mark.bench)


def _make_config() -> ExperimentConfig:
    profile = os.environ.get("PICTOR_BENCH_PROFILE", "quick")
    if profile == "paper":
        return ExperimentConfig.paper(seed=42)
    if profile == "standard":
        return ExperimentConfig(seed=42)
    if profile == "smoke":
        return ExperimentConfig.smoke(seed=42)
    return ExperimentConfig(seed=42, duration_s=10.0, warmup_s=1.0,
                            recording_seconds=8.0, cnn_epochs=6, lstm_epochs=15)


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """The experiment configuration shared by every harness."""
    return _make_config()


@pytest.fixture(scope="session")
def suite():
    """The execution suite shared by every harness.

    One suite (and therefore one worker pool and one result cache) spans
    the whole benchmark session, so figures slicing the same testbed runs
    — 10–13 share a sweep, 8–9 share the characterization runs — execute
    them only once.
    """
    workers = max(1, int(os.environ.get("PICTOR_WORKERS", "1") or "1"))
    cache_dir = os.environ.get("PICTOR_CACHE_DIR") or None
    backend = os.environ.get("PICTOR_BACKEND") or None
    queue_addr = os.environ.get("PICTOR_QUEUE_ADDR") or None
    with ExperimentSuite(workers=workers, cache_dir=cache_dir,
                         backend=backend, queue_addr=queue_addr) as shared:
        yield shared


def emit(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]],
         notes: str = "") -> None:
    """Print one figure/table reproduction in a consistent format."""
    print()
    print(format_table(headers, rows, title=title))
    if notes:
        print(notes)
