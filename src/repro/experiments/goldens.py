"""Golden-trace scenarios: the kernel's machine-checked equivalence suite.

A *golden trace* is the byte-exact processed-event sequence (see
:mod:`repro.sim.trace`) of one registered scenario run.  The committed
files under ``tests/golden/`` pin the kernel's observable behavior on
real workloads — a kernel optimization is only shippable if every golden
re-records byte-identically, and the traces must also agree between the
serial and worker-process executor backends.

The registry deliberately reuses the CLI's spec surface: the mixes come
from ``examples/scenarios/mix3.json`` (the same file CI runs through the
scenario CLI) plus one single-app scenario, all under the fixed smoke
config, with short horizons so the whole suite records in seconds.

Re-record after an intentional semantic change with::

    python -m repro.experiments trace --update

Plain ``python -m repro.experiments trace`` only *checks* — CI runs it
that way so goldens are never rewritten silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario
from repro.scenarios.variants import session_variant

__all__ = [
    "GOLDEN_DIR",
    "GoldenSpec",
    "check_goldens",
    "golden_registry",
    "golden_path",
    "record_golden",
    "update_goldens",
]

#: Repository root (this file lives at src/repro/experiments/goldens.py).
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Where golden traces are committed.
GOLDEN_DIR = _REPO_ROOT / "tests" / "golden"

#: The mix spec file shared with the scenario CLI and CI.
MIX3_SPEC = _REPO_ROOT / "examples" / "scenarios" / "mix3.json"

#: Fixed config for golden runs: the smoke profile, pinned seed.  The
#: horizons are shortened further per spec so recording stays fast.
_GOLDEN_CONFIG = ExperimentConfig.smoke(seed=42)

#: Run horizons for golden recordings (simulated seconds).
_GOLDEN_DURATION = 0.6
_GOLDEN_WARMUP = 0.2


@dataclass(frozen=True)
class GoldenSpec:
    """One registered golden workload."""

    name: str
    scenario: Scenario
    duration: float = _GOLDEN_DURATION
    warmup: float = _GOLDEN_WARMUP


def golden_registry() -> dict[str, GoldenSpec]:
    """All registered golden workloads, keyed by name."""
    specs: dict[str, GoldenSpec] = {}

    single = Scenario.single("RE", config=_GOLDEN_CONFIG)
    specs["single-re"] = GoldenSpec("single-re", single)

    mix_entries = json.loads(MIX3_SPEC.read_text())
    for index, entry in enumerate(mix_entries):
        scenario = Scenario.from_dict(entry, config=_GOLDEN_CONFIG)
        name = f"mix3-{index}"
        specs[name] = GoldenSpec(name, scenario)

    # Network-degradation variants of the 3-way mix: the first
    # figure-independent use of the link registries.  The kernel's event
    # order under a degraded (or faster) link is behavior worth pinning —
    # latency and bandwidth feed the per-packet event schedule directly.
    degraded_base = Scenario.from_dict(mix_entries[0], config=_GOLDEN_CONFIG)
    for network in ("cellular_5g", "broadband_10g"):
        scenario = replace(degraded_base, network=network)
        name = f"mix3-0-{network}"
        specs[name] = GoldenSpec(name, scenario)

    # Session-variant twins of the 3-way mix: the asynchronous two-step
    # frame copy, the measurement-off path and the serialized slow-motion
    # loop each schedule GPU renders and PCIe copies their own way.
    for variant in ("optimized", "native", "slow_motion"):
        scenario = replace(degraded_base, variant=session_variant(variant))
        name = f"mix3-0-{variant}"
        specs[name] = GoldenSpec(name, scenario)
    return specs


def golden_path(name: str, golden_dir: Path | None = None) -> Path:
    return (golden_dir or GOLDEN_DIR) / f"{name}.trace"


def record_golden(name: str) -> str:
    """Run one registered golden scenario and return its trace text.

    Module-level and argument-picklable on purpose: the regression tests
    ship this function to worker processes to prove the serial and
    process-pool backends produce identical traces.
    """
    spec = golden_registry()[name]
    host = spec.scenario.build_host()
    recorder = host.attach_tracer()
    host.run(duration=spec.duration, warmup=spec.warmup)
    recorder.close()
    header = (f"golden={spec.name} scenario={spec.scenario.short_hash()} "
              f"duration={spec.duration:g} warmup={spec.warmup:g}")
    return recorder.text(header=header)


def check_goldens(golden_dir: Path | None = None) -> dict[str, str]:
    """Re-record every golden and compare against the committed files.

    Returns ``{name: status}`` where status is ``"ok"``, ``"missing"``
    or ``"mismatch: <detail>"``.
    """
    results: dict[str, str] = {}
    for name in golden_registry():
        path = golden_path(name, golden_dir)
        recorded = record_golden(name)
        if not path.exists():
            results[name] = "missing"
            continue
        committed = path.read_text()
        if committed == recorded:
            results[name] = "ok"
        else:
            detail = _first_difference(committed, recorded)
            results[name] = f"mismatch: {detail}"
    return results


def update_goldens(golden_dir: Path | None = None) -> dict[str, str]:
    """Re-record every golden and (re)write the committed files.

    Returns ``{name: status}`` with ``"written"`` or ``"unchanged"``.
    """
    results: dict[str, str] = {}
    directory = golden_dir or GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    for name in golden_registry():
        path = golden_path(name, directory)
        recorded = record_golden(name)
        if path.exists() and path.read_text() == recorded:
            results[name] = "unchanged"
        else:
            path.write_text(recorded)
            results[name] = "written"
    return results


def _first_difference(committed: str, recorded: str) -> str:
    old_lines = committed.splitlines()
    new_lines = recorded.splitlines()
    for index, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
        if old != new:
            return f"line {index}: committed {old!r} != recorded {new!r}"
    if len(old_lines) != len(new_lines):
        return (f"length: committed {len(old_lines)} lines, "
                f"recorded {len(new_lines)} lines")
    return "unknown difference"
