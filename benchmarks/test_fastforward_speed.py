"""Wall-clock benchmark of the fast-forward (temporal upscaling) mode.

Runs one long-horizon ``paper``-profile scenario (single RE, 120 s
measurement interval) twice — full fidelity and fast-forwarded with the
default knobs — on the same machine, in the same process, and gates on
the speedup ratio.  The ratio is machine-independent (both runs share
the interpreter and CPU), so the committed reference in
``benchmarks/BENCH_fastforward.json`` transfers across machines; the
absolute CPU costs recorded next to it are normalized by the same
pure-Python *calibration* yardstick the sim-core bench uses, so the
regression gate on the fast-forwarded path's cost transfers too.

Run / record::

    python -m pytest benchmarks/test_fastforward_speed.py -q        # check
    python benchmarks/test_fastforward_speed.py --record baseline   # anchor

Environment knobs: ``PICTOR_FF_BENCH_REPS`` (best-of repetitions,
default 2), ``PICTOR_FF_SPEEDUP_MIN`` (minimum accepted live speedup,
default 5.0 — the tentpole's acceptance bar).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.jobs import ExperimentJob, execute_job
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

from test_sim_core_speed import calibrate

BENCH_FILE = Path(__file__).with_name("BENCH_fastforward.json")
BENCH_SCHEMA = 1

#: Fail when the fast-forwarded path's calibration-normalized CPU cost
#: grows beyond 1/REGRESSION_FLOOR of the recorded reference.
REGRESSION_FLOOR = 0.70


def _reps() -> int:
    return max(1, int(os.environ.get("PICTOR_FF_BENCH_REPS", "2")))


def _speedup_min() -> float:
    return float(os.environ.get("PICTOR_FF_SPEEDUP_MIN", "5.0"))


def _scenarios() -> tuple[Scenario, Scenario]:
    config = ExperimentConfig.paper(seed=42)
    full = Scenario.mixed(["RE"], config=config)
    fast = Scenario.mixed(["RE"],
                          config=replace(config, fast_forward=True))
    return full, fast


def _measure(scenario: Scenario, reps: int | None = None) -> float:
    """Best-of-N CPU seconds to execute ``scenario`` as a host job."""
    best = float("inf")
    for _ in range(reps if reps is not None else _reps()):
        job = ExperimentJob(scenario)
        started = time.process_time()
        execute_job(job)
        best = min(best, time.process_time() - started)
    return best


def measure_all() -> dict:
    full, fast = _scenarios()
    full_cpu = _measure(full)
    fast_cpu = _measure(fast)
    return {
        "calibration_ops_per_sec": calibrate(),
        "simulated_seconds": full.config.duration_s,
        "full_cpu_s": full_cpu,
        "fastforward_cpu_s": fast_cpu,
        "speedup": full_cpu / fast_cpu,
    }


def _normalized_cost(block: dict) -> float:
    """Machine-independent cost of the fast-forwarded run (ops spent)."""
    return block["fastforward_cpu_s"] * block["calibration_ops_per_sec"]


def load_bench_file() -> dict:
    if not BENCH_FILE.exists():
        raise FileNotFoundError(
            f"{BENCH_FILE} missing; record it with "
            f"`python benchmarks/test_fastforward_speed.py --record baseline`")
    data = json.loads(BENCH_FILE.read_text())
    if data.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"unexpected BENCH_fastforward.json schema: "
                         f"{data.get('schema')!r}")
    return data


# --------------------------------------------------------------------------
# pytest entry points
# --------------------------------------------------------------------------

def test_fastforward_speedup():
    """Temporal upscaling must beat full fidelity by the acceptance bar.

    The live ratio compares two runs on this machine, so no calibration
    is needed; the committed JSON documents the recorded speedup.
    """
    data = load_bench_file()
    reference = data.get("current") or data["baseline"]
    live = measure_all()

    print(f"\nfast-forward speedup on {live['simulated_seconds']:.0f}s "
          f"simulated: {live['speedup']:.1f}x "
          f"(full {live['full_cpu_s']:.2f}s CPU, "
          f"ff {live['fastforward_cpu_s']:.2f}s CPU; "
          f"recorded {reference['speedup']:.1f}x)")

    minimum = _speedup_min()
    assert live["speedup"] >= minimum, (
        f"fast-forward speedup is {live['speedup']:.1f}x, expected >= "
        f"{minimum}x (recorded {reference['speedup']:.1f}x)")


def test_fastforward_cost_regression():
    """The fast-forwarded path's normalized CPU cost must not balloon.

    A creeping micro-window count (e.g. a detector that stops firing)
    would erode the speedup while the ratio test still passes on a fast
    machine; the calibration-normalized cost pins it directly.
    """
    data = load_bench_file()
    reference = data.get("current") or data["baseline"]
    live = measure_all()

    ratio = _normalized_cost(reference) / _normalized_cost(live)
    print(f"\nfast-forward normalized cost vs recorded: {ratio:.2f}x "
          "(>1 means cheaper than recorded)")
    assert ratio >= REGRESSION_FLOOR, (
        f"fast-forwarded run costs {1 / ratio:.2f}x the recorded "
        f"reference after machine normalization (floor {REGRESSION_FLOOR}); "
        f"if intentional, re-record with "
        f"`python benchmarks/test_fastforward_speed.py --record current`")


# --------------------------------------------------------------------------
# recording CLI
# --------------------------------------------------------------------------

def _record(which: str) -> None:
    if which not in ("baseline", "current"):
        raise SystemExit(f"--record takes 'baseline' or 'current', got {which!r}")
    data = {"schema": BENCH_SCHEMA}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data[which] = measure_all()
    data["schema"] = BENCH_SCHEMA
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {which} block to {BENCH_FILE}")
    print(json.dumps(data[which], indent=2, sort_keys=True))


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--record":
        _record(sys.argv[2])
    else:
        raise SystemExit(__doc__)
