#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cloud-3D testbed simulator.

Run from the repository root::

    python3 perfbench/run.py --workload mix3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload socket_drain --trace 1
    python3 perfbench/run.py --workload all       # every workload, both modes

``--trace 0`` repeats untraced cycles of the workload for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` runs one untraced and
one traced cycle and reports the per-layer metrics.  Every metric is
printed with its unit and sample count; the last line is one JSON object
with the metrics ``BENCHMARK.json`` declares for the mode.  The exit
code is non-zero when any output check failed.  ``perfbench/README.md``
documents the workloads, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"


def configure_process() -> None:
    """Process settings every benchmark process needs before importing
    numpy or the simulator."""
    # Thread budget: numpy's BLAS runs single-threaded, so the only
    # threads are the in-process queue server's.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The result store stamps rows with `git rev-parse HEAD`; never let
    # git search above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path[:0] = [str(SRC), str(ROOT)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mix3", "intelligent", "socket_drain", "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the benchmark's default seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long --trace 0 repeats cycles (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seconds: float):
    """Untraced cycles for ``seconds``: the end-to-end metrics, or None when
    no cycle completed.

    When ``workload.scaled`` names any metric, a yardstick measurement
    precedes every cycle and those metrics are stated in the yardstick's
    reference seconds (``yardstick.py``).  Rates are medians over the
    completed cycles.  Each note gives the raw value.
    """
    from perfbench import yardstick
    from perfbench.metrics import Metric, median, timing_metrics

    ref = yardstick.REFERENCE_S
    cycles = []
    started = time.perf_counter()
    while not cycles or time.perf_counter() - started < seconds:
        speed = yardstick.measure() if workload.scaled else (ref, ref)
        cycles.append(workload.cycle())
        cycles[-1].yardstick = speed
        if len(cycles) == 1:
            workload.check_recorded(cycles[0])
        cycles[-1].results.clear()  # keeps peak memory independent of run length
    done = [cycle for cycle in cycles if cycle.wall_s > 0 and cycle.sim_s > 0]
    if not done:
        return None

    def scale(name: str, speed: float) -> float:
        """Reference seconds per measured second, for ``name``."""
        return ref / speed if name in workload.scaled else 1.0

    setup = workload.setup_s + [s for cycle in cycles for s in cycle.setup_s]
    setup_wall = median([cycle.yardstick[1] for cycle in cycles])
    cpu = [c.cpu_s / c.sim_s for c in done]
    rate = [len(c.job_ms) / c.wall_s for c in done]
    job_ms = [ms for cycle in done for ms in cycle.job_ms]
    n = len(done)
    reported = [
        Metric("setup_s", median(setup) * scale("setup_s", setup_wall), "s", len(setup),
               f"median over set-ups; raw {median(setup):.6g}"),
        Metric("cpu_s_per_sim_s",
               median([x * scale("cpu_s_per_sim_s", c.yardstick[0]) for x, c in zip(cpu, done)]),
               "s/s", n, f"median over cycles; raw {median(cpu):.6g}"),
        Metric("jobs_per_s",
               median([x / scale("jobs_per_s", c.yardstick[1]) for x, c in zip(rate, done)]),
               "1/s", n, f"median over cycles; raw {median(rate):.6g}; {len(job_ms)} jobs"),
        Metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ]
    shown = timing_metrics("job_ms", job_ms)
    if workload.name == "socket_drain":
        replays = [cycle.replay_jobs_per_s for cycle in done if cycle.replay_jobs_per_s > 0]
        shown.append(Metric("replay_jobs_per_s", median(replays) if replays else 0.0,
                            "1/s", len(replays), "median over cycles, raw"))
    return reported, shown


def traced_run(workload):
    """One untraced and one traced cycle: the per-layer metrics, or None
    when a cycle did not complete."""
    import numpy
    import repro
    from repro.core.monitors import EventRateMonitor

    from perfbench.layers import LAYERS, TracedRegion, fold, label, package_dir
    from perfbench.metrics import Metric, median, percentile, timing_metrics
    from perfbench.workloads import model_counts

    started = time.perf_counter()
    untraced = workload.cycle()
    untraced_wall = time.perf_counter() - started
    started = time.perf_counter()
    with TracedRegion() as region:
        traced = workload.cycle(traced=True)
    traced_wall = time.perf_counter() - started
    workload.count_events(traced)
    workload.check_recorded(untraced)
    if not (untraced.wall_s > 0 and untraced.model_sim_s > 0 and traced.events > 0):
        return None

    seconds, calls = fold(region.stats(), package_dir(repro), package_dir(numpy),
                          exclude={label(EventRateMonitor._observe)})
    total = sum(seconds.values())
    reported = []
    for layer in LAYERS:
        reported.append(Metric(f"{layer}.self_share", seconds.get(layer, 0.0) / total,
                               "ratio", 1, f"{seconds.get(layer, 0.0):.3f} s traced CPU"))
        reported.append(Metric(f"{layer}.calls", calls.get(layer, 0), "count", 1))
    reported.append(Metric("trace_overhead", traced_wall / untraced_wall, "ratio", 1,
                           f"{traced_wall:.2f} s / {untraced_wall:.2f} s"))

    events = traced.events
    reported += [
        Metric("sim.events", events, "count", 1),
        Metric("sim.events_per_sim_s", events / untraced.model_sim_s, "1/s", 1,
               f"over {untraced.model_sim_s:g} simulated instance-seconds"),
        Metric("sim.cpu_us_per_event", untraced.model_cpu_s / events * 1e6, "us", 1),
    ]
    counts = model_counts(untraced.results)
    for name in ("core.hook_fires", "graphics.frames_rendered",
                 "client.frames_displayed", "core.inputs_tracked"):
        reported.append(Metric(name, counts[name], "count", len(untraced.results)))

    timers = {**workload.timers}
    for name, samples in untraced.timers.items():
        timers[name] = timers.get(name, []) + samples

    def median_of(name, unit):
        samples = timers.get(name, [])
        return Metric(name, median(samples) if samples else 0.0, unit, len(samples),
                      "median" if samples else "no samples")

    reported += [median_of("scenarios.build_host_s", "s"),
                 median_of("agents.train_s", "s"),
                 median_of("experiments.socket_queue.submit_ms", "ms")]
    for name in ("experiments.socket_queue.claim_ms", "experiments.jobs.execute_ms",
                 "experiments.socket_queue.complete_ms", "experiments.socket_queue.result_ms"):
        reported += timing_metrics(name, timers.get(name, []))

    drain = workload.name == "socket_drain"
    execute_s = sum(timers.get("experiments.jobs.execute_ms", [])) / 1e3
    reported += [
        Metric("socket_drain.execute_share", execute_s / untraced.wall_s if drain else 0.0,
               "ratio", len(timers.get("experiments.jobs.execute_ms", []))),
        Metric("socket_drain.replay_jobs_per_s", untraced.replay_jobs_per_s if drain else 0.0,
               "1/s", len(untraced.job_ms) if drain else 0),
    ]
    for p in (50.0, 95.0):
        reported.append(Metric(f"socket_drain.job_ms.p{p:g}",
                               percentile(untraced.job_ms, p) if drain else 0.0,
                               "ms", len(untraced.job_ms) if drain else 0))
    return reported, []


def run_one(args, declared) -> int:
    from perfbench.metrics import Metric, Tally, result_line
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    TMP.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    # Library temp files (the suite's worker-log directory) stay in the checkout.
    tempfile.tempdir = str(tmp_root)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](seed, tally, tmp_root)
        workload.prepare()
        if args.trace:
            measured = traced_run(workload)
        else:
            measured = timed_run(workload, seconds)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    if measured is None:
        tally.fail("no cycle completed")
        for problem in tally.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        return 1
    reported, shown = measured
    spec = declared["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec}
    for metric in reported:
        if metric.name in units and units[metric.name] != metric.unit:
            raise ValueError(f"{metric.name} measured in {metric.unit}, "
                             f"declared in {units[metric.name]}")
    print(f"# {args.workload} seed={seed} trace={args.trace}")
    for metric in reported + shown:
        print(metric.line())
    print(Metric("failed_frac", tally.failed_frac, "ratio", tally.attempted,
                 f"{tally.failed} failed of {tally.attempted} attempted").line())
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(result_line(tally, reported, list(units)))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process, one at a time."""
    status = 0
    for workload in ("mix3", "intelligent", "socket_drain"):
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--trace", str(trace)]
            if args.seed is not None:
                command += ["--seed", str(args.seed)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "examples").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    configure_process()
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
