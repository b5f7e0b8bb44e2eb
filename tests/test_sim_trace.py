"""Golden-trace regression tests for the simulation kernel.

These tests are the machine-checked equivalence guarantee behind any
kernel rewrite: the committed traces under ``tests/golden/`` were
recorded from real scenario runs, and every future kernel must reproduce
them byte for byte — in this process, and in worker processes (the
parallel executor backend).
"""

from __future__ import annotations

import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.experiments.goldens import (
    golden_path,
    golden_registry,
    record_golden,
)
from repro.sim.engine import Environment, SimulationError
from repro.sim.trace import TraceRecorder, event_pid, value_digest

GOLDEN_NAMES = sorted(golden_registry())


# ---------------------------------------------------------------------------
# TraceRecorder unit behavior
# ---------------------------------------------------------------------------

def test_recorder_captures_every_processed_event(env):
    recorder = TraceRecorder(env)

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(proc(env))
    env.run()
    # Initialize + two timeouts + process termination.
    assert len(recorder) == 4
    kinds = [line.split()[2] for line in recorder.entries]
    assert kinds == ["Initialize", "Timeout", "Timeout", "Process"]
    sequences = [int(line.split()[0]) for line in recorder.entries]
    assert sequences == [1, 2, 3, 4]


def test_two_recorders_both_observe_every_event_in_order(env):
    """Chaining contract: a second subscriber no longer silently replaces
    the first — both see the full dispatch sequence, in order."""
    first = TraceRecorder(env)
    second = TraceRecorder(env)

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(proc(env))
    env.run()
    assert len(first) == 4
    assert first.entries == second.entries


def test_close_detaches_only_its_own_subscription(env):
    """close() must not clear the whole bus — detach one of many."""
    first = TraceRecorder(env)
    second = TraceRecorder(env)
    env.timeout(1.0)
    env.run()
    first.close()
    first.close()  # idempotent
    assert len(env.bus) == 1
    env.timeout(1.0)
    env.run()
    assert len(first) == 1   # saw only the first run
    assert len(second) == 2  # still attached, saw both
    second.close()
    assert len(env.bus) == 0
    TraceRecorder(env)  # bus free again after both closed


def test_duplicate_bus_subscription_is_an_error(env):
    """The old single-slot tracer dropped the first subscriber silently;
    the bus makes double-attach loud instead."""
    events = []

    def hook(now, event):
        events.append(event)

    env.bus.subscribe(hook)
    with pytest.raises(SimulationError):
        env.bus.subscribe(hook)
    env.bus.unsubscribe(hook)
    with pytest.raises(SimulationError):
        env.bus.unsubscribe(hook)  # not subscribed anymore
    env.bus.subscribe(hook)  # free again after unsubscribe


def test_bus_fanout_preserves_subscription_order(env):
    """With 2+ subscribers the compiled fanout calls them in subscribe
    order, per event."""
    calls = []
    env.bus.subscribe(lambda now, event: calls.append(("a", type(event).__name__)))
    env.bus.subscribe(lambda now, event: calls.append(("b", type(event).__name__)))
    env.timeout(1.0)
    env.run()
    assert calls == [("a", "Timeout"), ("b", "Timeout")]


def test_recorder_text_and_header(env):
    recorder = TraceRecorder(env)
    env.timeout(1.0)
    env.run()
    text = recorder.text(header="unit-test")
    first, *rest = text.splitlines()
    assert first.startswith("# pictor-trace v1 unit-test")
    assert len(rest) == 1


def test_value_digest_is_stable_and_content_based():
    assert value_digest(None) == value_digest(None)
    assert value_digest(1.5) != value_digest(1.25)
    assert value_digest([1, "a"]) != value_digest([1, "b"])
    assert value_digest({"k": (1, 2)}) == value_digest({"k": (1, 2)})
    assert value_digest(ValueError("x")) == value_digest(ValueError("x"))
    assert value_digest(ValueError("x")) != value_digest(KeyError("x"))

    class Opaque:
        pass

    # Identity (memory address) must not leak into the digest.
    assert value_digest(Opaque()) == value_digest(Opaque())


def test_event_pid_resolution(env):
    def proc(env):
        yield env.timeout(1.0)

    process = env.process(proc(env))
    assert event_pid(process) == 1
    assert event_pid(env.timeout(0.5)) is None


def test_identical_runs_trace_identically():
    def run_once():
        env = Environment()
        recorder = TraceRecorder(env)

        def proc(env, delay):
            for _ in range(3):
                yield env.timeout(delay)

        for i in range(5):
            env.process(proc(env, 0.1 + i * 0.01))
        env.run()
        return recorder.text()

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Golden scenario traces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_trace_matches_committed(name):
    """The live kernel reproduces every committed golden byte-for-byte."""
    path = golden_path(name)
    assert path.exists(), (
        f"golden {name} missing; record with "
        f"`python -m repro.experiments trace --update`")
    committed = path.read_text()
    recorded = record_golden(name)
    assert recorded == committed, (
        f"golden trace {name} diverged from the committed file; if this "
        f"is an intentional semantic change re-record with "
        f"`python -m repro.experiments trace --update`")


def test_golden_traces_identical_across_process_backends():
    """Serial (in-process) and worker-process recordings are identical.

    This is the executor-backend half of the determinism contract: the
    parallel experiment backend ships scenarios to worker processes, and
    those workers must replay the exact event sequence the serial path
    produces.
    """
    names = GOLDEN_NAMES[:2]
    serial = {name: record_golden(name) for name in names}
    with ProcessPoolExecutor(max_workers=2) as pool:
        parallel = dict(zip(names, pool.map(record_golden, names)))
    assert parallel == serial
    for name in names:
        assert serial[name] == golden_path(name).read_text()


def test_golden_trace_identical_in_a_cold_worker_process():
    """A standalone interpreter — the queue worker shape: a fresh
    process with no inherited state, as started by `python -m
    repro.experiments worker` on any machine — records the committed
    bytes exactly.  Stronger than the pool test above, which forks and
    therefore inherits this process's interpreter state."""
    script = ("import sys\n"
              "from repro.experiments.goldens import record_golden\n"
              "sys.stdout.write(record_golden(sys.argv[1]))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script, "mix3-0"],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_path("mix3-0").read_text()


def test_goldens_cover_the_registered_scenarios():
    registry = golden_registry()
    assert set(registry) == {"single-re", "mix3-0", "mix3-1",
                             "mix3-0-cellular_5g", "mix3-0-broadband_10g",
                             "mix3-0-optimized", "mix3-0-native",
                             "mix3-0-slow_motion"}
    # mix3-1 exercises the optimized variant and a 4-way mix; single-re
    # is the single-app anchor.
    assert len(registry["mix3-1"].scenario.benchmarks) == 4
    assert registry["single-re"].scenario.benchmarks == ("RE",)
    # The network-degradation variants share the 3-way mix's placements
    # but run it over the degraded/faster link registries.
    for network in ("cellular_5g", "broadband_10g"):
        spec = registry[f"mix3-0-{network}"]
        assert spec.scenario.network == network
        assert spec.scenario.placements == registry["mix3-0"].scenario.placements


def test_host_result_identical_with_and_without_recorder():
    """Observation must be free of side effects: attaching a trace
    recorder (non-empty bus) cannot change a run's results."""
    from dataclasses import asdict

    from repro.experiments.goldens import golden_registry

    spec = golden_registry()["single-re"]

    def run_once(observe):
        host = spec.scenario.build_host()
        recorder = host.attach_tracer() if observe else None
        result = host.run(duration=spec.duration, warmup=spec.warmup)
        if recorder is not None:
            assert len(recorder) > 0
        data = asdict(result)
        for report in data["reports"]:
            # The tracker rides the extra channel as a live object, so it
            # only ever compares equal by identity; its type is stable.
            tracker = report.get("extra", {}).pop("tracker", None)
            report["extra"]["tracker_type"] = type(tracker).__name__
        return data

    assert run_once(observe=False) == run_once(observe=True)


def test_network_variant_goldens_are_distinct():
    """Link latency/bandwidth feed the event schedule: each network pins
    a genuinely different event order, not a relabeled copy."""
    texts = {name: golden_path(name).read_text()
             for name in ("mix3-0", "mix3-0-cellular_5g",
                          "mix3-0-broadband_10g")}
    assert len(set(texts.values())) == 3
