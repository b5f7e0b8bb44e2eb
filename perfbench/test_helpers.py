"""Self-tests of the benchmark's helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import os
from pathlib import Path

import pytest

from perfbench import yardstick
from perfbench.layers import LAYERS, fold, module_layer
from perfbench.metrics import (
    Metric,
    Tally,
    percentile,
    result_line,
    samples_beyond,
    tail_percentile,
    timing_metrics,
)

ROOT = Path(__file__).resolve().parents[1]
REPRO = os.sep.join(["", "x", "src", "repro", ""])
NUMPY = os.sep.join(["", "y", "numpy", ""])


# -- the percentile rule ---------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert samples_beyond(200, 95) == 10
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_timing_metrics_flag_an_unsupported_tail():
    p50, p95 = timing_metrics("job_ms", [float(v) for v in range(1, 101)])
    assert (p50.value, p50.n, p50.note) == (50.0, 100, "")
    assert p95.value == 95.0
    assert "only 5 samples beyond" in p95.note and "p90" in p95.note
    empty = timing_metrics("claim_ms", [])
    assert [m.value for m in empty] == [0.0, 0.0]
    assert all(m.n == 0 for m in empty)


# -- the metric-name grammar -----------------------------------------------------------
@pytest.mark.parametrize("name", [
    "setup_s", "job_ms.p50", "experiments.socket_queue.complete_ms.p95",
    "sim.cpu_us_per_event", "0ad-fps", "x" * 64,
])
def test_metric_names_that_fit_the_grammar(name):
    assert Metric(name, 1.0, "ms", 1).name == name


@pytest.mark.parametrize("name", [
    "", ".leading_dot", "_leading", "has space", "slash/in", "x" * 65, "p95%",
])
def test_metric_names_that_break_the_grammar(name):
    with pytest.raises(ValueError):
        Metric(name, 1.0, "ms", 1)


@pytest.mark.parametrize("unit", ["", "m s", "x" * 17])
def test_units_that_break_the_grammar(unit):
    with pytest.raises(ValueError):
        Metric("ok", 1.0, unit, 1)


def test_metric_values_must_be_finite():
    with pytest.raises(ValueError):
        Metric("ok", float("nan"), "s", 1)


# -- layer folding ---------------------------------------------------------------------
def _func(path, name, line=1):
    return (path, line, name)


def test_module_layer_splits():
    def layer(rel):
        return module_layer(REPRO + rel.replace("/", os.sep), "f", REPRO, NUMPY)

    assert layer("sim/engine.py") == "sim.kernel"
    assert layer("sim/heaps.py") == "sim.kernel"
    assert layer("sim/randomness.py") == "sim.randomness"
    assert layer("experiments/store.py") == "experiments.store"
    assert layer("experiments/socket_queue.py") == "experiments.socket_queue"
    assert layer("experiments/worker.py") == "experiments.other"
    assert layer("agents/baselines/chen.py") == "agents"
    assert layer("fleet/runner.py") == "other"
    assert module_layer(NUMPY + "core/fromnumeric.py", "clip", REPRO, NUMPY) == "numpy"
    assert module_layer("~", "<method 'normal' of 'numpy.random._generator.Generator' "
                        "objects>", REPRO, NUMPY) == "numpy"
    assert module_layer("~", "<built-in method builtins.len>", REPRO, NUMPY) is None
    assert module_layer("/usr/lib/python3/json/encoder.py", "encode", REPRO, NUMPY) is None


def test_fold_a_synthetic_profile():
    root = _func("/bench/run.py", "main")
    engine = _func(REPRO + os.sep.join(["sim", "engine.py"]), "run")
    store = _func(REPRO + os.sep.join(["experiments", "store.py"]), "put")
    rng = _func(REPRO + os.sep.join(["sim", "randomness.py"]), "uniform")
    normal = _func("~", "<method 'normal' of 'numpy.random._generator.Generator' objects>", 0)
    execute = _func("~", "<method 'execute' of 'sqlite3.Cursor' objects>", 0)
    dumps = _func("/usr/lib/python3/json/__init__.py", "dumps")
    encode = _func("/usr/lib/python3/json/encoder.py", "encode")
    observe = _func(REPRO + os.sep.join(["core", "monitors.py"]), "_observe")
    # (cc, nc, tt, ct, callers); callers[c] = (nc, cc, tt, ct).
    stats = {
        root: (1, 1, 0.5, 10.0, {}),
        engine: (1, 1, 2.0, 8.0, {root: (1, 1, 2.0, 8.0)}),
        store: (4, 4, 1.0, 4.0, {root: (4, 4, 1.0, 4.0)}),
        rng: (10, 10, 0.5, 1.5, {engine: (10, 10, 0.5, 1.5)}),
        normal: (10, 10, 1.0, 1.0, {rng: (10, 10, 1.0, 1.0)}),
        execute: (4, 4, 2.0, 2.0, {store: (4, 4, 2.0, 2.0)}),
        # json.dumps is called from the kernel and from the store; its
        # self time splits 3:1 by the time each caller's calls took.
        dumps: (8, 8, 0.8, 1.8, {engine: (6, 6, 0.6, 1.35), store: (2, 2, 0.2, 0.45)}),
        # encode is only reached through dumps: it follows dumps' split.
        encode: (8, 8, 1.0, 1.0, {dumps: (8, 8, 1.0, 1.0)}),
        observe: (3, 3, 0.3, 0.4, {engine: (3, 3, 0.3, 0.4)}),
    }
    seconds, calls = fold(stats, REPRO, NUMPY, exclude={observe})
    assert seconds["other"] == pytest.approx(0.5)
    assert seconds["sim.kernel"] == pytest.approx(2.0 + 0.6 + 0.75)
    assert seconds["sim.randomness"] == pytest.approx(0.5)
    assert seconds["numpy"] == pytest.approx(1.0)
    assert seconds["experiments.store"] == pytest.approx(1.0 + 2.0 + 0.2 + 0.25)
    assert "excluded" not in seconds
    assert sum(seconds.values()) == pytest.approx(
        sum(stat[2] for func, stat in stats.items() if func != observe))
    assert calls == {"sim.kernel": 1, "experiments.store": 4,
                     "sim.randomness": 10, "numpy": 10}
    assert set(seconds) <= set(LAYERS)


def test_fold_survives_a_recursive_library_cycle():
    store = _func(REPRO + os.sep.join(["experiments", "store.py"]), "get")
    a = _func("/usr/lib/python3/a.py", "a")
    b = _func("/usr/lib/python3/b.py", "b")
    # a is called by the store and by b; b only by a, and a also by itself.
    stats = {
        store: (1, 1, 0.1, 1.0, {}),
        a: (2, 4, 0.4, 0.9, {store: (1, 1, 0.2, 0.9), b: (1, 1, 0.1, 0.4),
                             a: (1, 2, 0.1, 0.2)}),
        b: (2, 2, 0.5, 0.7, {a: (2, 2, 0.5, 0.7)}),
    }
    seconds, _ = fold(stats, REPRO, NUMPY)
    # Every library call descends from the store, so the store owns it all.
    assert seconds == {"experiments.store": pytest.approx(1.0)}


# -- failure accounting ----------------------------------------------------------------
def test_failed_frac_counts_every_failed_operation():
    tally = Tally()
    assert tally.check(True, "fine")
    assert not tally.check(False, "digest mismatch")
    tally.fail("lost job")
    tally.check(True, "fine")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert tally.problems == ["digest mismatch", "lost job"]
    with pytest.raises(ValueError):
        Tally().failed_frac


def test_result_line_reports_exactly_the_declared_metrics():
    tally = Tally()
    tally.check(True, "ok")
    metrics = [Metric("setup_s", 0.5, "s", 3), Metric("extra", 1.0, "count", 1)]
    line = json.loads(result_line(tally, metrics, ["setup_s"]))
    assert line == {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
    tally.fail("mismatch")
    assert json.loads(result_line(tally, metrics, ["setup_s"]))["correct"] is False
    with pytest.raises(ValueError):
        result_line(tally, metrics, ["setup_s", "jobs_per_s"])


def test_a_raising_drain_phase_is_counted_and_the_cycle_returns(monkeypatch, tmp_path):
    from perfbench.workloads import SocketDrain

    tally = Tally()
    drain = SocketDrain(1, tally, tmp_path)
    closed = []
    monkeypatch.setattr(drain, "_open", lambda cycle: ("root", "server", "queue"))
    monkeypatch.setattr(drain, "_close", lambda *opened: closed.append(opened))

    def lost_connection(*args):
        raise ConnectionError("queue server went away")

    monkeypatch.setattr(drain, "_cold_phase", lost_connection)
    monkeypatch.setattr(drain, "_sample_check", lost_connection)
    cycle = drain.cycle()
    assert (tally.attempted, tally.failed) == (2, 2)
    assert all("queue server went away" in problem for problem in tally.problems)
    assert closed == [("root", "server", "queue")]
    assert cycle.wall_s == 0.0


# -- the yardstick ---------------------------------------------------------------------
def test_yardstick_times_its_work_and_restores_the_collector():
    assert gc.isenabled()
    cpu_s, wall_s = yardstick.measure(events=2_000)
    assert cpu_s > 0 and wall_s > 0
    assert gc.isenabled()


# -- the declared benchmark ------------------------------------------------------------
def test_benchmark_json_declares_every_layer_and_keeps_the_contract():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {entry["name"] for entry in declared["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_share", f"{layer}.calls"} <= per_layer
    end_to_end = {entry["name"]: entry for entry in declared["end_to_end"]}
    assert end_to_end["setup_s"]["unit"] == "s"
    assert end_to_end["setup_s"]["bound"] == max(e["bound"] for e in end_to_end.values())
    for entry in declared["end_to_end"] + declared["per_layer"]:
        Metric(entry["name"], 1.0, entry["unit"], 1)
    assert all(0 < entry["bound"] <= 0.25 for entry in end_to_end.values())
    assert {w["name"] for w in declared["workloads"]} == {"mix3", "intelligent", "socket_drain"}
