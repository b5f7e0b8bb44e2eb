"""Fast-forward (temporal upscaling) tests: config plumbing, detector
properties, trace semantics, and the accuracy envelope.

The envelope tests run the same scenario full-fidelity and fast-forwarded
through the real CLI + result store path and assert the committed
tolerance table (``tests/tolerances/fastforward.json``) accepts the
deltas — and that a deliberately broken macro model is rejected.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.__main__ import main
from repro.experiments.jobs import ExperimentJob, execute_job
from repro.experiments.store import (
    ResultStore,
    ToleranceTable,
    diff_result_sets,
    rekey_ignoring_fast_forward,
)
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario
from repro.sim.engine import Environment, MacroJump, SimulationError
from repro.sim.fastforward import (
    FastForwardConfig,
    MacroModel,
    SteadyStateDetector,
    run_fast_forward,
)
from repro.sim.trace import TraceRecorder

TOLERANCE_TABLE = Path(__file__).parent / "tolerances" / "fastforward.json"

#: Knobs that reliably fast-forward the quick profile's 8s interval.
FF_KNOBS = {"enabled": True, "window_s": 0.5, "min_steady_windows": 3,
            "tolerance": 0.4, "exit_window_s": 0.5}


def _run_host(scenario: Scenario, summary_out: list | None = None):
    """Replicate CloudHost.run's preamble, then drive run_fast_forward
    directly so tests can inspect the FastForwardSummary."""
    host = scenario.build_host()
    config = scenario.config
    for session, agent in zip(host.sessions, host.agents):
        session.start(agent)
    host.machine.power_meter.set_instance_count(len(host.sessions))
    host.env.run(until=host.env.now + config.warmup_s)
    measure_start = host.env.now
    for session in host.sessions:
        session.server_fps.start()
        session.server_fps.timestamps.clear()
        session.client_fps.start()
        session.client_fps.timestamps.clear()
    host.monitor.start()
    host.env.process(host.machine.power_meter.sampling_process(
        host.config.power_sampling_interval))
    summary = run_fast_forward(host, measure_start, config.duration_s,
                               config.fast_forward)
    if summary_out is not None:
        summary_out.append(summary)
    return host


# ---------------------------------------------------------------------------
# FastForwardConfig: coercion, validation, serialization, hashing
# ---------------------------------------------------------------------------

def test_config_coercion_forms():
    default = FastForwardConfig.coerce(None)
    assert default == FastForwardConfig() and not default.enabled
    assert FastForwardConfig.coerce(True).enabled
    assert not FastForwardConfig.coerce(False).enabled
    partial = FastForwardConfig.coerce({"enabled": True, "window_s": 0.25})
    assert partial.enabled and partial.window_s == 0.25
    assert partial.min_steady_windows == FastForwardConfig().min_steady_windows
    instance = FastForwardConfig(enabled=True)
    assert FastForwardConfig.coerce(instance) is instance
    with pytest.raises(ValueError, match="unknown fast_forward fields"):
        FastForwardConfig.coerce({"warp_factor": 9})
    with pytest.raises(TypeError):
        FastForwardConfig.coerce("yes")


def test_config_validation():
    with pytest.raises(ValueError):
        FastForwardConfig(window_s=0.0)
    with pytest.raises(ValueError):
        FastForwardConfig(min_steady_windows=1)
    with pytest.raises(ValueError):
        FastForwardConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        FastForwardConfig(exit_window_s=-0.1)


def test_default_config_serializes_exactly_as_before():
    """Omit-when-default: existing hashes, cache keys and goldens are
    untouched by the new field."""
    scenario = Scenario.mixed(["RE"])
    assert "fast_forward" not in scenario.to_dict()["config"]
    explicit_off = Scenario.mixed(
        ["RE"], config=ExperimentConfig(fast_forward=False))
    assert explicit_off.content_hash() == scenario.content_hash()


def test_enabled_config_round_trips():
    config = ExperimentConfig(fast_forward=FF_KNOBS)
    scenario = Scenario.mixed(["RE"], config=config)
    data = scenario.to_dict()
    assert data["config"]["fast_forward"]["enabled"] is True
    rebuilt = Scenario.from_dict(data)
    assert rebuilt == scenario
    assert rebuilt.config.fast_forward == FastForwardConfig.coerce(FF_KNOBS)


@pytest.mark.parametrize("field_name,value", [
    ("enabled", True),
    ("window_s", 0.75),
    ("min_steady_windows", 7),
    ("tolerance", 0.11),
    ("exit_window_s", 1.25),
])
def test_content_hash_sensitive_to_every_field(field_name, value):
    """Every fast-forward knob participates in the scenario hash — a
    changed knob can never replay another configuration's result."""
    assert getattr(FastForwardConfig(), field_name) != value, \
        "pick a non-default value for the sensitivity check"
    base = Scenario.mixed(["RE"])
    changed = Scenario.mixed(["RE"], config=ExperimentConfig(
        fast_forward=replace(FastForwardConfig(), **{field_name: value})))
    assert base.content_hash() != changed.content_hash()
    assert (ExperimentJob(base).key() != ExperimentJob(changed).key())


def test_cost_units_discounts_fast_forward():
    """The cost model charges a fast-forwarded run for its micro windows
    only, so the queue packer doesn't schedule it as a full run."""
    config = ExperimentConfig.paper()
    full = Scenario.mixed(["RE"], config=config)
    fast = Scenario.mixed(["RE"],
                          config=replace(config, fast_forward=True))
    ff = fast.config.fast_forward
    micro_cap = ff.window_s * (ff.min_steady_windows + 1) + ff.exit_window_s
    assert fast.cost_units() == pytest.approx(
        (config.warmup_s + micro_cap) * 1)
    assert fast.cost_units() < full.cost_units()
    # Shorter-than-cap intervals are not inflated.
    short = Scenario.mixed(["RE"], config=replace(
        config, duration_s=1.0, fast_forward=True))
    assert short.cost_units() == pytest.approx((config.warmup_s + 1.0))


def test_cost_units_calibration_tracks_runtime():
    """The discount reflects reality: measured runtime ratio must be at
    least as large as the cost-unit ratio claims (the packer may only
    ever *over*-estimate a fast-forwarded job)."""
    import time
    config = ExperimentConfig.quick()
    full = Scenario.mixed(["RE"], config=config)
    fast = Scenario.mixed(["RE"],
                          config=replace(config, fast_forward=True))
    started = time.process_time()
    execute_job(ExperimentJob(full))
    full_cpu = time.process_time() - started
    started = time.process_time()
    execute_job(ExperimentJob(fast))
    fast_cpu = time.process_time() - started
    assert fast_cpu < full_cpu
    assert fast.cost_units() < full.cost_units()


# ---------------------------------------------------------------------------
# SteadyStateDetector properties
# ---------------------------------------------------------------------------

rate_values = st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False, allow_infinity=False)


@given(st.dictionaries(st.text(min_size=1, max_size=8), rate_values,
                       min_size=1, max_size=6),
       st.integers(min_value=2, max_value=8))
@settings(max_examples=50, deadline=None)
def test_detector_steady_on_stationary_input_after_min_windows(rates,
                                                               min_windows):
    """On perfectly stationary rates the detector fires after exactly
    ``min_windows`` observations — regardless of window count beyond it
    or of the rate magnitudes."""
    detector = SteadyStateDetector(min_windows, tolerance=0.25)
    for i in range(min_windows + 3):
        assert detector.steady == (i >= min_windows)
        detector.observe(rates)
    assert detector.steady
    assert detector.mean_rates() == {key: pytest.approx(value)
                                     for key, value in rates.items()}


@given(st.integers(min_value=2, max_value=8))
@settings(max_examples=20, deadline=None)
def test_detector_never_steady_below_min_windows(min_windows):
    detector = SteadyStateDetector(min_windows, tolerance=100.0)
    for _ in range(min_windows - 1):
        detector.observe({"x": 1.0})
        assert not detector.steady
    detector.reset()
    assert detector.observed_windows == 0 and not detector.steady


def test_detector_rejects_unsteady_rates():
    detector = SteadyStateDetector(3, tolerance=0.1)
    for value in (100.0, 100.0, 150.0):
        detector.observe({"x": value})
    assert not detector.steady
    # A disappearing key counts as a rate of zero — also unsteady.
    detector.reset()
    detector.observe({"x": 100.0, "y": 100.0})
    detector.observe({"x": 100.0})
    detector.observe({"x": 100.0})
    assert not detector.steady


def test_detector_floor_absorbs_near_zero_noise():
    """Near-zero rates compare against the absolute floor, so idle
    counters (0.0 vs 0.3 events/s) never block steadiness."""
    detector = SteadyStateDetector(3, tolerance=0.5, floor=1.0)
    for value in (0.0, 0.3, 0.1):
        detector.observe({"idle": value, "busy": 1000.0})
    assert detector.steady


@given(st.dictionaries(st.text(min_size=1, max_size=8), rate_values,
                       min_size=0, max_size=8))
@settings(max_examples=50, deadline=None)
def test_macro_model_round_trips(rates):
    model = MacroModel.from_rates(rates)
    assert MacroModel.from_dict(model.to_dict()) == model
    for key, value in rates.items():
        assert model.rate(key) == float(value)
    assert model.rate("no-such-counter") == 0.0
    scaled = model.extrapolate(2.0)
    for key, value in rates.items():
        assert scaled[key] == pytest.approx(2.0 * float(value))


def test_macro_model_rejects_negative_extrapolation():
    with pytest.raises(ValueError):
        MacroModel.from_rates({"x": 1.0}).extrapolate(-1.0)


# ---------------------------------------------------------------------------
# Engine seam: MacroJump events and the virtual clock
# ---------------------------------------------------------------------------

def test_macro_advance_offsets_virtual_clock_only(env):
    env.timeout(1.0)
    env.run()
    assert env.virtual_now == env.now
    jump = env.macro_advance(10.0)
    assert isinstance(jump, MacroJump) and jump.delta == 10.0
    assert env.now == 1.0                      # micro clock untouched
    assert env.virtual_offset == 10.0
    assert env.virtual_now == pytest.approx(11.0)
    with pytest.raises(SimulationError):
        env.macro_advance(0.0)
    with pytest.raises(SimulationError):
        env.macro_advance(-1.0)


def test_macro_advance_is_traced_without_consuming_event_ids(env):
    recorder = TraceRecorder(env)
    env.timeout(1.0)
    env.run()
    eid_before = env._eid
    env.macro_advance(5.0)
    assert env._eid == eid_before
    kinds = [line.split()[2] for line in recorder.entries]
    assert kinds[-1] == "MacroJump"


# ---------------------------------------------------------------------------
# Fast-forwarded runs: jumps, traces, goldens
# ---------------------------------------------------------------------------

def _ff_scenario(benchmarks=("RE",), **config_overrides):
    config = replace(ExperimentConfig.quick(), fast_forward=FF_KNOBS,
                     **config_overrides)
    return Scenario.mixed(list(benchmarks), config=config)


def test_fast_forward_jumps_and_credits_counters():
    summaries: list = []
    scenario = _ff_scenario()
    host = _run_host(scenario, summaries)
    summary = summaries[0]
    assert summary.jump_count >= 1
    assert summary.macro_seconds > 0
    assert summary.micro_seconds + summary.macro_seconds == pytest.approx(
        scenario.config.duration_s)
    assert summary.model is not None
    # The credited FPS counter lands near the macro rate over the full
    # interval, not just the micro windows.
    session = host.sessions[0]
    fps = session.server_fps.fps(scenario.config.duration_s)
    assert fps == pytest.approx(
        summary.model.rate(f"session.{session.name}.server_frames"),
        rel=0.25)
    assert host.env.virtual_offset == pytest.approx(summary.macro_seconds)


def test_fast_forward_trace_marks_macro_jumps_with_monotone_time():
    scenario = _ff_scenario()
    host = scenario.build_host()
    recorder = TraceRecorder(host.env)
    # Drive through the public host path so the trace covers the exact
    # sequence a fast-forwarded experiment produces.
    host.run(duration=scenario.config.duration_s,
             warmup=scenario.config.warmup_s,
             fast_forward=scenario.config.fast_forward)
    jump_lines = [line for line in recorder.entries
                  if line.split()[2] == "MacroJump"]
    assert jump_lines, "fast-forwarded run recorded no MacroJump events"
    times = [float(line.split()[1]) for line in recorder.entries]
    assert times == sorted(times), "trace timestamps must stay monotone"


def test_fast_forward_off_is_byte_identical_on_goldens():
    """With fast-forward off (default or explicit) the committed golden
    traces — every registered scenario — reproduce byte for byte."""
    from repro.experiments.goldens import golden_path, golden_registry, \
        record_golden
    for name in sorted(golden_registry()):
        assert record_golden(name) == golden_path(name).read_text(), (
            f"golden {name} diverged with fast-forward off")


def test_fast_forward_off_run_is_bitwise_equal_to_default_run():
    config = ExperimentConfig.smoke()
    plain = execute_job(ExperimentJob(Scenario.mixed(["RE"], config=config)))
    explicit = execute_job(ExperimentJob(Scenario.mixed(
        ["RE"], config=replace(config, fast_forward=FastForwardConfig()))))
    assert plain.as_dict() == explicit.as_dict()


# ---------------------------------------------------------------------------
# The accuracy envelope: store + CLI + committed tolerance table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def envelope_stores(tmp_path_factory):
    """Full-fidelity and fast-forwarded runs of one scenario, cached in
    two stores via the real CLI path."""
    root = tmp_path_factory.mktemp("ff-envelope")
    spec = json.dumps({"placements": ["RE"], "seed": {"offset": 11}})
    full_dir, fast_dir = str(root / "full"), str(root / "fast")
    assert main(["scenario", spec, "--profile", "quick",
                 "--cache-dir", full_dir]) == 0
    assert main(["scenario", spec, "--profile", "quick", "--fast-forward",
                 "--cache-dir", fast_dir]) == 0
    return full_dir, fast_dir


def test_envelope_diff_passes_committed_tolerances(envelope_stores, capsys):
    full_dir, fast_dir = envelope_stores
    # Without re-keying the runs occupy different keys: provenance makes
    # a fast-forwarded result impossible to mistake for an exact one.
    assert main(["results", "diff", full_dir, fast_dir]) == 1
    out = capsys.readouterr().out
    assert "only in A" in out
    # Re-keyed but zero-tolerance: the jump's approximation is visible.
    assert main(["results", "diff", full_dir, fast_dir,
                 "--ignore-fast-forward"]) == 1
    # Re-keyed and toleranced by the committed table: inside the envelope.
    capsys.readouterr()
    assert main(["results", "diff", full_dir, fast_dir,
                 "--ignore-fast-forward",
                 "--tolerances", str(TOLERANCE_TABLE)]) == 0
    assert "no differences" in capsys.readouterr().out


def test_envelope_rejects_broken_macro_model(envelope_stores, tmp_path,
                                             monkeypatch):
    """A macro model that over-credits by 2x must blow the envelope —
    the exit-1 path the CI job relies on."""
    full_dir, _ = envelope_stores
    true_rate = MacroModel.rate

    def doubled(self, key):
        return 2.0 * true_rate(self, key)

    monkeypatch.setattr(MacroModel, "rate", doubled)
    spec = json.dumps({"placements": ["RE"], "seed": {"offset": 11}})
    broken_dir = str(tmp_path / "broken")
    assert main(["scenario", spec, "--profile", "quick", "--fast-forward",
                 "--cache-dir", broken_dir]) == 0
    monkeypatch.undo()
    assert main(["results", "diff", full_dir, broken_dir,
                 "--ignore-fast-forward",
                 "--tolerances", str(TOLERANCE_TABLE)]) == 1


def test_report_stamps_fast_forward_provenance(envelope_stores):
    full_dir, fast_dir = envelope_stores
    (full_entry,) = ResultStore(full_dir).entries()
    (fast_entry,) = ResultStore(fast_dir).entries()
    assert full_entry["fast_forward"] is False
    assert fast_entry["fast_forward"] is True
    assert full_entry["key"] != fast_entry["key"]
    # rekey_ignoring_fast_forward collides the twins deterministically.
    rekeyed_full = rekey_ignoring_fast_forward({full_entry["key"]: full_entry})
    rekeyed_fast = rekey_ignoring_fast_forward({fast_entry["key"]: fast_entry})
    assert set(rekeyed_full) == set(rekeyed_fast)
    # Re-keying the exact run is a no-op (its config omits fast_forward).
    assert set(rekeyed_full) == {full_entry["key"]}


def test_tolerance_table_glob_semantics():
    table = ToleranceTable.from_mapping({
        "__comment__": ["ignored"],
        "*.rtt.count": 1.0,
        "*.rtt.*": 0.2,
        "reports[0].server_fps": 0.05,
        "default": 0.01,
    })
    # Literal brackets match literally (fnmatch would treat [0] as a
    # character class and silently never match).
    assert table.tolerance_for("reports[0].server_fps") == 0.05
    assert table.tolerance_for("reports[1].rtt.count") == 1.0
    assert table.tolerance_for("reports[1].rtt.mean") == 0.2
    assert table.tolerance_for("anything.else") == 0.01
    with pytest.raises(ValueError):
        ToleranceTable().add("*", -0.5)


def test_diff_result_sets_honors_tolerance_table():
    entry_a = {"schema": 2, "key": "k", "kind": "host", "duration": None,
               "scenario": {"config": {}}, "result": {"fps": 100.0,
                                                      "count": 10.0}}
    entry_b = dict(entry_a, result={"fps": 104.0, "count": 17.0})
    table = ToleranceTable.from_mapping({"fps": 0.05, "default": 0.0})
    report = diff_result_sets({"k": entry_a}, {"k": entry_b},
                              tolerances=table)
    assert [d.metric for d in report.deltas] == ["count"]
    table_loose = ToleranceTable.from_mapping({"fps": 0.05, "count": 0.9})
    assert diff_result_sets({"k": entry_a}, {"k": entry_b},
                            tolerances=table_loose).empty()


def test_committed_tolerance_table_loads():
    table = ToleranceTable.load(TOLERANCE_TABLE)
    assert table.patterns, "committed table must define patterns"
    assert table.tolerance_for("duration") == 0.0
    assert table.tolerance_for("reports[0].server_fps") <= 0.1
    assert table.tolerance_for("average_power_watts") <= 0.05


# ---------------------------------------------------------------------------
# Fleet integration: population-level fast_forward overrides
# ---------------------------------------------------------------------------

def test_population_spec_fast_forward_override():
    from repro.fleet.population import PopulationSpec, sample_one
    spec = PopulationSpec(name="ff-cohort",
                          config={"fast_forward": {"enabled": True,
                                                   "window_s": 0.25}})
    scenario = sample_one(spec, index=0, seed=3)
    assert scenario.config.fast_forward.enabled
    assert scenario.config.fast_forward.window_s == 0.25
    plain = sample_one(PopulationSpec(name="ff-cohort"), index=0, seed=3)
    assert scenario.content_hash() != plain.content_hash()
