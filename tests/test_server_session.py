"""Integration tests for a full rendering session and the VNC proxy path."""

import gc
from collections import Counter

import pytest

from repro.agents.human import HumanPlayer
from repro.core.hooks import HookPoint
from repro.core.pictor import Pictor, PictorConfig
from repro.graphics.pipeline import PipelineConfig, Stage
from repro.hardware.gpu import GpuRenderJob
from repro.hardware.machine import ServerMachine
from repro.server.session import RenderingSession, SessionConfig
from repro.sim.engine import Environment, Process
from repro.sim.randomness import RandomStreams
from repro.apps.registry import create_benchmark


def run_session(benchmark="RE", duration=5.0, session_config=None, seed=5):
    env = Environment()
    machine = ServerMachine(env)
    streams = RandomStreams(seed)
    app = create_benchmark(benchmark, rng=streams.stream("app"))
    session = RenderingSession(env, machine, app, streams, name=f"{benchmark}-0",
                               config=session_config, pictor=Pictor(PictorConfig()))
    agent = HumanPlayer(app, rng=streams.stream("human"))
    session.start(agent)
    env.run(until=duration)
    return env, session


def test_session_produces_and_delivers_frames():
    _env, session = run_session(duration=5.0)
    assert session.frames_produced > 50
    assert session.client.frames_displayed > 30
    assert session.vnc.frames_sent > 30
    assert session.server_fps.fps() > 20
    assert session.client_fps.fps() > 20


def test_session_tracks_inputs_end_to_end():
    _env, session = run_session(duration=5.0)
    tracker = session.tracker
    assert tracker.tracked_inputs > 10
    assert tracker.completed_inputs > 5
    # Every completed input saw the full set of pipeline stages.
    record = tracker.completed_records()[-1]
    for stage in (Stage.CS, Stage.SP, Stage.PS, Stage.AL, Stage.FC,
                  Stage.AS, Stage.CP, Stage.SS, Stage.CD):
        assert stage in record.stage_durations, f"missing stage {stage}"
    assert record.rtt is not None and 0.02 < record.rtt < 1.0


def test_session_fires_all_hook_points():
    _env, session = run_session(duration=5.0)
    fired = {hook for hook, count in session.hooks.fire_counts.items() if count > 0}
    assert fired == set(HookPoint)


def test_session_records_stage_timings_and_gpu_times():
    _env, session = run_session(duration=5.0)
    timings = session.stage_timings
    for stage in (Stage.AL, Stage.FC, Stage.AS, Stage.CP, Stage.SS, Stage.RD):
        assert timings.count(stage) > 0, f"no samples for {stage}"
    assert session.gpu_timer.collected > 10
    assert 0.001 < session.gpu_timer.mean_gpu_time() < 0.1


def test_frame_copy_dominates_application_time_in_baseline():
    """Figure 13's headline: the FC stage is the application-side bottleneck
    (for Red Eclipse it even exceeds the application logic itself)."""
    _env, session = run_session("RE", duration=5.0)
    breakdown = session.tracker.application_time_breakdown()
    assert breakdown["frame_copy"] > breakdown["application_logic"]
    assert breakdown["frame_copy"] > 0.008


def test_measurement_disabled_session_has_no_tracking():
    config = SessionConfig(pipeline=PipelineConfig(measurement_enabled=False))
    _env, session = run_session(duration=3.0, session_config=config)
    assert not session.measurement_enabled
    assert session.tracker.tracked_inputs == 0
    assert session.hooks.total_fires() == 0
    assert session.frames_produced > 20     # the pipeline itself still runs


def test_optimized_session_raises_server_fps():
    baseline_env, baseline = run_session("RE", duration=5.0)
    optimized_config = SessionConfig(pipeline=PipelineConfig(
        memoize_window_attributes=True, two_step_frame_copy=True))
    _env, optimized = run_session("RE", duration=5.0,
                                  session_config=optimized_config)
    assert optimized.frames_produced > baseline.frames_produced * 1.2
    # Memoization removed nearly all XGetWindowAttributes calls.
    assert optimized.interposer.attribute_queries_avoided > 20


def test_slow_motion_session_serializes_inputs():
    from repro.agents.baselines.slowmotion import SlowMotionMethodology
    config = SlowMotionMethodology().session_config(SessionConfig())
    _env, session = run_session("RE", duration=5.0, session_config=config)
    tracker = session.tracker
    assert tracker.completed_inputs > 3
    # Serialized processing: at most one input in flight at any time, so the
    # number of frames produced is close to the number of inputs.
    assert session.frames_produced <= tracker.tracked_inputs + 2


def test_vnc_spoils_frames_when_compression_is_the_bottleneck():
    optimized_config = SessionConfig(pipeline=PipelineConfig(
        memoize_window_attributes=True, two_step_frame_copy=True))
    _env, session = run_session("STK", duration=5.0,
                                session_config=optimized_config)
    # The application produces frames faster than the proxy can encode them.
    assert session.vnc.frames_spoiled > 0
    assert session.client.frames_displayed < session.frames_produced


def test_frame_tag_map_stays_bounded_over_a_long_run():
    """frame_tags must track only frames in flight, not the whole run:
    the compress loop pops entries on the way out and untagged frames
    never create one, so the dict cannot grow with frames_produced."""
    _env, session = run_session(duration=10.0)
    assert session.frames_produced > 100
    # In-flight frames at any instant number in the single digits.
    assert len(session.frame_tags) < 20
    assert session.vnc.frame_tags is session.frame_tags


def test_spoiled_frame_tags_are_popped_not_leaked():
    optimized_config = SessionConfig(pipeline=PipelineConfig(
        memoize_window_attributes=True, two_step_frame_copy=True))
    _env, session = run_session("STK", duration=10.0,
                                session_config=optimized_config)
    assert session.vnc.frames_spoiled > 0
    # Dropped frames' tag entries are carried forward then removed.
    assert len(session.frame_tags) < 20


def _retained_after(duration):
    """Frames produced, and the GpuRenderJob / Process objects alive while
    only this run's session is referenced."""
    _env, session = run_session(duration=duration)
    # The GL context maps only frames still on the GPU...
    assert len(session.gl._pending_renders) <= 3
    # ...and the PCIe bus keeps counters, not a record per transfer.
    assert not [name for name, value in vars(session.machine.pcie).items()
                if isinstance(value, list)]
    gc.collect()
    alive = Counter(type(obj) for obj in gc.get_objects())
    return session.frames_produced, alive[GpuRenderJob], alive[Process]


def test_a_run_retains_only_the_frames_in_flight():
    """No layer keeps a per-frame log: the render jobs and processes a run
    holds alive do not grow with simulated time."""
    short_frames, short_jobs, short_processes = _retained_after(4.0)
    long_frames, long_jobs, long_processes = _retained_after(12.0)
    assert long_frames > 2 * short_frames
    assert long_jobs <= short_jobs + 5
    assert long_processes <= short_processes + 5


def test_session_close_releases_resources():
    env = Environment()
    machine = ServerMachine(env)
    streams = RandomStreams(1)
    app = create_benchmark("RE", rng=streams.stream("app"))
    session = RenderingSession(env, machine, app, streams)
    assert machine.memory.resident_workloads == 1
    session.close()
    assert machine.memory.resident_workloads == 0
    assert session.render_context not in machine.gpu.contexts


def test_session_cannot_start_twice():
    env = Environment()
    machine = ServerMachine(env)
    streams = RandomStreams(1)
    app = create_benchmark("RE", rng=streams.stream("app"))
    session = RenderingSession(env, machine, app, streams)
    agent = HumanPlayer(app, rng=streams.stream("h"))
    session.start(agent)
    with pytest.raises(RuntimeError):
        session.start(agent)
