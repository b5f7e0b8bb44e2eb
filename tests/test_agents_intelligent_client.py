"""Tests for the intelligent client and the prior-work baselines."""

import pytest

from repro.agents.baselines.chen import ChenMethodology
from repro.agents.baselines.deskbench import DeskBenchClient
from repro.agents.baselines.slowmotion import SlowMotionMethodology
from repro.agents.intelligent_client import (
    InferenceTimingModel,
    train_intelligent_client,
)
from repro.agents.recorder import RecordedSession
from repro.apps.registry import create_benchmark, get_profile
from repro.core.tags import InputRecord
from repro.core.tracker import InputTracker
from repro.graphics.pipeline import Stage
from repro.server.session import SessionConfig
from repro.sim.randomness import StreamRandom


@pytest.fixture(scope="module")
def trained_client():
    app = create_benchmark("RE", rng=StreamRandom(21))
    client, recording = train_intelligent_client(
        app, rng=StreamRandom(22), recording_seconds=5.0,
        cnn_epochs=3, lstm_epochs=8)
    return client, recording


# --- intelligent client ---------------------------------------------------------------

def test_client_mimics_human_action_rate(trained_client):
    client, _recording = trained_client
    assert client.actions_per_second == pytest.approx(
        client.app.profile.actions_per_second)
    assert client.input_kind is client.app.profile.input_kind


def test_client_decides_from_frames(trained_client):
    client, _recording = trained_client
    app = create_benchmark("RE", rng=StreamRandom(23))
    frame = app.advance(1 / 30)
    decision = client.decide(frame, now=0.0)
    assert decision is not None
    action, compute_time = decision
    assert -1.0 <= action.steer <= 1.0
    assert compute_time > 0.01     # CV inference dominates


def test_client_handles_missing_frame(trained_client):
    client, _recording = trained_client
    action, compute_time = client.decide(None, now=0.0)
    assert action is not None and compute_time > 0


def test_client_inference_times_match_figure7_scale(trained_client):
    client, _recording = trained_client
    app = create_benchmark("RE", rng=StreamRandom(24))
    for _ in range(30):
        client.decide(app.advance(1 / 30), now=0.0)
    cv_ms = client.mean_cv_time() * 1e3
    rnn_ms = client.mean_rnn_time() * 1e3
    assert 30.0 < cv_ms < 150.0
    assert 0.5 < rnn_ms < 10.0
    # Fast enough to exceed professional-player APM (Section 4).
    assert client.achievable_apm() > 300.0


def test_client_imitates_recorded_actions(trained_client):
    client, recording = trained_client
    error = client.imitation_error(recording)
    assert error < 0.6


def test_inference_timing_model_bounds():
    timing = InferenceTimingModel()
    rng = StreamRandom(0)
    assert 0.01 <= timing.sample_cv_time(rng) <= 0.3
    assert 0.0005 <= timing.sample_rnn_time(rng) <= 0.02
    assert timing.max_actions_per_minute > 600.0


# --- DeskBench -------------------------------------------------------------------------

def test_deskbench_waits_for_matching_frame(trained_client):
    _client, recording = trained_client
    app = create_benchmark("RE", rng=StreamRandom(31))
    deskbench = DeskBenchClient(app, recording, similarity_threshold=1e-6,
                                timeout_s=5.0, rng=StreamRandom(32))
    # With an impossibly strict threshold and a fresh random scene, the
    # replay should not issue an action immediately.
    frame = app.advance(1 / 30)
    assert deskbench.decide(frame, now=0.0) is None


def test_deskbench_times_out_and_replays(trained_client):
    _client, recording = trained_client
    app = create_benchmark("RE", rng=StreamRandom(33))
    deskbench = DeskBenchClient(app, recording, similarity_threshold=1e-6,
                                timeout_s=0.5, rng=StreamRandom(34))
    frame = app.advance(1 / 30)
    assert deskbench.decide(frame, now=0.0) is None
    decision = deskbench.decide(frame, now=1.0)   # past the timeout
    assert decision is not None
    assert deskbench.actions_delayed == 1
    assert deskbench.match_rate() == 0.0


def test_deskbench_issues_immediately_on_similar_frame(trained_client):
    _client, recording = trained_client
    app = create_benchmark("RE", rng=StreamRandom(35))
    deskbench = DeskBenchClient(app, recording, similarity_threshold=10.0,
                                rng=StreamRandom(36))
    frame = app.advance(1 / 30)
    decision = deskbench.decide(frame, now=0.0)
    assert decision is not None
    assert deskbench.match_rate() == 1.0


def test_deskbench_threshold_sweep_returns_candidate(trained_client):
    _client, recording = trained_client
    app = create_benchmark("RE", rng=StreamRandom(37))
    thresholds = (0.01, 0.05, 0.2)
    best = DeskBenchClient.sweep_thresholds(app, recording, thresholds,
                                            probe_frames=10)
    assert best in thresholds


def test_deskbench_validation(trained_client):
    _client, recording = trained_client
    app = create_benchmark("RE", rng=StreamRandom(38))
    with pytest.raises(ValueError):
        DeskBenchClient(app, RecordedSession(benchmark="RE"))
    with pytest.raises(ValueError):
        DeskBenchClient(app, recording, similarity_threshold=0.0)


# --- Chen et al. ------------------------------------------------------------------------

def _record_with_stages(tracker: InputTracker, stage_durations: dict) -> InputRecord:
    record = tracker.create_record("key_event", timestamp=0.0)
    for stage, duration in stage_durations.items():
        record.record_stage(stage, duration)
    record.complete(1.0)
    return record


def test_chen_estimate_drops_hidden_stages():
    tracker = InputTracker()
    stages = {Stage.CS: 0.005, Stage.SP: 0.001, Stage.AL: 0.030, Stage.FC: 0.020,
              Stage.PS: 0.004, Stage.AS: 0.006, Stage.CP: 0.012, Stage.SS: 0.014}
    _record_with_stages(tracker, stages)
    chen = ChenMethodology(get_profile("RE"))
    estimate = chen.estimate_rtt(tracker.completed_records()[0])
    # Offline AL replaces the measured 30 ms, and PS/FC/AS are invisible.
    expected = 0.005 + 0.001 + chen.offline_al_time() + 0.012 + 0.014
    assert estimate == pytest.approx(expected)


def test_chen_underestimates_contended_al():
    tracker = InputTracker()
    _record_with_stages(tracker, {Stage.CS: 0.005, Stage.AL: 0.040, Stage.CP: 0.01,
                                  Stage.SS: 0.01, Stage.FC: 0.02})
    chen = ChenMethodology(get_profile("D2"))
    assert chen.mean_rtt(tracker) < 0.085  # true stage sum


def test_chen_validation():
    with pytest.raises(ValueError):
        ChenMethodology(get_profile("RE"), offline_al_scale=0.0)


# --- Slow-Motion ------------------------------------------------------------------------

def test_slowmotion_config_serializes_pipeline():
    slow = SlowMotionMethodology()
    config = slow.session_config(SessionConfig())
    assert config.slow_motion
    assert config.client.wait_for_response
    assert "one input/frame" in SlowMotionMethodology.describe()


def test_slowmotion_rejects_negative_delay():
    with pytest.raises(ValueError):
        SlowMotionMethodology(injected_delay_s=-1.0)
