"""Tests for the human player, recorder, CNN, LSTM and object detector."""

import numpy as np
import pytest

from repro.agents.cnn import ConvNet, ConvNetConfig, _im2col
from repro.agents.human import HumanPlayer
from repro.agents.recorder import RecordedSession, RecordedStep, SessionRecorder
from repro.agents.rnn import Lstm, LstmConfig
from repro.agents.vision import ObjectDetector
from repro.apps.registry import create_benchmark
from repro.graphics.frame import Frame
from repro.sim.randomness import StreamRandom


@pytest.fixture(scope="module")
def recorded_session() -> RecordedSession:
    app = create_benchmark("RE", rng=StreamRandom(11))
    human = HumanPlayer(app, rng=StreamRandom(12))
    recorder = SessionRecorder(rng=StreamRandom(13))
    return recorder.record(app, human, duration_s=6.0, frame_rate=30.0)


# --- human player -----------------------------------------------------------------

def test_human_rate_matches_profile():
    app = create_benchmark("STK", rng=StreamRandom(1))
    human = HumanPlayer(app, rng=StreamRandom(2))
    assert human.actions_per_second == pytest.approx(app.profile.actions_per_second)
    assert human.input_kind is app.profile.input_kind


def test_human_reaction_time_is_plausible():
    app = create_benchmark("STK", rng=StreamRandom(1))
    human = HumanPlayer(app, rng=StreamRandom(2))
    times = [human.reaction_time() for _ in range(200)]
    assert all(0.05 <= t <= 1.0 for t in times)
    assert np.mean(times) == pytest.approx(app.profile.reaction_time_ms * 1e-3, rel=0.3)


def test_human_decides_even_without_a_frame():
    app = create_benchmark("RE", rng=StreamRandom(1))
    human = HumanPlayer(app, rng=StreamRandom(2), lapse_probability=0.0)
    decision = human.decide(None, now=0.0)
    assert decision is not None
    action, think = decision
    assert think > 0


def test_human_lapses_sometimes_skip_actions():
    app = create_benchmark("RE", rng=StreamRandom(1))
    human = HumanPlayer(app, rng=StreamRandom(2), lapse_probability=0.5)
    frame = app.advance(1 / 30)
    decisions = [human.decide(frame, 0.0) for _ in range(200)]
    assert any(d is None for d in decisions)
    assert any(d is not None for d in decisions)


def test_human_follows_ground_truth_direction():
    app = create_benchmark("RE", rng=StreamRandom(1))
    human = HumanPlayer(app, rng=StreamRandom(2), skill=0.95, lapse_probability=0.0)
    frame = app.advance(1 / 30)
    ideal = app.correct_action(frame)
    steers = [human.policy(frame).steer for _ in range(100)]
    assert np.mean(steers) == pytest.approx(ideal.steer, abs=0.2)


def test_human_validation():
    app = create_benchmark("RE", rng=StreamRandom(1))
    with pytest.raises(ValueError):
        HumanPlayer(app, skill=0.0)
    with pytest.raises(ValueError):
        HumanPlayer(app, lapse_probability=1.0)


# --- recorder -----------------------------------------------------------------------

def test_recording_contains_frame_action_pairs(recorded_session):
    assert len(recorded_session) > 20
    assert recorded_session.benchmark == "RE"
    assert recorded_session.duration > 0
    step = recorded_session.steps[0]
    assert step.frame.objects is not None
    assert -1.0 <= step.action.steer <= 1.0


def test_recording_rate_is_close_to_human_apm(recorded_session):
    app = create_benchmark("RE", rng=StreamRandom(11))
    assert recorded_session.actions_per_minute == pytest.approx(
        app.profile.human_apm, rel=0.35)


def test_label_vectors_have_expected_shape(recorded_session):
    labels = recorded_session.feature_matrix()
    assert labels.shape == (len(recorded_session), 30)
    assert labels.min() >= 0.0 and labels.max() <= 1.0


def test_action_matrix_shape(recorded_session):
    actions = recorded_session.action_matrix()
    assert actions.shape == (len(recorded_session), 3)


def test_recorder_validation():
    recorder = SessionRecorder()
    app = create_benchmark("RE", rng=StreamRandom(11))
    human = HumanPlayer(app, rng=StreamRandom(12))
    with pytest.raises(ValueError):
        recorder.record(app, human, duration_s=0.0)


# --- CNN --------------------------------------------------------------------------------

def test_convnet_output_shapes():
    net = ConvNet(ConvNetConfig())
    output = net.predict(np.zeros((36, 64, 3)))
    assert output.shape == (30,)
    assert net.forward(np.zeros((4, 36, 64, 3))).shape == (4, 30)


def _im2col_loop(images, kernel, stride):
    """The original per-window loop, kept as the reference."""
    n, height, width, channels = images.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    columns = np.empty((n, out_h, out_w, kernel * kernel * channels),
                       dtype=images.dtype)
    for row in range(out_h):
        for col in range(out_w):
            r0 = row * stride
            c0 = col * stride
            patch = images[:, r0:r0 + kernel, c0:c0 + kernel, :]
            columns[:, row, col, :] = patch.reshape(n, -1)
    return columns


@pytest.mark.parametrize("n,height,width,kernel,stride", [
    (1, 36, 64, 5, 3),    # the default network; 64 - 5 is not a multiple of 3
    (3, 36, 64, 5, 3),
    (1, 9, 9, 3, 1),
    (2, 10, 11, 3, 2),    # the last window stops one short of the edge
    (1, 12, 13, 5, 2),
    (2, 17, 14, 5, 3),    # both axes stop short
    (4, 8, 8, 3, 3),
])
def test_im2col_matches_the_loop_bit_for_bit(n, height, width, kernel, stride):
    images = np.random.default_rng(height * width + stride).normal(
        size=(n, height, width, 3))
    columns = _im2col(images, kernel, stride)
    expected = _im2col_loop(images, kernel, stride)
    assert columns.shape == expected.shape
    assert columns.dtype == expected.dtype
    assert columns.tobytes() == expected.tobytes()


def test_convnet_rejects_wrong_input_shape():
    net = ConvNet()
    with pytest.raises(ValueError):
        net.predict(np.zeros((10, 10, 3)))


def test_convnet_training_reduces_loss(recorded_session):
    net = ConvNet(ConvNetConfig(epochs=6))
    net.train(recorded_session.images(), recorded_session.feature_matrix(),
              epochs=6)
    assert len(net.training_losses) == 6
    assert net.training_losses[-1] < net.training_losses[0]


def test_convnet_training_validates_alignment():
    net = ConvNet()
    with pytest.raises(ValueError):
        net.train(np.zeros((4, 36, 64, 3)), np.zeros((5, 30)))


# --- LSTM -------------------------------------------------------------------------------

def test_lstm_prediction_shape_and_state():
    lstm = Lstm(LstmConfig(input_units=30))
    out1 = lstm.predict(np.zeros(30))
    assert out1.shape == (3,)
    # State carries over: a second identical input can give a different output.
    out2 = lstm.predict(np.zeros(30))
    lstm.reset_state()
    out3 = lstm.predict(np.zeros(30))
    assert np.allclose(out1, out3)
    assert out1.shape == out2.shape


def test_lstm_rejects_wrong_feature_size():
    lstm = Lstm(LstmConfig(input_units=30))
    with pytest.raises(ValueError):
        lstm.predict(np.zeros(7))


def test_lstm_training_reduces_loss():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(120, 30))
    # Learnable mapping: action depends linearly on two feature columns.
    actions = np.stack([features[:, 0] * 0.5, features[:, 1] * -0.5,
                        (features[:, 2] > 0).astype(float)], axis=1)
    lstm = Lstm(LstmConfig(input_units=30, epochs=30))
    lstm.train(features, actions, epochs=30)
    assert lstm.training_losses[-1] < lstm.training_losses[0]


def test_lstm_training_validation():
    lstm = Lstm(LstmConfig(input_units=30))
    with pytest.raises(ValueError):
        lstm.train(np.zeros((5, 30)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        lstm.train(np.zeros((1, 30)), np.zeros((1, 3)))


# --- object detector -----------------------------------------------------------------------

def test_detector_trains_and_describes_frames(recorded_session):
    detector = ObjectDetector()
    targets = recorded_session.feature_matrix()
    detector.train(recorded_session.images(), targets, epochs=6)
    predictions = np.stack([detector.features(step.frame)
                            for step in recorded_session.steps])
    assert predictions.shape == targets.shape
    assert float(np.mean(np.abs(predictions - targets))) < 0.35


def test_recording_images_match_frame_pixels_without_caching(recorded_session):
    steps = [RecordedStep(time=step.time, frame=Frame(objects=step.frame.objects),
                          action=step.action)
             for step in recorded_session.steps[:5]]
    images = RecordedSession(benchmark="RE", steps=steps).images()
    assert all(step.frame._pixels is None for step in steps)
    expected = np.stack([step.frame.pixels for step in steps])
    assert images.tobytes() == expected.tobytes()


def test_detector_requires_non_empty_session():
    detector = ObjectDetector()
    with pytest.raises(ValueError):
        detector.train(np.zeros((0, 36, 64, 3)), np.zeros((0, 30)))
