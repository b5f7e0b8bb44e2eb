"""The intelligent client: CNN + LSTM driving a benchmark like a human.

The client operates exactly as Figure 3 describes: it receives a
decompressed frame, runs the CNN to recognize the objects, feeds the
recognized objects into the LSTM to generate the user input, and hands
that input to the client proxy for delivery to the server.  Because the
actions are generated purely from what is on screen, the client copes
with randomly generated/placed objects and with varying network latency —
the two properties that defeat record-and-replay input generation.

The inference *latency* the client exhibits inside the simulation is a
modelled quantity (Figure 7 reports ~72.7 ms for the CNN and ~1.9 ms for
the LSTM on the paper's client machines); the inference *computation* is
performed for real by the numpy models so the full pipeline is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.agents.human import HumanPlayer
from repro.agents.recorder import RecordedSession, SessionRecorder
from repro.agents.rnn import Lstm, LstmConfig
from repro.agents.vision import ObjectDetector
from repro.apps.base import Action, Application3D, InputKind
from repro.graphics.frame import Frame
from repro.sim.randomness import StreamRandom

__all__ = ["InferenceTimingModel", "IntelligentClient", "train_intelligent_client"]


@dataclass(frozen=True)
class InferenceTimingModel:
    """Per-application inference latency on the thin client machine.

    Figure 7: computer-vision (CNN) inference averages 72.7 ms across the
    suite (heavier scenes take longer) and input generation (LSTM) averages
    1.9 ms.  Together they allow ~804 actions per minute, comfortably above
    a professional player's ~300 APM.
    """

    cv_mean_ms: float = 72.7
    cv_std_ms: float = 12.0
    rnn_mean_ms: float = 1.9
    rnn_std_ms: float = 0.5

    def sample_cv_time(self, rng: StreamRandom) -> float:
        return rng.truncated_normal(self.cv_mean_ms * 1e-3, self.cv_std_ms * 1e-3,
                                    low=0.01, high=0.3)

    def sample_rnn_time(self, rng: StreamRandom) -> float:
        return rng.truncated_normal(self.rnn_mean_ms * 1e-3, self.rnn_std_ms * 1e-3,
                                    low=0.0005, high=0.02)

    @property
    def max_actions_per_minute(self) -> float:
        """Upper bound on the client's action rate set by inference speed."""
        return 60.0 / ((self.cv_mean_ms + self.rnn_mean_ms) * 1e-3)


#: Per-benchmark CV inference times (ms), scaled with scene complexity so
#: the Figure 7 per-application variation is preserved.
DEFAULT_CV_TIMES_MS: dict[str, float] = {
    "STK": 78.0, "0AD": 84.0, "RE": 66.0, "D2": 81.0, "IM": 62.0, "ITP": 65.0,
}


class IntelligentClient:
    """A trained CNN+LSTM agent for one benchmark scene."""

    def __init__(self, app: Application3D, detector: ObjectDetector, policy: Lstm,
                 rng: Optional[StreamRandom] = None,
                 timing: Optional[InferenceTimingModel] = None):
        self.app = app
        self.detector = detector
        self.policy = policy
        self.rng = rng or StreamRandom(0)
        cv_ms = DEFAULT_CV_TIMES_MS.get(app.profile.short_name, 72.7)
        self.timing = timing or InferenceTimingModel(cv_mean_ms=cv_ms)
        self.actions_issued = 0
        self.cv_times: list[float] = []
        self.rnn_times: list[float] = []

    # -- agent interface ----------------------------------------------------------
    @property
    def input_kind(self) -> InputKind:
        return self.app.profile.input_kind

    @property
    def actions_per_second(self) -> float:
        """The client mimics the human's action *rate* for the scene.

        It could act faster (up to ``timing.max_actions_per_minute``), but
        the goal is performance results that match human-driven runs, so it
        issues inputs at the learned human cadence.
        """
        return self.app.profile.actions_per_second

    def decide(self, frame: Optional[Frame], now: float):
        """Run CV + input generation on the latest frame (Figure 3, steps 3–4)."""
        cv_time = self.timing.sample_cv_time(self.rng)
        rnn_time = self.timing.sample_rnn_time(self.rng)
        self.cv_times.append(cv_time)
        self.rnn_times.append(rnn_time)

        if frame is None:
            action = Action(steer=0.0, pitch=0.0, primary=True)
        else:
            features = self.detector.features(frame)
            vector = self.policy.predict(features)
            action = Action.from_vector(np.asarray(vector))
        self.actions_issued += 1
        return action, cv_time + rnn_time

    def bound_to(self, app: Application3D) -> "IntelligentClient":
        """Attach this trained client to a freshly created application.

        The supported re-binding seam for
        :func:`~repro.experiments.accuracy.run_custom` agent factories
        and warm artefact replays: the client keeps its inference RNG
        stream and timing accumulators (a run that continues with the
        same client must continue the same stream, exactly as the fused
        train-then-measure path did) while the policy's recurrent state
        is cleared so every run starts from the trained-and-reset state.
        Returns ``self`` so factories can be written as
        ``lambda app: client.bound_to(app)``.
        """
        self.app = app
        self.policy.reset_state()
        return self

    # -- reporting -------------------------------------------------------------------
    def mean_cv_time(self) -> float:
        return float(np.mean(self.cv_times)) if self.cv_times else 0.0

    def mean_rnn_time(self) -> float:
        return float(np.mean(self.rnn_times)) if self.rnn_times else 0.0

    def achievable_apm(self) -> float:
        """Actions per minute the client could sustain at full inference speed."""
        per_action = self.mean_cv_time() + self.mean_rnn_time()
        if per_action <= 0:
            return self.timing.max_actions_per_minute
        return 60.0 / per_action

    def imitation_error(self, session: RecordedSession) -> float:
        """Mean action-vector error against a recorded human session."""
        if len(session) == 0:
            raise ValueError("cannot evaluate on an empty recorded session")
        features = np.stack([self.detector.net.predict(image)
                             for image in session.images()])
        predictions = self.policy.predict_sequence(features)
        targets = session.action_matrix()
        return float(np.mean(np.abs(predictions - targets)))


def train_intelligent_client(app: Application3D,
                             rng: Optional[StreamRandom] = None,
                             recording_seconds: float = 20.0,
                             frame_rate: float = 30.0,
                             cnn_epochs: int = 20,
                             lstm_epochs: int = 40,
                             recorded_session: Optional[RecordedSession] = None,
                             ) -> tuple[IntelligentClient, RecordedSession]:
    """Record a human session for ``app`` and train an intelligent client on it.

    Returns the trained client together with the recorded session (which
    the DeskBench baseline and the accuracy evaluation reuse).
    """
    rng = rng or StreamRandom(0)
    if recorded_session is None:
        recorder = SessionRecorder(rng=rng)
        human = HumanPlayer(type(app)(rng=StreamRandom(rng.seed + 1)),
                            rng=StreamRandom(rng.seed + 2))
        recorded_session = recorder.record(human.app, human,
                                           duration_s=recording_seconds,
                                           frame_rate=frame_rate)

    # One uncached raster array feeds both models.  The LSTM features
    # are predicted one image at a time, exactly as inference sees them:
    # a batched forward may take another BLAS path and change bits.
    images = recorded_session.images()
    detector = ObjectDetector()
    detector.train(images, recorded_session.feature_matrix(), epochs=cnn_epochs)

    features = np.stack([detector.net.predict(image) for image in images])
    actions = recorded_session.action_matrix()
    policy = Lstm(LstmConfig(input_units=features.shape[1]))
    policy.train(features, actions, epochs=lstm_epochs)
    policy.reset_state()

    client = IntelligentClient(app, detector, policy, rng=rng)
    return client, recorded_session
