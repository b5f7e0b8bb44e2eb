"""Session recording: capturing frames and the human actions they caused.

The intelligent client framework "provides tools to perform this
recording" (Section 3.1): a human plays one scene of the application and
the framework stores the sequence of frames together with the action the
human issued for each.  The recorded session is then used twice —

* the frames are labelled (automatically here, from the scene's known
  objects, standing in for the ~4 hours of manual labelling per title)
  and used to train the CNN;
* the (recognized objects → action) pairs train the LSTM;

and the same recording is what DeskBench-style record-and-replay tools
play back, which is why both consume the identical data structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.apps.base import Action, Application3D
from repro.graphics.frame import Frame, ObjectClass
from repro.sim.randomness import StreamRandom

__all__ = ["RecordedSession", "RecordedStep", "SessionRecorder"]


@dataclass
class RecordedStep:
    """One (frame, action) pair with its timestamp in the recording."""

    time: float
    frame: Frame
    action: Action

    def label_vector(self) -> np.ndarray:
        """The frame's ground-truth object labels (the "manual" annotation).

        For each object class: [presence, mean_x, mean_y], flattened.  Only
        the objects that determine user inputs are labelled, matching the
        paper's note that labelling is fast because only those matter.
        """
        classes = list(ObjectClass)
        labels = np.zeros(len(classes) * 3)
        for index, object_class in enumerate(classes):
            members = self.frame.objects_of_class(object_class)
            if not members:
                continue
            labels[index * 3] = 1.0
            labels[index * 3 + 1] = float(np.mean([o.x for o in members]))
            labels[index * 3 + 2] = float(np.mean([o.y for o in members]))
        return labels


@dataclass
class RecordedSession:
    """A full recording of one scene played by a human."""

    benchmark: str
    steps: list[RecordedStep] = field(default_factory=list)
    frame_interval: float = 1.0 / 30.0

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def duration(self) -> float:
        if not self.steps:
            return 0.0
        return self.steps[-1].time - self.steps[0].time + self.frame_interval

    @property
    def actions_per_minute(self) -> float:
        if self.duration <= 0:
            return 0.0
        return len(self.steps) / self.duration * 60.0

    def frames(self) -> list[Frame]:
        return [step.frame for step in self.steps]

    def actions(self) -> list[Action]:
        return [step.action for step in self.steps]

    def images(self) -> np.ndarray:
        """Stacked pixel buffers (N × H × W × 3), the CNN's inputs.

        Rasterized afresh, so the recorded frames keep no pixel cache: a
        trained agent carries its recording without ~55 KB of pixels per frame.
        """
        return np.stack([step.frame.rasterize() for step in self.steps])

    def feature_matrix(self) -> np.ndarray:
        """Stacked label vectors (the CNN training targets)."""
        return np.stack([step.label_vector() for step in self.steps])

    def action_matrix(self) -> np.ndarray:
        """Stacked action vectors (the LSTM training targets)."""
        return np.stack([step.action.as_vector() for step in self.steps])


class SessionRecorder:
    """Records a human playing one application scene.

    The recording runs *offline* — it steps the application directly at a
    fixed frame rate, without the cloud rendering pipeline — exactly like
    recording on a local workstation before deploying the benchmark.
    """

    def __init__(self, rng: Optional[StreamRandom] = None):
        self.rng = rng or StreamRandom(0)

    def record(self, app: Application3D, player, duration_s: float = 60.0,
               frame_rate: float = 30.0) -> RecordedSession:
        """Record ``player`` interacting with ``app`` for ``duration_s`` seconds."""
        if duration_s <= 0:
            raise ValueError("recording duration must be positive")
        if frame_rate <= 0:
            raise ValueError("frame rate must be positive")

        interval = 1.0 / frame_rate
        session = RecordedSession(benchmark=app.profile.short_name,
                                  frame_interval=interval)
        action_period = 1.0 / max(player.actions_per_second, 1e-6)
        time_since_action = action_period  # act on the very first frame

        now = 0.0
        frame = app.advance(interval)
        while now < duration_s:
            time_since_action += interval
            if time_since_action >= action_period:
                decision = player.decide(frame, now)
                if decision is not None:
                    action, _think = decision
                    app.apply_actions([action])
                    session.steps.append(RecordedStep(time=now, frame=frame,
                                                      action=action))
                time_since_action = 0.0
            frame = app.advance(interval)
            now += interval
        return session
