"""DeskBench / VNCPlay-style record-and-replay input generation.

DeskBench replays a recorded human session, but it does not replay on a
timer alone: each recorded action also stored the screen content at the
moment it was issued, and during replay the action is only injected once
the currently displayed frame is sufficiently *similar* to the recorded
one (or a timeout expires).  That works well for 2D desktop applications
whose windows, icons and text always look the same, and it tolerates
network-latency variation.  It breaks down for 3D applications: the same
logical object appears with different pixels and positions depending on
viewing angle and the random flow of events, so the similarity gate
rarely opens and actions are issued late (or only at the timeout), which
distorts the measured performance — the paper reports an 11.6% average
mean-RTT error versus human-driven runs, against Pictor's 1.6%.

The similarity threshold is the tunable parameter the paper mentions;
:meth:`DeskBenchClient.sweep_thresholds` reproduces the methodology of
picking the best-performing value.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agents.recorder import RecordedSession
from repro.apps.base import Action, Application3D, InputKind
from repro.graphics.frame import Frame
from repro.sim.randomness import StreamRandom

__all__ = ["DeskBenchClient"]


def _recorded_raster(frame: Frame) -> np.ndarray:
    """A recorded frame's pixel buffer, owned by the caller: a fresh
    raster, which equals ``frame.pixels`` bit for bit, so the frame (part
    of a memoized recording) keeps no cache.  A tagged frame's cached
    buffer may carry its embedded tag, so that buffer is used instead."""
    return frame.rasterize() if frame.tag is None else frame.pixels


class DeskBenchClient:
    """Replays a recorded session gated on frame similarity."""

    def __init__(self, app: Application3D, recording: RecordedSession,
                 similarity_threshold: float = 0.04,
                 timeout_s: float = 1.5,
                 rng: Optional[StreamRandom] = None):
        if len(recording) == 0:
            raise ValueError("cannot replay an empty recording")
        if similarity_threshold <= 0:
            raise ValueError("similarity_threshold must be positive")
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        self.app = app
        self.recording = recording
        self.similarity_threshold = similarity_threshold
        self.timeout_s = timeout_s
        self.rng = rng or StreamRandom(0)
        self._index = 0
        self._waiting_since: Optional[float] = None
        self.actions_replayed = 0
        self.actions_delayed = 0
        self.wait_times: list[float] = []
        #: Step index -> its recorded raster, built on first comparison.
        self._rasters: dict[int, np.ndarray] = {}

    # -- agent interface ------------------------------------------------------------
    @property
    def input_kind(self) -> InputKind:
        return self.app.profile.input_kind

    @property
    def actions_per_second(self) -> float:
        """The replay is polled at the recording's native action rate."""
        return max(self.recording.actions_per_minute / 60.0, 0.5)

    def decide(self, frame: Optional[Frame], now: float):
        """Issue the next recorded action iff the frame matches the recording."""
        if self._index >= len(self.recording.steps):
            self._index = 0  # loop the recording, like a benchmark run would
        step = self.recording.steps[self._index]

        if self._waiting_since is None:
            self._waiting_since = now

        matches = frame is not None and self._similar(frame, self._index)
        timed_out = (now - self._waiting_since) >= self.timeout_s
        if not matches and not timed_out:
            return None  # keep waiting for the expected screen content

        waited = now - self._waiting_since
        self.wait_times.append(waited)
        if timed_out and not matches:
            self.actions_delayed += 1
        self._index += 1
        self._waiting_since = None
        self.actions_replayed += 1
        action = Action(steer=step.action.steer, pitch=step.action.pitch,
                        primary=step.action.primary)
        replay_overhead = self.rng.uniform(0.001, 0.004)
        return action, replay_overhead

    # -- similarity gate -----------------------------------------------------------------
    def _similar(self, current: Frame, index: int) -> bool:
        raster = self._rasters.get(index)
        if raster is None:
            raster = self._rasters[index] = _recorded_raster(
                self.recording.steps[index].frame)
        return current.pixel_difference(raster) <= self.similarity_threshold

    def match_rate(self) -> float:
        """Fraction of replayed actions issued by a genuine frame match."""
        if self.actions_replayed == 0:
            return 0.0
        return 1.0 - self.actions_delayed / self.actions_replayed

    # -- threshold tuning -----------------------------------------------------------------
    @staticmethod
    def sweep_thresholds(app: Application3D, recording: RecordedSession,
                         thresholds=(0.01, 0.02, 0.04, 0.08, 0.16),
                         probe_frames: int = 60) -> float:
        """Pick the threshold that maximizes genuine matches on held-out frames.

        Mirrors the paper's note that the DeskBench results use the best
        parameter value found by sweeping.
        """
        if not thresholds:
            raise ValueError("need at least one threshold to sweep")
        probe = type(app)(rng=StreamRandom(12345))
        frames = [probe.advance(1.0 / 30.0) for _ in range(probe_frames)]
        rasters = [_recorded_raster(step.frame) for step in recording.steps[:20]]
        best_threshold, best_matches = thresholds[0], -1
        for threshold in thresholds:
            matches = 0
            for frame in frames:
                for raster in rasters:
                    if frame.pixel_difference(raster) <= threshold:
                        matches += 1
                        break
            if matches > best_matches:
                best_matches, best_threshold = matches, threshold
        return best_threshold
