"""Chen et al.'s cloud-gaming measurement methodology.

Chen et al. measure cloud gaming systems with real human players but
without any input tracking, so they cannot observe the round-trip time at
the client.  Instead they *reconstruct* RTT by summing the stages they
can measure on the server: input network time (CS), input parsing (SP),
application logic (AL), compression (CP) and frame network time (SS).
The paper identifies two systematic errors in that reconstruction
(Section 4):

* the AL latency is measured **offline**, without the VNC proxy running,
  so it misses the CPU/memory contention between the game and the proxy;
* the inter-process-communication stages (PS, frame copy FC, and the
  application-to-proxy hand-off AS) are invisible without tracking and
  are simply dropped.

Both errors push the estimate down, which is why the methodology
under-reports mean RTT by ~30% on the paper's testbed.  This module
reproduces the estimator so the error can be reproduced too.
"""

from __future__ import annotations


import numpy as np

from repro.apps.base import ApplicationProfile
from repro.core.measurements import LatencyStats
from repro.core.tags import InputRecord
from repro.core.tracker import InputTracker
from repro.graphics.pipeline import Stage

__all__ = ["ChenMethodology"]


class ChenMethodology:
    """Stage-sum RTT estimation without input tracking."""

    #: Stages the methodology can observe and therefore sums.
    OBSERVED_STAGES = (Stage.CS, Stage.SP, Stage.AL, Stage.CP, Stage.SS)

    def __init__(self, profile: ApplicationProfile,
                 offline_al_scale: float = 1.0):
        """``offline_al_scale`` rescales the profile's idle-machine AL time
        if the offline measurement environment differs from the deployment
        machine (1.0 = identical hardware)."""
        if offline_al_scale <= 0:
            raise ValueError("offline_al_scale must be positive")
        self.profile = profile
        self.offline_al_scale = offline_al_scale

    # -- per-input estimation ------------------------------------------------------
    def offline_al_time(self) -> float:
        """The application-logic latency as measured offline (no proxy contention)."""
        return self.profile.al_ms * 1e-3 * self.offline_al_scale

    def estimate_rtt(self, record: InputRecord) -> float:
        """Reconstruct one input's RTT the way the methodology would."""
        total = 0.0
        for stage in self.OBSERVED_STAGES:
            if stage == Stage.AL:
                total += self.offline_al_time()
            else:
                total += record.stage_durations.get(stage, 0.0)
        return total

    # -- aggregate estimation ----------------------------------------------------------
    def estimate_rtts(self, tracker: InputTracker) -> list[float]:
        """Reconstructed RTTs for every completed input of a human-driven run."""
        return [self.estimate_rtt(record) for record in tracker.completed_records()]

    def rtt_stats(self, tracker: InputTracker) -> LatencyStats:
        return LatencyStats.from_samples(self.estimate_rtts(tracker))

    def mean_rtt(self, tracker: InputTracker) -> float:
        rtts = self.estimate_rtts(tracker)
        return float(np.mean(rtts)) if rtts else 0.0
