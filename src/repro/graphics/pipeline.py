"""Software-pipeline vocabulary shared across the repository.

Figure 5 of the paper names the stages of the remote-rendering software
pipeline; every measurement in Sections 4–6 is expressed in terms of
them.  This module defines the canonical stage identifiers, the
per-stage timing accumulator used by sessions and by Pictor's analysis
framework, and the pipeline configuration switches (most importantly the
two Section-6 optimizations and the measurement-framework toggle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PipelineConfig", "STAGES", "Stage", "StageTimings"]


class Stage:
    """Canonical stage names (Figure 5)."""

    CS = "CS"   # client sends the input over the network
    SP = "SP"   # server proxy parses the input message
    PS = "PS"   # proxy sends (injects) the input into the application
    AL = "AL"   # application logic for the frame
    RD = "RD"   # GPU rendering
    FC = "FC"   # frame copy from GPU memory (glReadPixels over PCIe)
    AS = "AS"   # application sends the frame to the server proxy (SHM)
    CP = "CP"   # server proxy compresses the frame
    SS = "SS"   # server sends the frame over the network to the client
    CD = "CD"   # client decodes and displays the frame

    #: Stages that execute on the server between receiving an input and
    #: emitting its response frame (the "server time" of Figure 12).
    SERVER_STAGES = (SP, PS, AL, RD, FC, AS, CP)
    #: Stages inside the application / interposer (Figure 13).
    APPLICATION_STAGES = (AL, FC, RD)
    #: Network stages (Figure 11).
    NETWORK_STAGES = (CS, SS)


#: Every stage, in pipeline order.
STAGES = (Stage.CS, Stage.SP, Stage.PS, Stage.AL, Stage.RD, Stage.FC,
          Stage.AS, Stage.CP, Stage.SS, Stage.CD)


@dataclass
class StageTimings:
    """Per-stage latency samples collected during a run."""

    samples: dict[str, list[float]] = field(default_factory=dict)

    def record(self, stage: str, duration: float) -> None:
        if stage not in STAGES:
            raise ValueError(f"unknown pipeline stage {stage!r}")
        if duration < 0:
            raise ValueError(f"negative stage duration for {stage}: {duration}")
        self.samples.setdefault(stage, []).append(duration)

    def count(self, stage: str) -> int:
        return len(self.samples.get(stage, []))

    def mean(self, stage: str) -> float:
        values = self.samples.get(stage)
        if not values:
            return 0.0
        return float(np.mean(values))

    def percentile(self, stage: str, q: float) -> float:
        values = self.samples.get(stage)
        if not values:
            return 0.0
        return float(np.percentile(values, q))

    def merge(self, other: "StageTimings") -> None:
        for stage, values in other.samples.items():
            self.samples.setdefault(stage, []).extend(values)


@dataclass
class PipelineConfig:
    """Configuration switches of one rendering session.

    ``measurement_enabled``
        Whether Pictor's performance analysis framework (API hooks, tags,
        GPU time queries) is active.  Turning it off reproduces the native
        TurboVNC baseline used in the Section-4 overhead evaluation.
    ``double_buffered_queries``
        Use two GPU query buffers and alternate between frames (the low-
        overhead configuration); with a single buffer the CPU stalls on
        query retrieval and overhead grows to ~10%.
    ``memoize_window_attributes``
        Section-6 optimization 1: cache XGetWindowAttributes results.
    ``two_step_frame_copy``
        Section-6 optimization 2: split the frame copy into asynchronous
        start/finish halves so the application thread never stalls on PCIe.
    ``containerized``
        Run the session (application + VNC proxy) inside a container.
    """

    measurement_enabled: bool = True
    double_buffered_queries: bool = True
    memoize_window_attributes: bool = False
    two_step_frame_copy: bool = False
    containerized: bool = False
    target_width: int = 1920
    target_height: int = 1080
