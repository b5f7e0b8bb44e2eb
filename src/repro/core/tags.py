"""Input tags and the per-input tracking record.

Every user input captured at the client proxy is given a unique tag
(hook1).  The tag travels with the input to the server, is saved by the
application's input hook, embedded into the pixels of the response frame
during readback, restored and extracted by the server proxy, and finally
matched back to the original input when the frame arrives at the client
(hook10).  The :class:`InputRecord` accumulates the timestamps and stage
durations observed along that path; the round-trip time and its
breakdown fall out of it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.graphics.pipeline import Stage

__all__ = ["InputRecord", "TagGenerator"]


class TagGenerator:
    """Allocates unique, monotonically increasing input tags.

    Each client proxy owns one generator; a namespace offset keeps tags
    globally unique when several clients run against the same server.
    """

    def __init__(self, namespace: int = 0, capacity: int = 1_000_000):
        if namespace < 0:
            raise ValueError("namespace must be non-negative")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.namespace = namespace
        self.capacity = capacity
        self._next = 0

    def next_tag(self) -> int:
        if self._next >= self.capacity:
            raise OverflowError(
                f"tag namespace {self.namespace} exhausted after {self.capacity} tags")
        tag = self.namespace * self.capacity + self._next
        self._next += 1
        return tag

    @property
    def issued(self) -> int:
        return self._next


@dataclass
class InputRecord:
    """Everything Pictor learns about one tracked user input."""

    tag: int
    kind: str
    created_at: float                       # hook1 timestamp at the client
    payload: object = None
    #: Timestamps of each hook along the path, keyed by hook name.
    hook_timestamps: dict[str, float] = field(default_factory=dict)
    #: Durations of each pipeline stage attributed to this input, seconds.
    stage_durations: dict[str, float] = field(default_factory=dict)
    #: GPU time spent rendering the response frame (from the GL time query).
    gpu_render_time: Optional[float] = None
    response_frame_id: Optional[int] = None
    completed_at: Optional[float] = None    # hook10 timestamp at the client

    # -- recording ------------------------------------------------------------
    def mark_hook(self, hook_name: str, timestamp: float) -> None:
        self.hook_timestamps[hook_name] = timestamp

    def record_stage(self, stage: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative duration for stage {stage}: {duration}")
        self.stage_durations[stage] = self.stage_durations.get(stage, 0.0) + duration

    def complete(self, timestamp: float, frame_id: Optional[int] = None) -> None:
        self.completed_at = timestamp
        if frame_id is not None:
            self.response_frame_id = frame_id

    # -- derived quantities --------------------------------------------------------
    @property
    def is_complete(self) -> bool:
        return self.completed_at is not None

    @property
    def rtt(self) -> Optional[float]:
        """Round-trip time from capture (hook1) to display (hook10)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at

    @property
    def network_time(self) -> Optional[float]:
        cs = self.stage_durations.get(Stage.CS)
        ss = self.stage_durations.get(Stage.SS)
        if cs is None and ss is None:
            return None
        return (cs or 0.0) + (ss or 0.0)

    def breakdown(self) -> dict[str, float]:
        """Stage → seconds, for RTT decomposition figures."""
        return dict(self.stage_durations)
