"""GPU time measurement via GL time-query objects.

CPU-side hook timestamps cannot observe how long the GPU spent rendering
a frame, so Pictor inserts GL_TIME_ELAPSED query objects around the
rendering of each frame (start at hook5, stop at the following hook6).
Retrieving a query result before the GPU has produced it stalls the CPU;
Pictor therefore keeps *two* query buffers and alternates between frames,
collecting frame *i−1*'s (already completed) result while frame *i*
renders.  The paper measures ~2.7% average FPS overhead with the double
buffer and up to ~10% without it (Section 4).
"""

from __future__ import annotations

from typing import Optional

from repro.graphics.opengl import GlContext, GlQuery
from repro.sim.engine import Environment

__all__ = ["GpuTimeQueryManager"]


class GpuTimeQueryManager:
    """Manages per-frame GPU time queries for one rendering session.

    It holds at most two live queries and keeps results only as the
    ``gpu_times`` samples :meth:`mean_gpu_time` averages.
    """

    def __init__(self, env: Environment, gl: GlContext,
                 double_buffered: bool = True):
        self.env = env
        self.gl = gl
        self.double_buffered = double_buffered
        self._buffers: list[Optional[GlQuery]] = [None, None]
        self._active_buffer = 0
        self.gpu_times: list[float] = []
        self.stall_time_total = 0.0

    # -- hook5: begin a query around the new frame's rendering -----------------
    def begin_frame(self, frame) -> GlQuery:
        """Issue the time query for ``frame`` (called from hook5)."""
        query = self.gl.swap_buffers(frame, with_query=True)
        self._buffers[self._active_buffer] = query
        return query

    # -- hook6: collect a result --------------------------------------------------
    def collect(self):
        """Generator: retrieve one query result (called from hook6).

        With double buffering the *other* buffer's query — covering the
        previous frame, whose rendering has long finished — is read, so the
        call returns immediately.  With a single buffer the current frame's
        query is read and the CPU stalls until the GPU completes.
        Returns the GPU time retrieved (or None when nothing was pending).
        The stall time is visible as simulated time passing inside the call
        and is also accumulated in ``stall_time_total``.
        """
        if self.double_buffered:
            read_index = 1 - self._active_buffer
            self._active_buffer = read_index
        else:
            read_index = self._active_buffer

        query = self._buffers[read_index]
        if query is None:
            return None

        stall_started = self.env.now
        gpu_time = yield from self.gl.get_query_result(query, blocking=True)
        self.stall_time_total += self.env.now - stall_started

        self._buffers[read_index] = None
        if gpu_time is not None:
            self.gpu_times.append(gpu_time)
        return gpu_time

    # -- reporting -------------------------------------------------------------------
    def mean_gpu_time(self) -> float:
        if not self.gpu_times:
            return 0.0
        return sum(self.gpu_times) / len(self.gpu_times)

    @property
    def collected(self) -> int:
        return len(self.gpu_times)
