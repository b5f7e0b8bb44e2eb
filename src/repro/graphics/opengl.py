"""OpenGL command layer (the Mesa analogue).

The application (or its rendering engine) calls into this layer to draw
frames.  The calls Pictor intercepts (Table 1) appear here with their
real names:

``swap_buffers``  (glXSwapBuffers / glutSwapBuffers, hook5)
    Submits the back buffer's frame to the GPU.  Like the real call under
    a compositing interposer, it does not block for the rendering to
    finish: the GPU works asynchronously while the CPU moves on.

``read_pixels``  (glReadBuffer + glReadPixels, hook6)
    Synchronously reads the rendered frame back across PCIe.  This is the
    slow path VirtualGL uses and the frame-copy (FC) stage is built on it.

``GlQuery``  (GL_TIME_ELAPSED query objects)
    GPU timestamps used by Pictor's GPU-time measurement; retrieving a
    result before the GPU has produced it stalls the CPU, which is why
    Pictor double-buffers its queries (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graphics.frame import Frame
from repro.graphics.framebuffer import Framebuffer
from repro.hardware.gpu import GpuRenderJob, RenderContext
from repro.hardware.pcie import PcieBus
from repro.sim.engine import Environment, Process, SimulationError

__all__ = ["GlContext", "GlQuery"]


@dataclass
class GlQuery:
    """A GL_TIME_ELAPSED query covering one frame's GPU rendering."""

    frame_id: int
    submitted_at: float
    result_ready_at: Optional[float] = None
    gpu_time: Optional[float] = None

    @property
    def is_ready(self) -> bool:
        return self.result_ready_at is not None


class GlContext:
    """One application's OpenGL rendering context.

    It maps only the frames still on the GPU to their render processes: a
    finished render drops its entry and leaves its job on the frame.
    """

    def __init__(self, env: Environment, render_context: RenderContext,
                 pcie: PcieBus, framebuffer: Optional[Framebuffer] = None,
                 readback_stall_ms: float = 4.0,
                 base_render_time_s: float = 0.008):
        self.env = env
        self.render_context = render_context
        self.pcie = pcie
        self.framebuffer = framebuffer or Framebuffer()
        # glReadPixels forces a pipeline flush / format conversion before the
        # DMA starts; this is the fixed part of that stall.
        self.readback_stall_ms = readback_stall_ms
        # Nominal GPU time for a complexity-1.0 frame on an idle GPU.
        self.base_render_time_s = base_render_time_s
        self._pending_renders: dict[int, Process] = {}
        self.frames_submitted = 0
        self.frames_read_back = 0

    # -- drawing --------------------------------------------------------------
    def swap_buffers(self, frame: Frame, with_query: bool = False) -> Optional[GlQuery]:
        """Submit the frame's rendering to the GPU (hook5). Non-blocking.

        Returns the time query covering this frame when ``with_query`` is
        set (the measurement framework's hook5 requests one).
        """
        if self.framebuffer.back is not frame:
            self.framebuffer.attach_back(frame)
        query: Optional[GlQuery] = None
        if with_query:
            query = GlQuery(frame_id=frame.frame_id, submitted_at=self.env.now)

        process = self.env.process(self._render(frame, query))
        self._pending_renders[frame.frame_id] = process
        self.frames_submitted += 1
        return query

    def _render(self, frame: Frame, query: Optional[GlQuery]):
        job = yield from self.render_context.render(
            nominal_time=frame.complexity * self.base_render_time_s,
            work_units=frame.complexity)
        del self._pending_renders[frame.frame_id]
        frame.render_job = job
        self.framebuffer.swap()
        if query is not None:
            query.gpu_time = job.gpu_time
            query.result_ready_at = self.env.now
        return job

    # -- readback (hook6) --------------------------------------------------------
    def wait_for_render(self, frame: Frame):
        """Generator: block until the GPU has finished rendering ``frame``."""
        process = self._pending_renders.get(frame.frame_id)
        if process is not None:
            yield process
        return frame.render_job

    def read_pixels(self, frame: Frame):
        """Generator: copy the rendered frame from GPU memory (glReadPixels)."""
        yield from self.wait_for_render(frame)
        if self.readback_stall_ms > 0:
            yield self.env.timeout(self.readback_stall_ms * 1e-3)
        yield from self.pcie.transfer(frame.raw_bytes, direction="from_gpu")
        self.frames_read_back += 1
        return frame

    def upload(self, size_bytes: float):
        """Generator: upload vertex/texture data to the GPU (glBufferData etc.)."""
        if size_bytes < 0:
            raise SimulationError("upload size cannot be negative")
        if size_bytes == 0:
            return
        yield from self.pcie.transfer(size_bytes, direction="to_gpu")

    # -- query results -------------------------------------------------------------
    def get_query_result(self, query: GlQuery, blocking: bool = True):
        """Generator: glGetQueryObject.  Blocking retrieval stalls the CPU."""
        if query.is_ready:
            return query.gpu_time
        if not blocking:
            return None
        process = self._pending_renders.get(query.frame_id)
        if process is not None:
            yield process
        return query.gpu_time

    def completed_job(self, frame: Frame) -> Optional[GpuRenderJob]:
        return frame.render_job
