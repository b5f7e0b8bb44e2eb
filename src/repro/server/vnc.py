"""The VNC-style server proxy (the TurboVNC analogue).

The server proxy is the media endpoint of the cloud rendering system
(Figure 1): it terminates the RFB connection from the client, forwards
user inputs into the application's X event queue, and takes rendered
frames from the graphics interposer, converts and compresses them, and
streams them back to the client.  Pictor's hooks 2, 3, 8 and 9 live here.

The proxy's work is spread over three threads — input forwarding,
frame translation + compression, and network sending — which matches the
real TurboVNC process structure and is what allows the CP and SS stages
of successive frames to overlap in the Figure 5 pipeline.  Those threads
are also what contend with the benchmark for CPU and memory; the paper
measures the VNC server at 169–243% CPU depending on the benchmark's FPS
and compression difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.hooks import HookPoint
from repro.core.monitors import FpsCounter
from repro.core.pictor import SessionInstrumentation
from repro.core.tracker import InputTracker
from repro.graphics.compression import Codec
from repro.graphics.frame import Frame
from repro.graphics.pipeline import Stage, StageTimings
from repro.graphics.xserver import IPC_CPU_PROFILE, XDisplay, XEvent, XWindow
from repro.hardware.cpu import Cpu, StageCpuProfile
from repro.network.link import Nic
from repro.network.packet import Message
from repro.network.protocols import RfbProtocol
from repro.sim.engine import Environment
from repro.sim.randomness import StreamRandom
from repro.sim.resources import Store

__all__ = ["VncServer", "VncServerConfig"]


#: Pixel-format translation is a streaming memory workload similar to the
#: SHM copies.
TRANSLATE_CPU_PROFILE = StageCpuProfile(
    demand=1.6,
    memory_intensity=0.75,
    base_retiring=0.32,
    base_frontend=0.10,
    base_bad_speculation=0.04,
    working_set_mb=16.0,
)


@dataclass(frozen=True)
class VncServerConfig:
    """Cost parameters of the server proxy."""

    # Parsing one RFB input message (stage SP); "too small to be visible"
    # in Figure 12 (< 1 ms).
    input_parse_ms: float = 0.25
    # Translating the raw frame into the client's pixel format before
    # compression (rfbTranslateFrame, charged as part of stage CP).
    translate_base_ms: float = 2.0
    translate_ms_per_mb: float = 0.45
    jitter_fraction: float = 0.20


class VncServer:
    """Per-instance server proxy with input, compression and send threads."""

    def __init__(self, env: Environment, cpu: Cpu, xdisplay: XDisplay,
                 window: XWindow, codec: Codec, nic: Nic,
                 rfb: Optional[RfbProtocol] = None,
                 instrumentation: Optional[SessionInstrumentation] = None,
                 config: Optional[VncServerConfig] = None,
                 rng: Optional[StreamRandom] = None,
                 owner: str = "vnc",
                 ipc_factor: float = 1.0,
                 frame_tags: Optional[dict[int, list[int]]] = None,
                 stage_timings: Optional[StageTimings] = None):
        self.env = env
        self.cpu = cpu
        self.xdisplay = xdisplay
        self.window = window
        self.codec = codec
        self.nic = nic
        self.rfb = rfb or RfbProtocol()
        self.instrumentation = instrumentation
        self.config = config or VncServerConfig()
        self.rng = rng or StreamRandom(0)
        self.owner = owner
        self.ipc_factor = ipc_factor
        self.frame_tags = frame_tags if frame_tags is not None else {}
        self.stage_timings = stage_timings or StageTimings()

        # Proxy threads (contend with the benchmark for CPU).
        self.input_thread = cpu.thread(f"{owner}.input", owner=owner)
        self.compress_thread = cpu.thread(f"{owner}.compress", owner=owner)
        self.send_thread = cpu.thread(f"{owner}.send", owner=owner)

        # Queues between pipeline stages.
        self.input_inbox: Store = Store(env)        # uplink messages from the client
        self.frame_inbox: Store = Store(env)        # frames from the interposer
        self.compressed_queue: Store = Store(env)   # compressed frames awaiting send

        self.server_fps = FpsCounter(env, name=f"{owner}.server_fps")
        #: Delivery callback set by the session: receives (frame, tags, bytes).
        self.deliver_to_client: Optional[Callable] = None

        self.inputs_forwarded = 0
        self.frames_sent = 0
        self.frames_spoiled = 0
        self._processes = []

    # -- helpers ------------------------------------------------------------------
    @property
    def _tracker(self) -> Optional[InputTracker]:
        if self.instrumentation is None or not self.instrumentation.enabled:
            return None
        return self.instrumentation.tracker

    def _fire(self, hook: HookPoint) -> None:
        if self.instrumentation is not None and self.instrumentation.enabled:
            self.instrumentation.hooks.fire(hook)

    def _hook_overhead(self, fires: int = 1) -> float:
        if self.instrumentation is None:
            return 0.0
        return self.instrumentation.hooks.fire_overhead(fires)

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        if self.deliver_to_client is None:
            raise RuntimeError("deliver_to_client must be connected before starting")
        self._processes.append(self.env.process(self._input_loop()))
        self._processes.append(self.env.process(self._compress_loop()))
        self._processes.append(self.env.process(self._send_loop()))

    # -- input path: stages SP and PS (hooks 2 and 3) --------------------------------------
    def _input_loop(self):
        while True:
            message: Message = yield self.input_inbox.get()
            tag = message.tag

            # Stage SP: parse the RFB message, extract the tag (hook2).
            self._fire(HookPoint.HOOK2)
            sp_started = self.env.now
            sp_cost = (self.rng.jitter(self.config.input_parse_ms * 1e-3,
                                       self.config.jitter_fraction)
                       + self._hook_overhead())
            yield from self.input_thread.run(sp_cost, IPC_CPU_PROFILE)
            sp_duration = self.env.now - sp_started
            self.stage_timings.record(Stage.SP, sp_duration)

            # Stage PS: inject the input into the application (hook3).
            self._fire(HookPoint.HOOK3)
            ps_started = self.env.now
            event = XEvent(kind=message.kind.value, payload=message.payload, tag=tag)
            yield from self._inject_event(event)
            ps_duration = self.env.now - ps_started
            self.stage_timings.record(Stage.PS, ps_duration)

            tracker = self._tracker
            if tracker is not None and tag is not None:
                tracker.mark_hook(tag, "hook2", sp_started)
                tracker.record_stage(tag, Stage.SP, sp_duration)
                tracker.mark_hook(tag, "hook3", ps_started)
                tracker.record_stage(tag, Stage.PS, ps_duration)
            self.inputs_forwarded += 1

    def _inject_event(self, event: XEvent):
        """Inject one event, inflating the IPC cost for containerized runs."""
        if self.ipc_factor > 1.0:
            extra = self.xdisplay.config.send_event_ms * 1e-3 * (self.ipc_factor - 1.0)
            yield from self.input_thread.run(extra, IPC_CPU_PROFILE)
        yield from self.xdisplay.send_input_event(self.window, event, self.input_thread)

    # -- frame spoiling ----------------------------------------------------------------------
    def _coalesce(self, frame: Frame, queue: Store) -> Frame:
        """Frame spoiling: when the application produces frames faster than
        the proxy can encode/ship them, VNC coalesces updates — only the
        newest framebuffer content is sent, and the inputs answered by the
        dropped frames are answered by the newer one instead.  Without this
        the encode queue would grow without bound whenever the rendering
        rate exceeds the compression rate (exactly what happens once the
        Section-6 optimizations raise the server FPS)."""
        while len(queue) > 0:
            newer = queue.items.popleft()
            carried = self.frame_tags.pop(frame.frame_id, None)
            if carried:                          # carry tags forward
                merged = self.frame_tags.setdefault(newer.frame_id, [])
                for tag in carried:
                    if tag not in merged:
                        merged.append(tag)
            self.frames_spoiled += 1
            frame = newer
        return frame

    # -- frame path: stage CP (hooks 8 and 9) -------------------------------------------------
    def _compress_loop(self):
        while True:
            frame: Frame = yield self.frame_inbox.get()
            frame = self._coalesce(frame, self.frame_inbox)
            # The frame leaves the server here: popping (not reading) its
            # tag entry keeps the dict bounded by frames in flight instead
            # of growing for the whole run.
            tags = self.frame_tags.pop(frame.frame_id, None) or []

            # Hook8: restore the pixels under the embedded tag.  The frame's
            # tags themselves travel in ``frame_tags``.
            frame.restore_tag_pixels()
            self._fire(HookPoint.HOOK8)

            cp_started = self.env.now
            # Pixel-format translation of the damaged region.
            translate_mb = frame.raw_bytes * (0.15 + 0.85 * frame.scene_change) / 1e6
            translate_cost = self.rng.jitter(
                (self.config.translate_base_ms
                 + self.config.translate_ms_per_mb * translate_mb) * 1e-3,
                self.config.jitter_fraction) + self._hook_overhead(2)
            yield from self.compress_thread.run(translate_cost, TRANSLATE_CPU_PROFILE)
            # Tight/JPEG encoding of the frame.
            compressed = yield from self.codec.compress(frame, self.compress_thread)
            cp_duration = self.env.now - cp_started
            self.stage_timings.record(Stage.CP, cp_duration)

            tracker = self._tracker
            if tracker is not None:
                for tag in tags:
                    tracker.record_stage(tag, Stage.CP, cp_duration)

            self.server_fps.record_frame()
            self._fire(HookPoint.HOOK9)
            yield self.compressed_queue.put((frame, tags, compressed))

    # -- frame path: stage SS ---------------------------------------------------------------------
    def _send_loop(self):
        while True:
            frame, tags, compressed = yield self.compressed_queue.get()
            message = self.rfb.encode_frame_update(compressed.compressed_bytes,
                                                   payload=frame)
            ss_started = self.env.now
            yield from self.nic.send_to_client(message)
            ss_duration = self.env.now - ss_started
            self.stage_timings.record(Stage.SS, ss_duration)

            tracker = self._tracker
            if tracker is not None:
                for tag in tags:
                    tracker.record_stage(tag, Stage.SS, ss_duration)

            self.frames_sent += 1
            yield from self._deliver(frame, tags, compressed.compressed_bytes)

    def _deliver(self, frame: Frame, tags: list[int], compressed_bytes: float):
        result = self.deliver_to_client(frame, tags, compressed_bytes)
        if result is not None:
            yield result
