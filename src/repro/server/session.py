"""One benchmark instance's end-to-end rendering session.

A :class:`RenderingSession` wires together everything one instance of the
Figure 1 architecture needs on a shared server machine:

* the application itself (from :mod:`repro.apps`) and its main loop,
  running the Figure 5 software pipeline — poll inputs, application
  logic (AL), submit GPU rendering (RD), copy the previous frame back
  over PCIe (FC), and hand it to the send thread (AS);
* the per-instance X display, GL context and graphics interposer;
* the VNC server proxy with its input / compression / send threads;
* the dedicated NIC + network link to the instance's client machine and
  the client proxy that displays frames and hosts the driving agent;
* Pictor's per-session instrumentation (hooks, input tracker, GPU time
  queries) when measurement is enabled;
* optionally a container wrapping the instance (Section 5.4) and the
  Section 6 optimizations (memoized window attributes, two-step copy).

The session exposes the measured quantities that the Pictor facade turns
into a :class:`~repro.core.pictor.PerformanceReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.base import Action, Application3D
from repro.client.proxy import ClientProxy, ClientProxyConfig
from repro.core.gpu_timer import GpuTimeQueryManager
from repro.core.hooks import HookPoint
from repro.core.monitors import FpsCounter
from repro.core.pictor import Pictor, SessionInstrumentation
from repro.core.pmu import CpuPmuReader, GpuPmuReader
from repro.core.tracker import InputTracker
from repro.graphics.compression import TightCodec
from repro.graphics.frame import Frame
from repro.graphics.interposer import GraphicsInterposer, InterposerConfig
from repro.graphics.opengl import GlContext
from repro.graphics.pipeline import PipelineConfig, Stage, StageTimings
from repro.graphics.xserver import XConfig, XDisplay
from repro.hardware.machine import ServerMachine
from repro.hardware.memory import LlcModel
from repro.network.link import LinkSpec, NetworkLink, Nic
from repro.network.protocols import RfbProtocol
from repro.server.container import Container
from repro.server.vnc import VncServer, VncServerConfig
from repro.sim.engine import Environment, Process
from repro.sim.randomness import RandomStreams
from repro.sim.resources import Store

__all__ = ["RenderingSession", "SessionConfig"]


@dataclass(frozen=True)
class SessionConfig:
    """Per-session configuration."""

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    link: LinkSpec = field(default_factory=LinkSpec.lan_1gbps)
    vnc: VncServerConfig = field(default_factory=VncServerConfig)
    client: ClientProxyConfig = field(default_factory=ClientProxyConfig)
    x_config: XConfig = field(default_factory=XConfig)
    # Slow-motion benchmarking (Nieh et al.): fully serialize the pipeline
    # and allow only one outstanding input/frame at a time.
    slow_motion: bool = False
    # Cap on the frame rate the application targets (vsync-like); the
    # paper's benchmarks run uncapped ("maximized visual effects").
    max_fps: Optional[float] = None


class RenderingSession:
    """One benchmark instance on a shared server machine."""

    def __init__(self, env: Environment, machine: ServerMachine,
                 app: Application3D, streams: RandomStreams,
                 name: str = "bench-0",
                 config: Optional[SessionConfig] = None,
                 pictor: Optional[Pictor] = None,
                 container: Optional[Container] = None,
                 client_index: int = 0):
        self.env = env
        self.machine = machine
        self.app = app
        self.streams = streams
        self.name = name
        self.config = config or SessionConfig()
        self.container = container
        self.client_index = client_index

        profile = app.profile
        self.app_owner = f"{name}.app"
        self.proxy_owner = f"{name}.vnc"

        # --- instrumentation -------------------------------------------------
        pictor = pictor or Pictor()
        measurement_on = self.config.pipeline.measurement_enabled
        if not measurement_on:
            pictor = Pictor(pictor.config.disabled())
        self.instrumentation: SessionInstrumentation = pictor.instrument_session(
            client_index=client_index)
        # Cached for the per-frame hot paths below: the instrumentation's
        # enabled flag is fixed at construction time, and the property
        # chain it hides behind is measurable at frame rates.
        self.measurement_enabled: bool = self.instrumentation.enabled

        # --- memory registration ----------------------------------------------
        working_set = profile.working_set_mb
        if container is not None:
            working_set *= container.working_set_factor
        machine.memory.register_workload(working_set)
        self.llc = LlcModel(base_miss_rate=profile.base_l3_miss_rate,
                            working_set_mb=working_set)

        # --- graphics stack ---------------------------------------------------
        rng_of = streams.stream
        gpu_overhead = container.gpu_overhead if container is not None else 0.0
        self.render_context = machine.gpu.create_context(
            name, profile.gpu_profile, virtualization_overhead=gpu_overhead)
        self.xdisplay = XDisplay(env, config=self.config.x_config,
                                 rng=rng_of(f"{name}.x"))
        self.window = self.xdisplay.create_window(
            self.config.pipeline.target_width, self.config.pipeline.target_height,
            name=name)
        self.gl = GlContext(env, self.render_context, machine.pcie,
                            base_render_time_s=profile.render_ms * 1e-3)
        ipc_factor = container.ipc_factor if container is not None else 1.0
        self.interposer = GraphicsInterposer(
            env, self.gl, self.xdisplay, self.window,
            config=InterposerConfig(
                memoize_window_attributes=self.config.pipeline.memoize_window_attributes,
                two_step_frame_copy=self.config.pipeline.two_step_frame_copy))
        self.ipc_factor = ipc_factor

        # --- CPU threads ---------------------------------------------------------
        self.app_thread = machine.cpu.thread(f"{name}.app.main", owner=self.app_owner)
        self.app_send_thread = machine.cpu.thread(f"{name}.app.send", owner=self.app_owner)

        # --- network + client ------------------------------------------------------
        self.link = NetworkLink(env, spec=self.config.link,
                                rng=rng_of(f"{name}.net"), name=f"{name}.link")
        self.nic = Nic(env, self.link, name=f"{name}.nic")
        self.rfb = RfbProtocol()
        self.client = ClientProxy(env, self.link, rfb=self.rfb,
                                  instrumentation=self.instrumentation,
                                  config=self.config.client,
                                  rng=rng_of(f"{name}.client"),
                                  name=f"{name}.client")

        # --- VNC proxy ----------------------------------------------------------------
        self.frame_tags: dict[int, list[int]] = {}
        self.stage_timings = StageTimings()
        self.vnc = VncServer(
            env, machine.cpu, self.xdisplay, self.window,
            codec=TightCodec(rng=rng_of(f"{name}.codec")),
            nic=self.nic, rfb=self.rfb,
            instrumentation=self.instrumentation,
            config=self.config.vnc, rng=rng_of(f"{name}.vnc"),
            owner=self.proxy_owner, ipc_factor=ipc_factor,
            frame_tags=self.frame_tags, stage_timings=self.stage_timings)
        self.vnc.deliver_to_client = self._deliver_to_client
        self.client.server_inbox = self.vnc.input_inbox

        # --- measurement helpers ----------------------------------------------------------
        self.gpu_timer = GpuTimeQueryManager(
            env, self.gl,
            double_buffered=self.config.pipeline.double_buffered_queries)
        self.cpu_pmu_reader = CpuPmuReader(machine.cpu, machine.memory,
                                           owner=self.app_owner, llc=self.llc)
        self.gpu_pmu_reader = GpuPmuReader(self.render_context)

        # --- misc state -------------------------------------------------------------------
        self.rng = rng_of(f"{name}.session")
        self.app_send_queue: Store = Store(env)
        self.pcie_to_gpu_bytes = 0.0
        self.pcie_from_gpu_bytes = 0.0
        self.frames_produced = 0
        # Server FPS counts the frames *generated* at the server (the paper's
        # definition); the VNC proxy may coalesce some of them before they
        # reach the client, so client FPS can be lower.
        self._server_fps = FpsCounter(env, name=f"{name}.server_fps")
        self._started = False
        self._processes: list[Process] = []

    # -- convenience accessors ------------------------------------------------------
    @property
    def hooks(self):
        return self.instrumentation.hooks

    @property
    def tracker(self) -> InputTracker:
        return self.instrumentation.tracker

    @property
    def server_fps(self) -> FpsCounter:
        return self._server_fps

    @property
    def client_fps(self) -> FpsCounter:
        return self.client.client_fps

    def per_instance_pcie_to_gpu_bytes(self, elapsed: float) -> float:
        return self.pcie_to_gpu_bytes / max(elapsed, 1e-9)

    def per_instance_pcie_from_gpu_bytes(self, elapsed: float) -> float:
        return self.pcie_from_gpu_bytes / max(elapsed, 1e-9)

    # -- lifecycle ---------------------------------------------------------------------
    def start(self, agent) -> None:
        """Start every process of this session, driven by ``agent``."""
        if self._started:
            raise RuntimeError(f"session {self.name} already started")
        self._started = True
        self.vnc.start()
        self.client.start(agent)
        if self.config.slow_motion:
            self._processes.append(self.env.process(self._slow_motion_loop()))
        else:
            self._processes.append(self.env.process(self._application_loop()))
            self._processes.append(self.env.process(self._app_send_loop()))

    def _deliver_to_client(self, frame: Frame, tags: list[int],
                           compressed_bytes: float):
        return self.client.frame_queue.put((frame, tags, compressed_bytes))

    def _fire(self, hook: HookPoint) -> None:
        if self.measurement_enabled:
            self.hooks.fire(hook)

    def _hook_overhead(self, fires: int = 1) -> float:
        return self.hooks.fire_overhead(fires) if self.measurement_enabled else 0.0

    # -- the application main loop (Figure 5 pipeline) --------------------------------------
    def _application_loop(self):
        """The application's main thread: AL, swap (RD), FC of the previous frame."""
        profile = self.app.profile
        last_advance = self.env.now
        previous: Optional[tuple[Frame, list[int]]] = None
        pending_copy: Optional[tuple[Process, Frame, list[int]]] = None

        while True:
            pass_started = self.env.now

            # Poll inputs delivered since the previous pass (hook4).
            events = self.xdisplay.drain_events(self.window)
            actions = [e.payload for e in events if isinstance(e.payload, Action)]
            tags = [e.tag for e in events if e.tag is not None]
            if events and self.measurement_enabled:
                for event in events:
                    self.hooks.fire(HookPoint.HOOK4)
                    if event.tag is not None:
                        self.tracker.mark_hook(event.tag, "hook4", self.env.now)
            self.app.apply_actions(actions)

            # Stage AL: application logic for the new frame.
            al_started = self.env.now
            al_nominal = self.app.sample_al_time() + self._hook_overhead(1 + len(events))
            yield from self.app_thread.run(al_nominal, profile.al_cpu_profile)
            al_duration = self.env.now - al_started
            self.stage_timings.record(Stage.AL, al_duration)
            self.machine.memory.record_accesses(2e5 * al_nominal * 1e3, self.llc)

            dt = max(self.env.now - last_advance, 1e-3)
            last_advance = self.env.now
            frame = self.app.advance(dt)
            self.frames_produced += 1
            self._server_fps.record_frame()
            if tags:      # untagged frames must not leak dict entries
                self.frame_tags[frame.frame_id] = tags
            if self.measurement_enabled:
                self.tracker.record_stage_for_tags(tags, Stage.AL, al_duration)

            # Per-frame CPU→GPU upload (vertex/texture streaming).
            upload_bytes = self.app.sample_upload_bytes()
            yield from self.gl.upload(upload_bytes)
            self.pcie_to_gpu_bytes += upload_bytes

            # Hook5: swap buffers, submitting the GPU rendering of this frame.
            self._fire(HookPoint.HOOK5)
            if self.measurement_enabled:
                self.gpu_timer.begin_frame(frame)
            else:
                self.gl.swap_buffers(frame)

            # Stage FC: copy the *previous* frame back from the GPU.
            if previous is not None:
                prev_frame, prev_tags = previous
                fc_started = self.env.now
                self._fire(HookPoint.HOOK6)
                if self.measurement_enabled and prev_tags:
                    prev_frame.embed_tag(prev_tags[-1])

                if self.config.pipeline.two_step_frame_copy:
                    # Optimization 2: finish the copy issued last pass, then
                    # start this frame's copy without waiting for it.
                    if pending_copy is not None:
                        done_process, done_frame, done_tags = pending_copy
                        yield from self.interposer.finish_frame_copy(done_process)
                        yield self.app_send_queue.put((done_frame, done_tags))
                    copy_process = self.interposer.start_frame_copy(
                        prev_frame, self.app_thread)
                    pending_copy = (copy_process, prev_frame, prev_tags)
                else:
                    yield from self.interposer.copy_frame(prev_frame, self.app_thread)
                    yield self.app_send_queue.put((prev_frame, prev_tags))

                fc_duration = self.env.now - fc_started
                self.stage_timings.record(Stage.FC, fc_duration)
                self.pcie_from_gpu_bytes += prev_frame.raw_bytes
                if self.measurement_enabled:
                    self.tracker.record_stage_for_tags(prev_tags, Stage.FC, fc_duration)
                    gpu_time = yield from self.gpu_timer.collect()
                    self._record_render_time(gpu_time, prev_frame, prev_tags)

            previous = (frame, tags)

            # Optional frame-rate cap (vsync); the paper runs uncapped.
            if self.config.max_fps is not None:
                minimum_pass = 1.0 / self.config.max_fps
                elapsed = self.env.now - pass_started
                if elapsed < minimum_pass:
                    yield self.env.timeout(minimum_pass - elapsed)

    def _record_render_time(self, gpu_time: Optional[float], frame: Frame,
                            tags: list[int]) -> None:
        if gpu_time is None:
            job = self.gl.completed_job(frame)
            gpu_time = job.gpu_time if job is not None else None
        if gpu_time is None:
            return
        self.stage_timings.record(Stage.RD, gpu_time)
        if self.measurement_enabled:
            for tag in tags:
                self.tracker.record_gpu_time(tag, gpu_time)
                self.tracker.record_stage(tag, Stage.RD, gpu_time)

    # -- the application's frame-send thread (stage AS, hook7) -------------------------------
    def _app_send_loop(self):
        while True:
            frame, tags = yield self.app_send_queue.get()
            as_started = self.env.now
            self._fire(HookPoint.HOOK7)
            if self.ipc_factor > 1.0:
                extra = (self.config.x_config.shm_put_base_ms * 1e-3
                         * (self.ipc_factor - 1.0))
                yield from self.app_send_thread.run(
                    extra, self.app.profile.al_cpu_profile)
            yield from self.interposer.deliver_frame(frame, self.vnc.frame_inbox,
                                                     self.app_send_thread)
            as_duration = self.env.now - as_started
            self.stage_timings.record(Stage.AS, as_duration)
            if self.measurement_enabled:
                self.tracker.record_stage_for_tags(tags, Stage.AS, as_duration)

    # -- slow-motion benchmarking (fully serialized pipeline) ---------------------------------
    def _slow_motion_loop(self):
        """Slow-Motion methodology: one input / frame processed at a time.

        The whole pipeline runs sequentially in a single logical thread of
        control, so the benchmark and VNC proxy never contend and nothing
        overlaps — which is precisely why Slow-Motion under-estimates RTT
        on a system running at full capacity (Section 4).
        """
        profile = self.app.profile
        last_advance = self.env.now
        while True:
            events = self.xdisplay.drain_events(self.window)
            if not events:
                yield self.env.timeout(0.002)
                continue
            actions = [e.payload for e in events if isinstance(e.payload, Action)]
            tags = [e.tag for e in events if e.tag is not None]
            for event in events:
                self._fire(HookPoint.HOOK4)
            self.app.apply_actions(actions)

            al_started = self.env.now
            yield from self.app_thread.run(self.app.sample_al_time(),
                                           profile.al_cpu_profile)
            al_duration = self.env.now - al_started

            dt = max(self.env.now - last_advance, 1e-3)
            last_advance = self.env.now
            frame = self.app.advance(dt)
            self.frames_produced += 1
            self._server_fps.record_frame()
            if tags:      # untagged frames must not leak dict entries
                self.frame_tags[frame.frame_id] = tags

            upload_bytes = self.app.sample_upload_bytes()
            yield from self.gl.upload(upload_bytes)
            self.pcie_to_gpu_bytes += upload_bytes

            self._fire(HookPoint.HOOK5)
            self.gl.swap_buffers(frame)
            # Serialized: wait for the GPU before copying this same frame.
            job = yield from self.gl.wait_for_render(frame)

            fc_started = self.env.now
            self._fire(HookPoint.HOOK6)
            if self.measurement_enabled and tags:
                frame.embed_tag(tags[-1])
            yield from self.interposer.copy_frame(frame, self.app_thread)
            fc_duration = self.env.now - fc_started
            self.pcie_from_gpu_bytes += frame.raw_bytes

            as_started = self.env.now
            self._fire(HookPoint.HOOK7)
            yield from self.interposer.deliver_frame(frame, self.vnc.frame_inbox,
                                                     self.app_send_thread)
            as_duration = self.env.now - as_started

            for stage, duration in ((Stage.AL, al_duration), (Stage.FC, fc_duration),
                                    (Stage.AS, as_duration)):
                self.stage_timings.record(stage, duration)
                if self.measurement_enabled:
                    self.tracker.record_stage_for_tags(tags, stage, duration)
            if job is not None:
                self._record_render_time(job.gpu_time, frame, tags)

    # -- teardown ---------------------------------------------------------------------------------
    def close(self) -> None:
        """Release the session's hardware registrations."""
        self.machine.memory.unregister_workload(self.llc.working_set_mb)
        self.machine.gpu.destroy_context(self.render_context)
