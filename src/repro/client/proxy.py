"""The client proxy: input capture, frame display, and hooks 1 / 10.

One :class:`ClientProxy` instance runs per benchmark instance (each
instance has its own client machine in the paper's testbed).  It hosts
the driving agent — a synthetic human, Pictor's intelligent client, or a
prior-work baseline — on its input side, and the frame decoder / display
on its output side.  The measurement framework's first and last hooks
live here: hook1 tags every captured input, hook10 matches a received
frame's tag back to the input that caused it, which is what gives Pictor
true client-observed round-trip times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.base import Action
from repro.client.input_devices import InputDevice, device_for_input_kind
from repro.core.hooks import HookPoint
from repro.core.monitors import FpsCounter
from repro.core.pictor import SessionInstrumentation
from repro.graphics.frame import Frame
from repro.graphics.pipeline import Stage
from repro.network.link import NetworkLink
from repro.network.protocols import RfbProtocol
from repro.sim.engine import Environment
from repro.sim.randomness import StreamRandom
from repro.sim.resources import Store

__all__ = ["ClientProxy", "ClientProxyConfig"]


@dataclass(frozen=True)
class ClientProxyConfig:
    """Client-side behaviour parameters."""

    # Decoding a compressed frame update on the thin client.
    decode_ms_per_mb: float = 2.2
    decode_base_ms: float = 1.0
    # Jitter applied to the agent's action interval.
    interval_jitter: float = 0.30
    # In slow-motion mode the client waits for the response frame of the
    # previous input before issuing the next one (Nieh et al.'s
    # slow-motion benchmarking).
    wait_for_response: bool = False
    slow_motion_timeout_s: float = 1.0


class ClientProxy:
    """Client-side endpoint of one rendering session."""

    def __init__(self, env: Environment, link: NetworkLink,
                 rfb: Optional[RfbProtocol] = None,
                 instrumentation: Optional[SessionInstrumentation] = None,
                 config: Optional[ClientProxyConfig] = None,
                 rng: Optional[StreamRandom] = None,
                 name: str = "client"):
        self.env = env
        self.link = link
        self.rfb = rfb or RfbProtocol()
        self.instrumentation = instrumentation
        self.config = config or ClientProxyConfig()
        self.rng = rng or StreamRandom(0)
        self.name = name

        #: Set by the rendering session: where uplink input messages land.
        self.server_inbox: Optional[Store] = None
        #: Downlink frames (frame, tags, compressed_bytes) land here.
        self.frame_queue: Store = Store(env)

        self.client_fps = FpsCounter(env, name=f"{name}.client_fps")
        self.latest_frame: Optional[Frame] = None
        self.latest_frame_at: Optional[float] = None
        self.inputs_sent = 0
        self.frames_displayed = 0
        self._outstanding_inputs = 0
        self._processes = []

    # -- lifecycle -----------------------------------------------------------------
    def start(self, agent, device: Optional[InputDevice] = None) -> None:
        """Start the input-generation and display loops for ``agent``."""
        if self.server_inbox is None:
            raise RuntimeError("server_inbox must be connected before starting")
        self._processes.append(self.env.process(self._input_loop(agent, device)))
        self._processes.append(self.env.process(self._display_loop()))

    # -- input side (hook1, stage CS) --------------------------------------------------
    def _input_loop(self, agent, device: Optional[InputDevice]):
        device = device or device_for_input_kind(agent.input_kind)
        while True:
            interval = self.rng.jitter(1.0 / agent.actions_per_second,
                                       self.config.interval_jitter)
            yield self.env.timeout(interval)

            if self.config.wait_for_response:
                yield from self._wait_for_quiescence()

            decision = agent.decide(self.latest_frame, self.env.now)
            if decision is None:
                continue
            action, compute_time = decision
            if compute_time > 0:
                yield self.env.timeout(compute_time)
            yield from self.send_input(action, device)

    def _wait_for_quiescence(self):
        """Slow-motion benchmarking: one outstanding input/frame at a time."""
        waited = 0.0
        poll = 0.005
        while self._outstanding_inputs > 0 and waited < self.config.slow_motion_timeout_s:
            yield self.env.timeout(poll)
            waited += poll

    def send_input(self, action: Action, device: InputDevice):
        """Generator: tag (hook1) and transmit one input (stage CS)."""
        kind = device.message_kind(action)
        message = self.rfb.encode_input(kind, payload=action)
        action.issued_at = self.env.now

        tag = None
        if self.instrumentation is not None and self.instrumentation.enabled:
            record = self.instrumentation.tracker.create_record(
                kind=kind.value, timestamp=self.env.now, payload=action)
            tag = record.tag
            message.with_tag(tag)
            self.instrumentation.hooks.fire(HookPoint.HOOK1)

        send_started = self.env.now
        yield from self.link.transmit(message, NetworkLink.UPLINK)
        cs_duration = self.env.now - send_started
        if tag is not None:
            self.instrumentation.tracker.record_stage(tag, Stage.CS, cs_duration)

        yield self.server_inbox.put(message)
        self.inputs_sent += 1
        self._outstanding_inputs += 1
        return message

    # -- display side (hook10, stage CD) --------------------------------------------------
    def _display_loop(self):
        while True:
            frame, tags, compressed_bytes = yield self.frame_queue.get()
            decode_started = self.env.now
            decode_time = (self.config.decode_base_ms
                           + self.config.decode_ms_per_mb * compressed_bytes / 1e6) * 1e-3
            yield self.env.timeout(self.rng.jitter(decode_time, 0.15))
            self._display(frame, tags, self.env.now - decode_started)

    def _display(self, frame: Frame, tags, decode_duration: float) -> None:
        self.client_fps.record_frame()
        self.frames_displayed += 1
        self.latest_frame = frame
        self.latest_frame_at = self.env.now
        self._outstanding_inputs = max(0, self._outstanding_inputs - len(tags))

        if self.instrumentation is None or not self.instrumentation.enabled:
            return
        tracker = self.instrumentation.tracker
        for tag in tags:
            self.instrumentation.hooks.fire(HookPoint.HOOK10)
            tracker.record_stage(tag, Stage.CD, decode_duration)
            tracker.complete(tag, self.env.now, frame_id=frame.frame_id)
