"""X window/event layer.

TurboVNC places each session behind its own X proxy: user inputs are
injected as X events (the application receives them via ``XNextEvent``,
the API intercepted by hook4), the interposer queries window geometry via
``XGetWindowAttributes`` (the pathologically slow call that the first
Section-6 optimization memoizes), and rendered frames travel to the VNC
server through MIT-SHM (``XShmPutImage``, hook7).

Costs are charged to CPU threads so they inherit scheduling and memory
contention — this is what makes the inter-process-communication stages
(PS and AS) slow down by up to ~96% when several instances colocate
(Section 5.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.graphics.frame import Frame
from repro.hardware.cpu import CpuThread, StageCpuProfile
from repro.sim.engine import Environment
from repro.sim.randomness import StreamRandom
from repro.sim.resources import Store

__all__ = ["XConfig", "XDisplay", "XEvent", "XWindow"]


@dataclass(frozen=True)
class XConfig:
    """Latency parameters of the X layer."""

    # XGetWindowAttributes performs a synchronous round trip to the X server
    # and takes 6–9 ms in the paper's measurements (Section 6).
    get_window_attributes_ms_low: float = 6.0
    get_window_attributes_ms_high: float = 9.0
    # Injecting one input event into the application (stage PS).
    send_event_ms: float = 2.0
    # Base cost of an XShmPutImage hand-off, plus a per-megabyte component
    # (stage AS).  Shared-memory copies still consume CPU and memory bandwidth.
    shm_put_base_ms: float = 1.5
    shm_put_ms_per_mb: float = 0.55
    jitter_fraction: float = 0.20


#: CPU profile of the IPC-heavy X calls: low parallelism, memory intensive
#: (shared-memory copies stream through the cache hierarchy).
IPC_CPU_PROFILE = StageCpuProfile(
    demand=0.6,
    memory_intensity=0.8,
    base_retiring=0.25,
    base_frontend=0.12,
    base_bad_speculation=0.04,
    working_set_mb=8.0,
)


@dataclass
class XEvent:
    """One X input event (keystroke, pointer motion, or HMD pose update)."""

    kind: str
    payload: Any = None
    tag: Optional[int] = None
    injected_at: Optional[float] = None


class XWindow:
    """A top-level application window."""

    def __init__(self, env: Environment, width: int = 1920, height: int = 1080,
                 name: str = "benchmark"):
        self.env = env
        self.name = name
        self.width = width
        self.height = height
        self.event_queue: Store = Store(env)
        self.resize_count = 0

    def resize(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("window resolution must be positive")
        self.width = width
        self.height = height
        self.resize_count += 1


class XDisplay:
    """One session's X display connection."""

    def __init__(self, env: Environment, config: Optional[XConfig] = None,
                 rng: Optional[StreamRandom] = None):
        self.env = env
        self.config = config or XConfig()
        self.rng = rng or StreamRandom(0)
        self.windows: list[XWindow] = []
        self.get_window_attributes_calls = 0
        self.events_delivered = 0
        self.images_put = 0

    # -- window management --------------------------------------------------
    def create_window(self, width: int = 1920, height: int = 1080,
                      name: str = "benchmark") -> XWindow:
        window = XWindow(self.env, width, height, name)
        self.windows.append(window)
        return window

    # -- input event path (stage PS / hook4) -------------------------------------
    def send_input_event(self, window: XWindow, event: XEvent, thread: CpuThread):
        """Generator: inject an input event into the application's queue."""
        cost = self.rng.jitter(self.config.send_event_ms * 1e-3,
                               self.config.jitter_fraction)
        yield from thread.run(cost, IPC_CPU_PROFILE)
        event.injected_at = self.env.now
        yield window.event_queue.put(event)
        self.events_delivered += 1

    def next_event(self, window: XWindow):
        """Generator: block until the next input event arrives (XNextEvent)."""
        event = yield window.event_queue.get()
        return event

    def pending_events(self, window: XWindow) -> int:
        """XPending: how many events are queued without blocking."""
        return len(window.event_queue)

    def drain_events(self, window: XWindow) -> list[XEvent]:
        """Non-blocking drain of every queued event (typical game input poll)."""
        drained = list(window.event_queue.items)
        window.event_queue.items.clear()
        return drained

    # -- window attribute query (the Section-6 bottleneck) ---------------------------
    def get_window_attributes(self, window: XWindow, thread: CpuThread):
        """Generator: the synchronous, slow XGetWindowAttributes round trip."""
        cost = self.rng.uniform(self.config.get_window_attributes_ms_low,
                                self.config.get_window_attributes_ms_high) * 1e-3
        yield from thread.run(cost, IPC_CPU_PROFILE)
        self.get_window_attributes_calls += 1
        return {"width": window.width, "height": window.height,
                "resize_count": window.resize_count}

    # -- frame hand-off (stage AS / hook7) ----------------------------------------------
    def shm_put_image(self, frame: Frame, destination: Store, thread: CpuThread):
        """Generator: copy a frame into the proxy's shared-memory segment."""
        megabytes = frame.raw_bytes / 1e6
        cost = self.rng.jitter(
            (self.config.shm_put_base_ms + self.config.shm_put_ms_per_mb * megabytes) * 1e-3,
            self.config.jitter_fraction)
        yield from thread.run(cost, IPC_CPU_PROFILE)
        yield destination.put(frame)
        self.images_put += 1
