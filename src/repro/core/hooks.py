"""API-hook registry: Pictor's interception layer.

Pictor never modifies the 3D applications.  Instead it interposes on the
standard APIs every Linux 3D application already calls — X event
delivery, GL buffer swaps, pixel readback, shared-memory image puts, and
the proxies' network send/receive paths — at ten well-defined hook points
(Figure 4).  Each hook can (a) timestamp the call, (b) extract or attach
an input tag, and (c) trigger auxiliary measurements such as GPU time
queries.

The registry below is that interception layer for the simulated stack:
pipeline components *fire* hook points as they execute the corresponding
API calls, and the registry counts the fires per hook point.  The
timestamps and tags a real hook would extract are recorded by the input
tracker (:mod:`repro.core.tracker`) at the same call sites, so the
registry keeps no per-fire record.  Firing a hook costs a small amount of
simulated CPU time (the interception and timestamping work), which is how
the framework's ~2.7% FPS overhead arises; when measurement is disabled
the hooks are inert and free.
"""

from __future__ import annotations

import enum

__all__ = ["HookPoint", "HookRegistry", "HOOK_APIS"]


class HookPoint(enum.Enum):
    """The ten hook points of Figure 4, client → server → client."""

    # Identity hash: members are singletons, and ``Enum.__hash__`` hashes
    # the name, which costs a Python call on every ``fire_counts`` lookup.
    __hash__ = object.__hash__

    HOOK1 = "hook1"    # client proxy: tag a captured user input
    HOOK2 = "hook2"    # server proxy: extract tag from the network message
    HOOK3 = "hook3"    # server proxy: forward input (+tag) to the application
    HOOK4 = "hook4"    # application: receive input (XNextEvent / glutKeyboardFunc)
    HOOK5 = "hook5"    # application: start GPU rendering (glXSwapBuffers)
    HOOK6 = "hook6"    # interposer: frame readback (glReadBuffer / glReadPixels)
    HOOK7 = "hook7"    # interposer: frame hand-off (XShmPutImage / glMapBuffer)
    HOOK8 = "hook8"    # server proxy: receive tagged frame, restore pixels
    HOOK9 = "hook9"    # server proxy: frame compressed and queued for sending
    HOOK10 = "hook10"  # client proxy: frame received, match tag with its input


#: The concrete APIs each hook intercepts (Table 1 plus the proxy-side hooks
#: identified from the TurboVNC / client source).
HOOK_APIS: dict[HookPoint, tuple[str, ...]] = {
    HookPoint.HOOK1: ("client_capture_input",),
    HookPoint.HOOK2: ("rfbProcessClientMessage",),
    HookPoint.HOOK3: ("XTestFakeKeyEvent", "XTestFakeMotionEvent"),
    HookPoint.HOOK4: ("XNextEvent", "glutKeyboardFunc"),
    HookPoint.HOOK5: ("glXSwapBuffers", "glutSwapBuffers"),
    HookPoint.HOOK6: ("glReadBuffer", "glReadPixels"),
    HookPoint.HOOK7: ("XShmPutImage", "glMapBuffer"),
    HookPoint.HOOK8: ("rfbTranslateFrame",),
    HookPoint.HOOK9: ("rfbSendFramebufferUpdate",),
    HookPoint.HOOK10: ("client_display_frame",),
}


class HookRegistry:
    """Counts hook firings per hook point.

    ``overhead_per_fire`` is the CPU time one interception costs (parsing
    the call, reading the clock, touching the tag table).  Components that
    fire hooks from CPU-charged stages add ``registry.fire_overhead()`` to
    their stage time so enabling measurement slows the pipeline down by a
    small, realistic amount.

    A fire keeps no per-fire state: only ``fire_counts`` grows, by one
    integer per fire, so the registry's memory is bounded however long
    the run.  Timestamps and tags are recorded by the input tracker.
    """

    def __init__(self, enabled: bool = True, overhead_per_fire: float = 80e-6):
        if overhead_per_fire < 0:
            raise ValueError("hook overhead cannot be negative")
        self.enabled = enabled
        self.overhead_per_fire = overhead_per_fire
        self.fire_counts: dict[HookPoint, int] = {hook: 0 for hook in HookPoint}

    def fire(self, hook: HookPoint) -> None:
        """Count one firing of ``hook`` (nothing when disabled)."""
        if self.enabled:
            self.fire_counts[hook] += 1

    def fire_overhead(self, fires: int = 1) -> float:
        """CPU seconds consumed by ``fires`` hook interceptions."""
        if not self.enabled:
            return 0.0
        return self.overhead_per_fire * fires

    def total_fires(self) -> int:
        return sum(self.fire_counts.values())
