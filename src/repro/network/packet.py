"""Message objects carried over the simulated network.

A message is the unit the proxies exchange: user inputs travelling from
the client to the server, and compressed frame updates travelling back.
Messages carry the Pictor input tag (when the measurement framework is
enabled) so hook2 and hook10 can extract it — see Section 3.2 of the
paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Message", "MessageKind"]

class MessageKind(enum.Enum):
    """The RFB-style message types the proxies exchange."""

    KEY_EVENT = "key_event"
    POINTER_EVENT = "pointer_event"
    HMD_EVENT = "hmd_event"            # VR head-motion inputs (TurboVNC extension)
    FRAMEBUFFER_UPDATE = "framebuffer_update"
    CONTROL = "control"


#: Input message kinds, i.e. those travelling client → server.
INPUT_KINDS = frozenset({
    MessageKind.KEY_EVENT,
    MessageKind.POINTER_EVENT,
    MessageKind.HMD_EVENT,
})


@dataclass
class Message:
    """A protocol message in flight between the client and server proxies."""

    kind: MessageKind
    size_bytes: float
    payload: Any = None
    tag: Optional[int] = None
    sent_at: Optional[float] = None
    received_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"message size cannot be negative: {self.size_bytes}")

    @property
    def is_input(self) -> bool:
        return self.kind in INPUT_KINDS

    @property
    def network_time(self) -> Optional[float]:
        if self.sent_at is None or self.received_at is None:
            return None
        return self.received_at - self.sent_at

    def with_tag(self, tag: int) -> "Message":
        """Return the same message annotated with a Pictor input tag."""
        self.tag = tag
        return self
