"""Deterministic event-trace recording for the simulation kernel.

A :class:`TraceRecorder` attaches to an :class:`~repro.sim.engine.Environment`
and writes one line per *processed* event — the exact order the kernel
dispatches work in.  Each line captures

``sequence  time  event-type  process-id  value-digest``

where ``process-id`` is the stable per-environment id of the process the
event belongs to (the process itself, the process an ``Initialize``
event starts, or the process that made a ``Request``; ``-`` otherwise)
and ``value-digest`` is a short stable digest of the event's
value (see :func:`value_digest`).

Because every field is derived from simulation state only — no wall
clock, no ``id()``/``repr()`` addresses, no hash randomization — the
same workload produces byte-identical traces in any process, on any
machine, and under any kernel implementation that preserves the engine's
determinism contract (see :mod:`repro.sim`).  That makes a recorded
trace a *golden file*: two kernels are observably equivalent on a
workload if and only if their traces match byte for byte.

Usage::

    env = Environment()
    recorder = TraceRecorder(env)   # install BEFORE running
    ... build and run the model ...
    recorder.close()
    text = recorder.text(header="pictor-trace v1 my-workload")

A recorder is one subscriber on the environment's
:class:`~repro.sim.bus.EventBus`; any number of recorders (and other
subscribers — probes, live monitors) can observe the same run, and
:meth:`TraceRecorder.close` detaches exactly its own subscription.

The scenario-level golden helpers (record/check/update against
``tests/golden/``) live in :mod:`repro.experiments.goldens`, above the
scenario layer in the dependency stack.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.sim.engine import Environment, Event, Process

__all__ = ["TraceRecorder", "value_digest", "event_pid"]

#: Bumping this invalidates every committed golden trace; do so only when
#: the line format itself changes, and re-record with
#: ``python -m repro.experiments trace --update``.
TRACE_FORMAT_VERSION = 1


def _feed(hasher, value: Any, depth: int = 0) -> None:
    """Feed ``value`` into ``hasher`` in a canonical, type-tagged form.

    Every branch uses only content (never identity or memory layout), so
    the digest is stable across processes and interpreter runs.  Objects
    without an obvious content form — model objects like frames or
    resources — contribute their type name only, which is enough to pin
    the event *kind* without dragging unstable state into the digest.
    """
    if depth > 6:
        hasher.update(b"<deep>")
        return
    if value is None:
        hasher.update(b"N")
    elif value is True:
        hasher.update(b"T")
    elif value is False:
        hasher.update(b"F")
    elif isinstance(value, int):
        hasher.update(b"i" + str(value).encode())
    elif isinstance(value, float):
        hasher.update(b"f" + repr(value).encode())
    elif isinstance(value, str):
        hasher.update(b"s" + value.encode("utf-8", "replace"))
    elif isinstance(value, bytes):
        hasher.update(b"b" + value)
    elif isinstance(value, (tuple, list)):
        hasher.update(b"[" if isinstance(value, list) else b"(")
        for item in value:
            _feed(hasher, item, depth + 1)
            hasher.update(b",")
        hasher.update(b"]" if isinstance(value, list) else b")")
    elif isinstance(value, dict):
        # Insertion order is deterministic for a deterministic kernel.
        hasher.update(b"{")
        for key, item in value.items():
            _feed(hasher, key, depth + 1)
            hasher.update(b":")
            _feed(hasher, item, depth + 1)
            hasher.update(b",")
        hasher.update(b"}")
    elif isinstance(value, BaseException):
        hasher.update(b"E" + type(value).__name__.encode())
        _feed(hasher, value.args, depth + 1)
    else:
        hasher.update(b"O" + type(value).__name__.encode())


def value_digest(value: Any) -> str:
    """A short stable digest of an event value (see :func:`_feed`)."""
    hasher = hashlib.blake2b(digest_size=6)
    _feed(hasher, value)
    return hasher.hexdigest()


def event_pid(event: Event) -> Optional[int]:
    """The stable process id an event belongs to, if any.

    Processes carry their own id; an ``Initialize`` event resolves to the
    process it starts and a ``Request`` to the process that made it.
    Returns None for process-less events.
    """
    if isinstance(event, Process):
        return event._pid
    process = getattr(event, "process", None)
    if isinstance(process, Process):
        return process._pid
    return None


class TraceRecorder:
    """Records the environment's processed-event sequence as text lines.

    Install before the ``run()`` call you want to observe; the kernel
    hoists the bus's publish hook when a run starts.  The recorder is an
    ordinary bus subscriber, so several recorders — or a recorder plus
    other observers — can watch the same environment at once, each
    seeing every event in dispatch order.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.entries: list[str] = []
        self._seq = 0
        self._hook = self._record
        env.bus.subscribe(self._hook)
        self._attached = True

    def _record(self, now: float, event: Event) -> None:
        self._seq = seq = self._seq + 1
        pid = event_pid(event)
        value = event._value
        self.entries.append(
            f"{seq} {now!r} {type(event).__name__} "
            f"{'-' if pid is None else pid} {value_digest(value)}")

    def close(self) -> None:
        """Detach this recorder's own bus subscription (idempotent).

        Other subscribers on the same bus are untouched; the recorded
        entries remain available.
        """
        if self._attached:
            self._attached = False
            self.env.bus.unsubscribe(self._hook)

    def text(self, header: str = "") -> str:
        """The full trace as text, one event per line.

        ``header`` (if given) is prefixed as a ``#`` comment line along
        with the trace format version.
        """
        lines = []
        if header:
            lines.append(f"# pictor-trace v{TRACE_FORMAT_VERSION} {header}")
        lines.extend(self.entries)
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """SHA-256 over :meth:`text` (without header)."""
        return hashlib.sha256(self.text().encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.entries)
