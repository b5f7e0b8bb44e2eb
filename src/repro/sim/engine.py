"""Core discrete-event simulation engine.

The engine is a small, deterministic, generator-based kernel in the style
of SimPy, carrying only what the models run.  It provides:

``Environment``
    Owns the simulation clock and the event queues, schedules events and
    steps the simulation forward.

``Event``
    A one-shot occurrence a process can wait on; :meth:`Event.succeed`
    gives it a value.

``Timeout``
    An event that fires after a fixed simulated delay.

``Process``
    Wraps a generator.  The generator yields events; the process resumes
    when the yielded event fires.  A process is itself an event: it fires
    with the generator's return value, or fails with the exception that
    escaped the generator, which is then raised in every process waiting
    on it (or out of :meth:`Environment.run` when nobody waits).

Observability goes through one seam: :attr:`Environment.bus`, an
:class:`~repro.sim.bus.EventBus` whose subscribers see every processed
``(now, event)`` pair (and every fast-forward
:class:`MacroJump`).  The bus compiles down to a single hook slot the
run loop reads, so an unobserved kernel pays one ``is None`` test per
event and nothing else.

The engine is deliberately strict: scheduling into the past (or with a
NaN delay), running a non-generator as a process, or yielding a
non-event raise ``SimulationError`` immediately rather than silently
corrupting the run.

Implementation notes (the hot path)
-----------------------------------

This kernel is the innermost loop of every experiment, so the
implementation trades a little repetition for constant-factor speed while
keeping the *observable* event order bit-identical to the reference
semantics — every pending event fires in ``(time, priority,
sequence-id)`` order, where process starts are the one urgent priority
and every scheduled event takes the next sequence id.
:meth:`Environment.step` (with :meth:`Environment._pop_next`) is that
reference, spelled out without inlining; the property tests compare
:meth:`Environment.run` against it, and the golden traces in
``tests/golden/`` pin the order down against the pre-rewrite kernel.
The tricks:

* every event class declares ``__slots__``;
* heap entries are flat ``(time, sequence-id, event)`` triples, so
  tie-breaking never falls through to the event itself;
* zero-delay events bypass the heap entirely: they are appended to
  plain FIFO deques (``Environment._fifo``, and ``_urgent`` for process
  starts) carrying their sequence id in the ``_key`` slot, turning the
  dominant schedule-now case from O(log n) + allocation into a single
  O(1) append;
* ``callbacks`` avoids list allocation: a fresh event carries a shared
  empty tuple, a single waiter is stored directly (processes are
  callable), and only a second waiter materializes a list
  (``callbacks is None`` still means "processed");
* a waiting process registers *itself* as the callback (it is callable)
  rather than materializing a ``_resume`` bound method per wait;
* ``_defused`` is lazily initialized: the dispatch loop only reads it
  for *failed* events, so hot factories skip the slot write.  The only
  failed events are crashed processes (``Process.__init__`` writes the
  slot) and the error event of a non-event yield (built through
  ``Event.__init__``);
* a yielded object is validated by reading its ``callbacks`` attribute
  under ``try/except AttributeError`` instead of an ``isinstance``
  check — free for the overwhelmingly common valid yield;
* ``Timeout`` construction, ``succeed`` and process termination inline
  the scheduling push, and :meth:`Environment.run` inlines both the
  pop/dispatch loop and the resume step of a single waiting process;
* positive delays too small for the clock to represent are routed to
  the FIFO (same ``(time, id)`` order), so the heap only holds events
  created with a delay the clock can represent.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional

__all__ = [
    "Environment",
    "Event",
    "MacroJump",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for structural misuse of the simulation engine."""


# Sentinel distinguishing "not yet decided" from a None value.
_PENDING = object()

# Shared placeholder for "no callbacks attached yet".  Freshly created
# events carry this immutable empty tuple instead of allocating a list;
# a single waiter is then stored directly and only a second waiter
# materializes a list.  ``callbacks is None`` still (and only) means
# "processed".
_NO_CALLBACKS: tuple = ()


class Event:
    """A one-shot simulation event.

    An event starts *pending*.  Calling :meth:`succeed` gives it a value
    and schedules it; its callbacks run when the environment processes
    it, after which it is *processed*.

    ``callbacks`` is the shared empty tuple until a waiter attaches, a
    single callable while one waiter is attached, a list once several
    are, and ``None`` once processed.  ``_key`` holds the event's
    sequence id while the event sits in a zero-delay deque (events are
    one-shot, so the slot is written at most once).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_key")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        self._key = eid
        env._fifo.append(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._value is not _PENDING:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"invalid timeout delay: {delay!r}")
        # Dedicated fast path: a timeout is born triggered-successfully,
        # so the generic Event init is bypassed.  _defused is left unset:
        # it is only ever read for failed events and a timeout is born
        # succeeded.
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._ok = True
        self._value = value
        self.delay = delay = float(delay)
        env._eid = eid = env._eid + 1
        now = env.now
        when = now + delay
        if when > now:
            heappush(env._queue, (when, eid, self))
        else:
            # Zero delay — or one too small for the clock to represent
            # the advance; either way the event fires at the current
            # instant in id order, which is exactly the FIFO's order.
            self._key = eid
            env._fifo.append(self)


# Pre-bound allocators for the hot factories below (skips one
# class-attribute lookup per created event).
_EVENT_NEW = Event.__new__
_TIMEOUT_NEW = Timeout.__new__


class MacroJump(Event):
    """Trace marker for one coarse fast-forward advance (macro step).

    Emitted by :meth:`Environment.macro_advance` straight to the event
    bus — never enqueued, so it consumes no sequence id and cannot
    perturb the micro event order.  Its value is the virtual seconds
    skipped; the micro clock (``env.now``) is unchanged, so trace
    timestamps stay monotone by construction.
    """

    __slots__ = ("delta",)

    def __init__(self, env: "Environment", delta: float):
        self.env = env
        self.callbacks = None  # born processed: nothing may wait on it
        self._ok = True
        self._value = float(delta)
        self._defused = False
        self.delta = float(delta)


class Initialize(Event):
    """Internal event used to start a newly created process.

    The only urgent event: it fires before any other event scheduled at
    the same instant.
    """

    __slots__ = ("process",)

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = process
        self._ok = True
        self._value = None
        self._defused = False
        self.process = process
        env._eid = eid = env._eid + 1
        self._key = eid
        env._urgent.append(self)


class Process(Event):
    """A running process wrapping a generator of events.

    The process is itself an event: it succeeds with the generator's return
    value, or fails with the exception that escaped the generator.  It is
    also its own resume callback (see ``__call__``), so waiting on an
    event appends the process object instead of a bound method.
    """

    __slots__ = ("_generator", "_send", "_pid")

    def __init__(self, env: "Environment", generator: Generator):
        if not isinstance(generator, Generator):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value = _PENDING
        self._ok = None
        # Written here (not at the crash site) so a crashing process can
        # be dispatched through the failed-event check.
        self._defused = False
        self._generator = generator
        self._send = generator.send
        env._pid = self._pid = env._pid + 1
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    # -- stepping ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # NOTE: Environment.run() holds one inlined copy of this method
        # for the common single-waiter dispatch; any semantic change here
        # must be mirrored there (the golden traces will catch divergence).
        env = self.env
        env._active_process = self
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._eid = eid = env._eid + 1
                self._key = eid
                env._fifo.append(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._eid = eid = env._eid + 1
                self._key = eid
                env._fifo.append(self)
                break

            # A valid yield is an object with a ``callbacks`` slot (an
            # Event); anything else is a structural error delivered as a
            # failed event thrown into the generator.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                exc = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                continue
            if callbacks is not None:
                # Event still pending or scheduled: wait for it.
                if callbacks.__class__ is tuple:
                    next_event.callbacks = self
                elif callbacks.__class__ is list:
                    callbacks.append(self)
                else:
                    next_event.callbacks = [callbacks, self]
                break
            # Event already processed: loop immediately with its value.
            event = next_event

        env._active_process = None

    # A process doubles as its own resume callback, so waiting appends
    # the process object itself instead of materializing a bound method.
    __call__ = _resume


class Environment:
    """The simulation environment: clock, event queues, and run loop.

    Scheduling uses three structures, together totally ordered by
    ``(time, priority, sequence-id)``:

    * ``_urgent`` — process starts (:class:`Initialize`), the one urgent
      priority: each fires before any other event at the current time;
    * ``_queue`` — events scheduled with a positive delay, as a plain
      ``heapq`` list of ``(time, sequence-id, event)`` tuples;
    * ``_fifo`` — events scheduled at the *current* time (zero delay),
      each carrying its sequence id in ``_key``.

    Ids increase monotonically, so each deque is already sorted and a
    zero-delay event costs O(1) instead of O(log n).  Invariants the pop
    order relies on: nothing can be scheduled into the past, and the
    clock only advances when both deques are empty — so every deque
    entry is at the current time and every heap entry is at the current
    time or later.  A heap entry at the current time goes before the
    FIFO head only when its id is smaller.
    """

    __slots__ = ("now", "_queue", "_fifo", "_urgent", "_eid", "_pid",
                 "_active_process", "_publish", "_bus", "_virtual_offset")

    def __init__(self, initial_time: float = 0.0):
        # Current simulation time (seconds by convention in this repo).
        # A plain slot, read on every hook and CPU burst; only the kernel
        # writes it.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._fifo: deque[Event] = deque()
        self._urgent: deque[Event] = deque()
        self._eid = 0
        self._pid = 0
        self._active_process: Optional[Process] = None
        # The compiled publish hook of the event bus: None while nobody
        # subscribes, otherwise a ``hook(now, event)`` callable.  Managed
        # exclusively by EventBus._compile(); the run loop hoists it once
        # on entry, so subscribe *before* the run you want to observe.
        self._publish: Optional[Callable[[float, Event], None]] = None
        self._bus = None
        # Virtual seconds credited by macro_advance(); the micro clock
        # (now) never jumps, so in-flight process-local timestamps can
        # never straddle a discontinuity.
        self._virtual_offset = 0.0

    # -- clock ------------------------------------------------------------
    @property
    def bus(self):
        """The environment's :class:`~repro.sim.bus.EventBus` (created lazily)."""
        bus = self._bus
        if bus is None:
            from repro.sim.bus import EventBus
            self._bus = bus = EventBus(self)
        return bus

    @property
    def virtual_offset(self) -> float:
        """Total virtual seconds credited by :meth:`macro_advance`."""
        return self._virtual_offset

    @property
    def virtual_now(self) -> float:
        """Micro clock plus the accumulated macro-jump credit.

        This is the wall-clock position a full-fidelity run would have
        reached; ``now`` itself stays the micro clock so every scheduled
        event and in-flight duration remains consistent.
        """
        return self.now + self._virtual_offset

    def macro_advance(self, delta: float) -> "MacroJump":
        """Credit ``delta`` virtual seconds in one coarse macro jump.

        The fast-forward layer (:mod:`repro.sim.fastforward`) calls this
        after synthesizing the measurement counters the skipped interval
        would have accumulated.  The micro clock and event queues are
        untouched — the jump is a pure accounting overlay — but the jump
        is made observable: a :class:`MacroJump` event is published on
        the event bus at the current micro time.
        """
        if not delta > 0:
            raise SimulationError(f"macro_advance delta must be positive, "
                                  f"got {delta!r}")
        self._virtual_offset += float(delta)
        jump = MacroJump(self, delta)
        publish = self._publish
        if publish is not None:
            publish(self.now, jump)
        return jump

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        event = _EVENT_NEW(Event)
        event.env = self
        event.callbacks = _NO_CALLBACKS
        event._value = _PENDING
        event._ok = None
        return event

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"invalid timeout delay: {delay!r}")
        timeout = _TIMEOUT_NEW(Timeout)
        timeout.env = self
        timeout.callbacks = _NO_CALLBACKS
        timeout._ok = True
        timeout._value = value
        timeout.delay = delay = delay if delay.__class__ is float else float(delay)
        self._eid = eid = self._eid + 1
        now = self.now
        when = now + delay
        if when > now:
            heappush(self._queue, (when, eid, timeout))
        else:
            # Zero delay, or one the clock cannot represent: fires at the
            # current instant in id order — the FIFO's order.
            timeout._key = eid
            self._fifo.append(timeout)
        return timeout

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    # -- scheduling ---------------------------------------------------------
    def _pop_next(self) -> Event:
        """Remove and return the next event in (time, priority, id) order.

        Advances the clock when the event comes off the heap at a later
        time.  Callers must ensure at least one event is pending.
        """
        urgent = self._urgent
        if urgent:
            return urgent.popleft()
        queue = self._queue
        fifo = self._fifo
        if fifo:
            if queue and queue[0][0] <= self.now and queue[0][1] < fifo[0]._key:
                return heappop(queue)[2]
            return fifo.popleft()
        when, _eid, event = heappop(queue)
        self.now = when
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if nothing is pending."""
        if self._urgent or self._fifo:
            return self.now
        queue = self._queue
        return queue[0][0] if queue else inf

    def step(self) -> None:
        """Process the next scheduled event."""
        if not (self._urgent or self._fifo or self._queue):
            raise SimulationError("nothing left to simulate")
        event = self._pop_next()
        publish = self._publish
        if publish is not None:
            publish(self.now, event)
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks is not None:
            if callbacks.__class__ is list:
                for callback in callbacks:
                    callback(event)
            elif callbacks.__class__ is not tuple:
                callbacks(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be a time (run until the clock reaches it), an event
        (run until it fires, returning its value), or None (run until the
        event queue drains).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        horizon = inf
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            horizon = stop_time = float(until)
            if not stop_time >= self.now:  # NaN fails too
                raise SimulationError(
                    f"until={stop_time!r} is in the past or not a number "
                    f"(now={self.now!r})"
                )

        # This loop is the single hottest code path of the repository, so
        # it inlines step()/_pop_next() and — for the dominant case of an
        # event with exactly one waiting process — Process._resume().
        # Both must stay semantically identical to their originals; the
        # property tests (run() vs step()) and the golden traces pin this.
        queue = self._queue
        fifo = self._fifo
        urgent = self._urgent
        publish = self._publish
        pop = heappop
        fifo_pop = fifo.popleft
        fifo_append = fifo.append
        now = self.now
        check_stop = stop_event is not None

        while True:
            if check_stop and stop_event.callbacks is None:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value

            # -- pop the next event in (time, priority, id) order ---------
            if urgent:
                event = urgent.popleft()
            elif fifo:
                if queue and queue[0][0] <= now and queue[0][1] < fifo[0]._key:
                    event = pop(queue)[2]
                else:
                    event = fifo_pop()
            elif queue:
                entry = pop(queue)
                when = entry[0]
                if when > horizon:
                    # Cold: ends the run.  Restoring the entry may change
                    # the heap's internal arrangement but not its pop
                    # order — ids are unique, so (time, id) is total.
                    heappush(queue, entry)
                    self.now = stop_time
                    return None
                event = entry[2]
                self.now = now = when
            else:
                if stop_event is not None:
                    raise SimulationError(
                        "event queue drained before the stop event fired")
                if stop_time is not None:
                    self.now = stop_time
                return None

            if publish is not None:
                publish(now, event)

            # -- dispatch -------------------------------------------------
            process = event.callbacks
            event.callbacks = None
            if process is not None:
                if process.__class__ is Process:
                    # Inlined Process._resume(event) — the dominant case
                    # of exactly one waiting process.
                    self._active_process = process
                    send = process._send
                    resumed = event
                    while True:
                        try:
                            if resumed._ok:
                                next_event = send(resumed._value)
                            else:
                                resumed._defused = True
                                next_event = process._generator.throw(
                                    resumed._value)
                        except StopIteration as stop:
                            process._ok = True
                            process._value = stop.value
                            self._eid = eid = self._eid + 1
                            process._key = eid
                            fifo_append(process)
                            break
                        except BaseException as exc:
                            process._ok = False
                            process._value = exc
                            self._eid = eid = self._eid + 1
                            process._key = eid
                            fifo_append(process)
                            break

                        try:
                            cbs = next_event.callbacks
                        except AttributeError:
                            exc = SimulationError(
                                f"process yielded a non-event: "
                                f"{next_event!r}")
                            resumed = Event(self)
                            resumed._ok = False
                            resumed._value = exc
                            continue
                        if cbs is not None:
                            if cbs.__class__ is tuple:
                                next_event.callbacks = process
                            elif cbs.__class__ is list:
                                cbs.append(process)
                            else:
                                next_event.callbacks = [cbs, process]
                            break
                        resumed = next_event

                    self._active_process = None
                else:
                    cls = process.__class__
                    if cls is list:
                        for callback in process:
                            callback(event)
                    elif cls is not tuple:
                        process(event)
            if not event._ok and not event._defused:
                raise event._value
