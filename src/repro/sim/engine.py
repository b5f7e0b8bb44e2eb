"""Core discrete-event simulation engine.

The engine is a small, deterministic, generator-based kernel in the style
of SimPy.  It provides:

``Environment``
    Owns the simulation clock and the event queues, schedules events and
    steps the simulation forward.

``Event``
    A one-shot occurrence that callbacks can be attached to.  Events are
    either *succeeded* with a value or *failed* with an exception.

``Timeout``
    An event that fires after a fixed simulated delay.

``Process``
    Wraps a generator.  The generator yields events; the process resumes
    when the yielded event fires.  A process is itself an event that fires
    when the generator returns.

``AllOf`` / ``AnyOf``
    Composite events over several child events.

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
semantics — every pending event still fires in ``(time, priority,
sequence-id)`` order, with sequence ids advancing exactly as through
:meth:`Environment._schedule`.  :meth:`Environment.step` (with
:meth:`Environment._pop_next`) is that reference, spelled out without
inlining; the property tests compare :meth:`Environment.run` against
it, and the golden traces in ``tests/golden/`` pin the order down
against the pre-rewrite kernel.  The tricks:

* every event class declares ``__slots__``;
* heap entries are flat ``(time, key, event)`` triples where ``key``
  packs ``(priority, sequence-id)`` into one integer, so tie-breaking
  never falls through to an extra tuple element;
* zero-delay events bypass the heap entirely: they are appended to
  plain FIFO deques (``Environment._fifo`` / ``_urgent``) carrying
  their packed key in the ``_key`` slot instead of a per-entry tuple,
  turning the dominant schedule-now case from O(log n) + allocation
  into a single O(1) append;
* ``callbacks`` avoids list allocation: a fresh event carries a shared
  empty tuple, a single waiter is stored directly (processes are
  callable), and only a second waiter materializes a list
  (``callbacks is None`` still means "processed");
* a waiting process registers *itself* as the callback (it is callable)
  rather than materializing a ``_resume`` bound method per wait;
* ``_defused`` is lazily initialized: the dispatch loop only reads it
  for *failed* events, so hot factories skip the slot write and every
  path that can produce ``_ok = False`` guarantees the slot is set
  (``fail()`` and ``Interruption`` write it; process crashes rely on
  ``Process.__init__``);
* a yielded object is validated by reading its ``callbacks`` attribute
  under ``try/except AttributeError`` instead of an ``isinstance``
  check — free for the overwhelmingly common valid yield;
* ``Timeout`` construction, ``succeed``/``fail`` and process
  termination inline the scheduling push, and
  :meth:`Environment.run` inlines both the pop/dispatch loop and the
  resume step of a single waiting process;
* positive delays too small for the clock to represent are routed to
  the deques (same ``(time, priority, id)`` order), so the heap only
  holds a current-instant entry for a zero-delay schedule at an unusual
  priority (>= 2).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator, Iterable
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "MacroJump",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for structural misuse of the simulation engine."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the interrupting party's reason and is
    typically used by preemptive resources to tell the victim why it lost
    the resource.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not yet decided" from a None value.
_PENDING = object()

# Shared placeholder for "no callbacks attached yet".  Freshly created
# events carry this immutable empty tuple instead of allocating a list;
# a single waiter is then stored directly and only a second waiter
# materializes a list.  ``callbacks is None`` still (and only) means
# "processed".
_NO_CALLBACKS: tuple = ()

# Heap keys pack (priority, sequence-id) into a single integer:
# ``(priority << _KEY_SHIFT) + eid``.  Urgent events (priority 0) sort
# before normal ones at the same timestamp, and within a priority FIFO
# order follows the monotonically increasing id — exactly the ordering
# of the reference ``(time, priority, eid, event)`` heap tuples.
#
# Deque entries store the *bare* sequence id in ``_key``; the compare
# sites reconstruct the full packed key on demand (``_NORMAL_KEY +
# _key`` for the normal FIFO, the bare id for the urgent deque).  The
# reconstruction only happens when the heap could actually interfere at
# the current instant, so the dominant zero-delay path never pays the
# big-integer add (or its allocation).
_KEY_SHIFT = 53
_NORMAL_KEY = 1 << _KEY_SHIFT


class Event:
    """A one-shot simulation event.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    makes it *triggered*; it is then scheduled and its callbacks run when
    the environment processes it, after which it is *processed*.

    ``callbacks`` is the shared empty tuple until a waiter attaches, a
    single callable while one waiter is attached, a list once several
    are, and ``None`` once processed.  ``_key`` holds the event's
    sequence id while the event sits in a zero-delay deque (events are
    one-shot, so the slot is written at most once); the deque identity
    supplies the priority half of the packed scheduling key.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_key")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (scheduled or processed)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
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

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on the event.
        If nobody waits, the environment raises it at the end of the step
        (unless :meth:`defuse_source` was called).
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        # Hot factories skip the _defused init; every failure path must
        # write it before the dispatch loop can read it.
        self._defused = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        self._key = eid
        env._fifo.append(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining).

        The source event must itself already be triggered; propagating
        from a still-pending source is a structural error.
        """
        ok = event._ok
        if ok:
            self.succeed(event._value)
        elif ok is None:
            raise SimulationError(
                f"cannot trigger {self!r} from {event!r}, which is still pending")
        else:
            event._defused = True
            self.fail(event._value)

    @staticmethod
    def defuse_source(event: "Event") -> None:
        event._defused = True

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback`` to run when this event is processed.

        The supported way to observe an event from outside the engine —
        the concrete type behind ``callbacks`` is an implementation
        detail of the kernel.
        """
        callbacks = self.callbacks
        if callbacks is None:
            raise SimulationError(f"{self!r} has already been processed")
        if callbacks.__class__ is tuple:
            self.callbacks = callback
        elif callbacks.__class__ is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]

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
        # so the generic Event init + _schedule machinery is bypassed.
        # _defused is left unset: it is only ever read for failed events
        # and a timeout is born succeeded.
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._ok = True
        self._value = value
        self.delay = delay = float(delay)
        env._eid = eid = env._eid + 1
        now = env.now
        when = now + delay
        if when > now:
            heappush(env._queue, (when, _NORMAL_KEY + eid, self))
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
    """Internal event used to start a newly created process."""

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

    __slots__ = ("_generator", "_send", "_target", "_pid")

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
        self._target: Optional[Event] = None
        env._pid = self._pid = env._pid + 1
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env._active_process:
            raise SimulationError("a process cannot interrupt itself")
        Interruption(self, cause)

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
                self._target = None
                env._eid = eid = env._eid + 1
                self._key = eid
                env._fifo.append(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._target = None
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
                self._target = next_event
                break
            # Event already processed: loop immediately with its value.
            event = next_event

        env._active_process = None

    # A process doubles as its own resume callback, so waiting appends
    # the process object itself instead of materializing a bound method.
    __call__ = _resume


class Interruption(Event):
    """Helper event that delivers an :class:`Interrupt` to a process."""

    __slots__ = ("process",)

    def __init__(self, process: Process, cause: Any):
        env = process.env
        self.env = env
        self.callbacks = self._deliver
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.process = process
        env._eid = eid = env._eid + 1
        self._key = eid
        env._urgent.append(self)

    def _deliver(self, event: Event) -> None:
        process = self.process
        if not process.is_alive:
            return
        # Detach the process from whatever it is currently waiting on so the
        # original event does not also resume it later.
        target = process._target
        if target is not None:
            callbacks = target.callbacks
            if callbacks is process:
                target.callbacks = _NO_CALLBACKS
            elif callbacks.__class__ is list:
                try:
                    callbacks.remove(process)
                except ValueError:
                    pass
        process._resume(self)


class ConditionEvent(Event):
    """Base class for :class:`AllOf` and :class:`AnyOf`."""

    __slots__ = ("events", "_completed")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._completed: list[Event] = []
        if not self.events:
            self.succeed({})
            return
        on_child = self._on_child
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
            callbacks = event.callbacks
            if callbacks is None:
                on_child(event)
            elif callbacks.__class__ is tuple:
                event.callbacks = on_child
            elif callbacks.__class__ is list:
                callbacks.append(on_child)
            else:
                event.callbacks = [callbacks, on_child]

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        completed = self._completed
        completed.append(event)
        if self._satisfied():
            self.succeed({e: e._value for e in completed})

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Succeeds once every child event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._completed) == len(self.events)


class AnyOf(ConditionEvent):
    """Succeeds as soon as any child event succeeds."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._completed) >= 1


class Environment:
    """The simulation environment: clock, event queues, and run loop.

    Scheduling uses three structures, together totally ordered by
    ``(time, priority, sequence-id)`` exactly as a single heap of
    ``(time, priority, eid, event)`` tuples would be:

    * ``_queue`` — events scheduled with a positive delay, as a plain
      ``heapq`` list of ``(time, key, event)`` tuples;
    * ``_urgent`` / ``_fifo`` — deques of events scheduled at the
      *current* time (zero delay), each carrying its packed key in
      ``_key``.  Ids increase monotonically, so each deque is already
      sorted and a zero-delay event costs O(1) instead of O(log n).

    Invariants the pop order relies on: nothing can be scheduled into
    the past, and the clock only advances when both deques are empty —
    so every deque entry is at the current time and every heap entry is
    at the current time or later.  Same-time ties are arbitrated purely
    through the packed keys.
    """

    __slots__ = ("now", "_queue", "_fifo", "_urgent", "_eid", "_pid",
                 "_active_process", "_publish", "_bus", "_virtual_offset")

    PRIORITY_URGENT = 0
    PRIORITY_NORMAL = 1

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

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

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
            heappush(self._queue, (when, _NORMAL_KEY + eid, timeout))
        else:
            # Zero delay, or one the clock cannot represent: fires at the
            # current instant in id order — the FIFO's order.
            timeout._key = eid
            self._fifo.append(timeout)
        return timeout

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = PRIORITY_NORMAL) -> None:
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        self._eid = eid = self._eid + 1
        now = self.now
        when = now + delay
        if when > now:
            heappush(self._queue, (when, (priority << _KEY_SHIFT) + eid, event))
        elif priority == 1:
            event._key = eid
            self._fifo.append(event)
        elif priority == 0:
            event._key = eid
            self._urgent.append(event)
        else:
            # Unusual priorities take the heap at the current time; the
            # packed key keeps them ordered after urgent/normal peers.
            heappush(self._queue, (now, (priority << _KEY_SHIFT) + eid, event))

    def _pop_next(self) -> Event:
        """Remove and return the next event in (time, priority, id) order.

        Advances the clock when the event comes off the heap at a later
        time.  Callers must ensure at least one event is pending.
        """
        queue = self._queue
        now = self.now
        urgent = self._urgent
        if urgent:
            if queue and queue[0][0] <= now and queue[0][1] < urgent[0]._key:
                return heappop(queue)[2]
            return urgent.popleft()
        fifo = self._fifo
        if fifo:
            if (queue and queue[0][0] <= now
                    and queue[0][1] < _NORMAL_KEY + fifo[0]._key):
                return heappop(queue)[2]
            return fifo.popleft()
        when, _key, event = heappop(queue)
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
                if queue and queue[0][0] <= now and queue[0][1] < urgent[0]._key:
                    event = pop(queue)[2]
                else:
                    event = urgent.popleft()
            elif fifo:
                if (queue and queue[0][0] <= now
                        and queue[0][1] < _NORMAL_KEY + fifo[0]._key):
                    event = pop(queue)[2]
                else:
                    event = fifo_pop()
            elif queue:
                entry = pop(queue)
                when = entry[0]
                if when > horizon:
                    # Cold: ends the run.  Restoring the entry may change
                    # the heap's internal arrangement but not its pop
                    # order — keys are unique, so (time, key) is total.
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
                            process._target = None
                            self._eid = eid = self._eid + 1
                            process._key = eid
                            fifo_append(process)
                            break
                        except BaseException as exc:
                            process._ok = False
                            process._value = exc
                            process._target = None
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
                            process._target = next_event
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
