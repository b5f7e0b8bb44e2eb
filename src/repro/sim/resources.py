"""Shared-resource primitives for the simulation engine.

These are the building blocks used to model contention: GPUs and NICs are
``Resource`` instances, render/compression queues are ``Store`` instances,
and bandwidth-style quantities are ``Container`` instances.

Like :mod:`repro.sim.engine`, the request/put/get event classes sit on the
hot path of every session pipeline, so they declare ``__slots__`` and the
FIFO wait queues are ``collections.deque`` (O(1) popleft) rather than
lists.  Observable grant/wakeup order is unchanged and pinned by the
golden traces in ``tests/golden/``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.sim.engine import (
    _NO_CALLBACKS,
    _PENDING,
    Environment,
    Event,
    SimulationError,
)

# The request/put/get paths below inline Event construction and
# Event.succeed() (including the scheduling append) to keep the per-call
# frame count minimal; each inlined block mirrors the reference methods
# in repro.sim.engine exactly.

__all__ = [
    "Container",
    "PreemptionError",
    "PriorityResource",
    "Request",
    "Release",
    "Resource",
    "Store",
]


class PreemptionError(Exception):
    """Raised inside a process whose resource slot was preempted."""

    def __init__(self, by: Any, usage_since: float):
        super().__init__(f"preempted by {by!r}")
        self.by = by
        self.usage_since = usage_since


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource", "priority", "usage_since", "process")

    def __init__(self, resource: "Resource", priority: float = 0.0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.usage_since: Optional[float] = None
        self.process = resource.env.active_process
        resource._add_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # == cancel(), inlined: __exit__ runs once per held slot.
        self.resource.release(self)

    def cancel(self) -> None:
        """Release the slot if held, or withdraw the request if queued."""
        self.resource.release(self)


class Release(Event):
    """Event representing the (immediate) release of a resource slot."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request):
        env = resource.env
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._ok = True
        self._value = None
        self.request = request
        env._eid = eid = env._eid + 1
        self._key = eid
        env._fifo.append(self)


# Pre-bound allocators mirroring the engine's hot-factory pattern.
_RELEASE_NEW = Release.__new__
_REQUEST_NEW = Request.__new__


class Resource:
    """A capacity-limited resource with FIFO queueing.

    ``capacity`` slots may be held at once; further requests queue in FIFO
    order.  ``users`` exposes the currently granted requests and ``queue``
    the waiting ones, which the hardware models use to compute occupancy
    and contention factors.
    """

    __slots__ = ("env", "capacity", "users", "queue", "_fast_request")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()
        # The request() fast path hardcodes the base-class grant/admit
        # decision; subclasses that override those hooks must go through
        # the reference Request(...) path instead.
        cls = type(self)
        self._fast_request = (cls._add_request is Resource._add_request
                              and cls._grant is Resource._grant)

    # -- introspection -----------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def occupancy(self) -> float:
        """Fraction of capacity in use (can exceed 1.0 counting waiters)."""
        return (len(self.users) + len(self.queue)) / self.capacity

    # -- request / release ---------------------------------------------------
    def request(self, priority: float = 0.0) -> Request:
        if not self._fast_request:
            return Request(self, priority)
        env = self.env
        request = _REQUEST_NEW(Request)
        request.env = env
        request.callbacks = _NO_CALLBACKS
        request.resource = self
        request.priority = priority
        request.process = env._active_process
        users = self.users
        if len(users) < self.capacity:
            # Fast path: grant immediately (== _grant + succeed).
            request.usage_since = env.now
            users.append(request)
            request._ok = True
            request._value = self
            env._eid = eid = env._eid + 1
            request._key = eid
            env._fifo.append(request)
        else:
            request.usage_since = None
            request._ok = None
            request._value = _PENDING
            self._enqueue(request)
        return request

    def release(self, request: Request) -> Release:
        # One list scan instead of a membership test plus a remove.
        users = self.users
        try:
            users.remove(request)
        except ValueError:
            self._withdraw(request)
        else:
            if self.queue and len(users) < self.capacity:
                self._grant_next()
        # == Release(self, request), inlined.
        env = self.env
        release = _RELEASE_NEW(Release)
        release.env = env
        release.callbacks = _NO_CALLBACKS
        release._ok = True
        release._value = None
        release.request = request
        env._eid = eid = env._eid + 1
        release._key = eid
        env._fifo.append(release)
        return release

    # -- internals -----------------------------------------------------------
    def _add_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self._grant(request)
        else:
            self._enqueue(request)

    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)

    def _withdraw(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant(self, request: Request) -> None:
        request.usage_since = self.env.now
        self.users.append(request)
        request.succeed(self)

    def _grant_next(self) -> None:
        if not self._fast_request:
            while self.queue and len(self.users) < self.capacity:
                self._grant(self._pop_next())
            return
        env = self.env
        users = self.users
        capacity = self.capacity
        while self.queue and len(users) < capacity:
            request = self._pop_next()
            # == _grant + succeed, inlined.
            request.usage_since = env.now
            users.append(request)
            request._ok = True
            request._value = self
            env._eid = eid = env._eid + 1
            request._key = eid
            env._fifo.append(request)

    def _pop_next(self) -> Request:
        return self.queue.popleft()


class PriorityResource(Resource):
    """Resource whose queue is ordered by ``priority`` (lower is sooner)."""

    __slots__ = ("_heap", "_counter")

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        self._heap: list[tuple[float, int, Request]] = []
        self._counter = 0

    def _enqueue(self, request: Request) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (request.priority, self._counter, request))
        self._sync_queue()

    def _pop_next(self) -> Request:
        _prio, _count, request = heapq.heappop(self._heap)
        self._sync_queue()
        return request

    def _withdraw(self, request: Request) -> None:
        self._heap = [e for e in self._heap if e[2] is not request]
        heapq.heapify(self._heap)
        self._sync_queue()

    def _sync_queue(self) -> None:
        self.queue = deque(entry[2] for entry in sorted(self._heap))


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._get_queue.append(self)
        store._trigger()


_STOREPUT_NEW = StorePut.__new__
_STOREGET_NEW = StoreGet.__new__


class Store:
    """An unbounded-or-bounded FIFO buffer of items between processes.

    ``put`` events succeed once the item is accepted (immediately unless
    the store is full); ``get`` events succeed with the oldest item once
    one is available.  This models the hand-off queues between pipeline
    stages (application → interposer → VNC proxy → network).
    """

    __slots__ = ("env", "capacity", "items", "_put_queue", "_get_queue")

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._put_queue: deque[StorePut] = deque()
        self._get_queue: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        env = self.env
        put = _STOREPUT_NEW(StorePut)
        put.env = env
        put.callbacks = _NO_CALLBACKS
        put.item = item
        items = self.items
        if self._put_queue or len(items) >= self.capacity:
            put._value = _PENDING
            put._ok = None
            self._put_queue.append(put)
            self._trigger()
            return put
        # Fast path: accepted immediately (== one _trigger pass; the
        # succeed is inlined).  At most one waiting getter is then
        # served — getters only ever wait while the buffer is empty.
        items.append(item)
        put._ok = True
        put._value = None
        env._eid = eid = env._eid + 1
        put._key = eid
        env._fifo.append(put)
        gets = self._get_queue
        if gets:  # items is non-empty: the put above just appended
            gets.popleft().succeed(items.popleft())
        return put

    def get(self) -> StoreGet:
        env = self.env
        get = _STOREGET_NEW(StoreGet)
        get.env = env
        get.callbacks = _NO_CALLBACKS
        items = self.items
        if self._get_queue or not items:
            get._value = _PENDING
            get._ok = None
            self._get_queue.append(get)
            self._trigger()
            return get
        # Fast path: an item is ready (== one _trigger pass; the succeed
        # is inlined).  The freed slot then admits at most one waiting
        # putter — putters only ever wait while the buffer is full.
        get._ok = True
        get._value = items.popleft()
        env._eid = eid = env._eid + 1
        get._key = eid
        env._fifo.append(get)
        puts = self._put_queue
        if puts:  # the popleft above freed a slot, so capacity allows one put
            put = puts.popleft()
            items.append(put.item)
            put.succeed()
        return get

    def _trigger(self) -> None:
        items = self.items
        put_queue = self._put_queue
        get_queue = self._get_queue
        capacity = self.capacity
        progressed = True
        while progressed:
            progressed = False
            if put_queue and len(items) < capacity:
                put = put_queue.popleft()
                items.append(put.item)
                put.succeed()
                progressed = True
            if get_queue and items:
                get_queue.popleft().succeed(items.popleft())
                progressed = True


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        self.env = container.env
        self.callbacks = _NO_CALLBACKS
        self._value = _PENDING
        self._ok = None
        self.amount = amount
        container._put_queue.append(self)
        container._trigger()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        self.env = container.env
        self.callbacks = _NO_CALLBACKS
        self._value = _PENDING
        self._ok = None
        self.amount = amount
        container._get_queue.append(self)
        container._trigger()


class Container:
    """A reservoir of continuous "stuff" (bytes, tokens, joules).

    Used for bandwidth budgeting: producers ``put`` and consumers ``get``
    amounts, blocking when the level would go out of bounds.
    """

    __slots__ = ("env", "capacity", "level", "_put_queue", "_get_queue")

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0):
        if capacity <= 0:
            raise SimulationError(f"container capacity must be positive, got {capacity}")
        if not 0.0 <= init <= capacity:
            raise SimulationError(f"initial level {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self.level = float(init)
        self._put_queue: deque[ContainerPut] = deque()
        self._get_queue: deque[ContainerGet] = deque()

    def put(self, amount: float) -> ContainerPut:
        if amount < 0:
            raise SimulationError("cannot put a negative amount")
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        if amount < 0:
            raise SimulationError("cannot get a negative amount")
        return ContainerGet(self, amount)

    def _trigger(self) -> None:
        put_queue = self._put_queue
        get_queue = self._get_queue
        progressed = True
        while progressed:
            progressed = False
            if put_queue:
                put = put_queue[0]
                if self.level + put.amount <= self.capacity:
                    put_queue.popleft()
                    self.level += put.amount
                    put.succeed()
                    progressed = True
            if get_queue:
                get = get_queue[0]
                if self.level >= get.amount:
                    get_queue.popleft()
                    self.level -= get.amount
                    get.succeed(get.amount)
                    progressed = True
