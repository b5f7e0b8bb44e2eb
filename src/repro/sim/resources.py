"""Shared-resource primitives for the simulation engine.

``Store`` is the hand-off queue between the session pipeline's stages
(application → interposer → VNC proxy → network).  ``Resource`` is a
capacity-limited slot pool with FIFO queueing; no model uses it today,
but the kernel micro-benchmark (``benchmarks/test_sim_core_speed.py``)
measures it, together with bounded stores, so both stay.

Like :mod:`repro.sim.engine`, the store's put/get events sit on the hot
path of every session pipeline, so every event class here declares
``__slots__`` and the FIFO wait queues are ``collections.deque`` (O(1)
popleft) rather than lists.  Observable grant/wakeup order is pinned by
the golden traces in ``tests/golden/``.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import (
    _NO_CALLBACKS,
    _PENDING,
    Environment,
    Event,
    SimulationError,
)

# The events below are built only by the request/release/put/get
# methods, which inline Event construction and Event.succeed()
# (including the scheduling append) to keep the per-call frame count
# minimal; each inlined block mirrors the reference methods in
# repro.sim.engine exactly.

__all__ = [
    "Request",
    "Release",
    "Resource",
    "Store",
]


class Request(Event):
    """A claim on a :class:`Resource` slot, made by
    :meth:`Resource.request`.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource", "process")

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Release the slot if held, or withdraw the request if queued."""
        self.resource.release(self)


class Release(Event):
    """The (immediate) release of a resource slot, made by
    :meth:`Resource.release`."""

    __slots__ = ("request",)


# Pre-bound allocators mirroring the engine's hot-factory pattern.
_RELEASE_NEW = Release.__new__
_REQUEST_NEW = Request.__new__


class Resource:
    """A capacity-limited resource with FIFO queueing.

    ``capacity`` slots may be held at once; further requests queue in FIFO
    order.  ``users`` holds the granted requests and ``queue`` the waiting
    ones.
    """

    __slots__ = ("env", "capacity", "users", "queue")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    def request(self) -> Request:
        """Claim a slot: granted at once while one is free, else queued."""
        env = self.env
        request = _REQUEST_NEW(Request)
        request.env = env
        request.callbacks = _NO_CALLBACKS
        request.resource = self
        request.process = env._active_process
        users = self.users
        if len(users) < self.capacity:
            users.append(request)
            request._ok = True
            request._value = self
            env._eid = eid = env._eid + 1
            request._key = eid
            env._fifo.append(request)
        else:
            request._ok = None
            request._value = _PENDING
            self.queue.append(request)
        return request

    def release(self, request: Request) -> Release:
        """Free ``request``'s slot, granting it to the waiters next in
        line, or withdraw ``request`` from the queue."""
        users = self.users
        queue = self.queue
        env = self.env
        # One list scan instead of a membership test plus a remove.
        try:
            users.remove(request)
        except ValueError:
            try:
                queue.remove(request)
            except ValueError:
                pass
        else:
            capacity = self.capacity
            while queue and len(users) < capacity:
                granted = queue.popleft()
                users.append(granted)
                granted._ok = True
                granted._value = self
                env._eid = eid = env._eid + 1
                granted._key = eid
                env._fifo.append(granted)
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


class StorePut(Event):
    """An item offered to a :class:`Store`, made by :meth:`Store.put`."""

    __slots__ = ("item",)


class StoreGet(Event):
    """A request for a :class:`Store`'s oldest item, made by
    :meth:`Store.get`."""

    __slots__ = ()


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
