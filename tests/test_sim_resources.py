"""Tests for resources and stores."""

import pytest

from repro.sim.engine import SimulationError
from repro.sim.resources import Resource, Store


def test_resource_grants_up_to_capacity(env):
    resource = Resource(env, capacity=2)
    grant_times = []

    def worker(env, resource, hold):
        with resource.request() as request:
            yield request
            grant_times.append(env.now)
            yield env.timeout(hold)

    for _ in range(3):
        env.process(worker(env, resource, hold=2.0))
    env.run()
    # Two granted immediately, the third waits for a release.
    assert grant_times == [0.0, 0.0, 2.0]


def test_resource_occupancy_counts_waiters(env):
    resource = Resource(env, capacity=1)

    def holder(env, resource):
        with resource.request() as request:
            yield request
            yield env.timeout(5.0)

    def waiter(env, resource):
        with resource.request() as request:
            yield request

    env.process(holder(env, resource))
    env.process(waiter(env, resource))
    env.run(until=1.0)
    assert len(resource.users) == 1
    assert len(resource.queue) == 1


def test_resource_released_on_context_exit(env):
    resource = Resource(env, capacity=1)

    def worker(env, resource):
        with resource.request() as request:
            yield request
            yield env.timeout(1.0)

    env.process(worker(env, resource))
    env.run()
    assert not resource.users


def test_invalid_capacity_rejected(env):
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_cancelled_waiter_leaves_the_queue(env):
    resource = Resource(env, capacity=1)
    held = resource.request()
    queued = resource.request()
    queued.cancel()
    assert list(resource.queue) == []
    resource.release(held)
    assert resource.users == []


def test_store_is_fifo(env):
    store = Store(env)
    received = []

    def producer(env, store):
        for item in ("a", "b", "c"):
            yield store.put(item)
            yield env.timeout(1.0)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_item_available(env):
    store = Store(env)
    times = []

    def consumer(env, store):
        yield store.get()
        times.append(env.now)

    def producer(env, store):
        yield env.timeout(3.0)
        yield store.put("late item")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert times == [3.0]


def test_bounded_store_blocks_put(env):
    store = Store(env, capacity=1)
    put_times = []

    def producer(env, store):
        for _ in range(2):
            yield store.put("item")
            put_times.append(env.now)

    def consumer(env, store):
        yield env.timeout(4.0)
        yield store.get()

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert put_times == [0.0, 4.0]


def test_store_len_reports_queued_items(env):
    store = Store(env)
    store.put("a")
    store.put("b")
    env.run()
    assert len(store) == 2
