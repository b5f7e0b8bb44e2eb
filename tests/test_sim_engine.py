"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment, SimulationError, Timeout
from repro.sim.resources import Store
from repro.sim.trace import TraceRecorder


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_timeout_advances_clock(env):
    done = []

    def proc(env):
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2.5]


def test_sequential_timeouts_accumulate(env):
    times = []

    def proc(env):
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0, 3.0, 6.0]


_DELAY_ENTRY_POINTS = {
    "Timeout": lambda env, delay: Timeout(env, delay),
    "env.timeout": lambda env, delay: env.timeout(delay),
}


@pytest.mark.parametrize("delay", [-1.0, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("entry", sorted(_DELAY_ENTRY_POINTS))
def test_negative_timeout_rejected(env, entry, delay):
    """Negative and NaN delays are rejected; a NaN must not slip through
    a ``delay < 0`` check and fire at the current instant."""
    with pytest.raises(SimulationError):
        _DELAY_ENTRY_POINTS[entry](env, delay)
    assert env.peek() == float("inf")  # nothing was scheduled


def test_run_until_time_stops_early(env):
    reached = []

    def proc(env):
        yield env.timeout(10.0)
        reached.append(True)

    env.process(proc(env))
    env.run(until=5.0)
    assert env.now == 5.0
    assert not reached


def test_run_until_event_returns_value(env):
    def proc(env):
        yield env.timeout(1.0)
        return "result"

    process = env.process(proc(env))
    assert env.run(until=process) == "result"


def test_event_succeed_delivers_value(env):
    event = env.event()
    collected = []

    def waiter(env, event):
        value = yield event
        collected.append(value)

    env.process(waiter(env, event))
    event.succeed(42)
    env.run()
    assert collected == [42]


def test_event_cannot_trigger_twice(env):
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_failure_propagates_into_process(env):
    """A child process that raises fails as an event: the exception is
    thrown into the parent waiting on it, which can catch it."""
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    env.process(parent(env))
    env.run()
    assert caught == [(1.0, "boom")]


def test_unhandled_process_exception_surfaces(env):
    def broken(env):
        yield env.timeout(1.0)
        raise RuntimeError("broken process")

    env.process(broken(env))
    with pytest.raises(RuntimeError, match="broken process"):
        env.run()


def test_process_is_event_and_waitable(env):
    order = []

    def child(env):
        yield env.timeout(2.0)
        order.append("child")
        return 7

    def parent(env):
        value = yield env.process(child(env))
        order.append("parent")
        return value

    parent_proc = env.process(parent(env))
    result = env.run(until=parent_proc)
    assert order == ["child", "parent"]
    assert result == 7


def test_yielding_non_event_raises(env):
    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_non_generator_process_rejected(env):
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_event_ordering_is_fifo_at_same_time(env):
    order = []

    def proc(env, label):
        yield env.timeout(1.0)
        order.append(label)

    for label in ("first", "second", "third"):
        env.process(proc(env, label))
    env.run()
    assert order == ["first", "second", "third"]


def test_peek_reports_next_event_time(env):
    env.timeout(4.0)
    assert env.peek() == 4.0


def test_run_until_past_time_rejected(env):
    env.timeout(1.0)
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=0.5)
    # A NaN horizon compares false against everything; it must not run
    # the queue to exhaustion and leave the clock at NaN.
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))
    assert env.now == 1.0
    assert env.peek() == 2.0


# ---------------------------------------------------------------------------
# Semantics locked in before the kernel rewrite: drain/stop interactions,
# re-trigger errors, same-instant ordering, and randomized determinism.
# ---------------------------------------------------------------------------


def test_run_until_event_raises_when_queue_drains(env):
    never = env.event()

    def quick(env):
        yield env.timeout(1.0)

    env.process(quick(env))
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=never)


def test_run_until_failed_stop_event_raises_its_error(env):
    def broken(env):
        yield env.timeout(1.0)
        raise KeyError("inner")

    process = env.process(broken(env))
    with pytest.raises(KeyError):
        env.run(until=process)


def test_retrigger_paths_raise(env):
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    # A timeout is born triggered, and a served store get already holds
    # its item: neither can be triggered again.
    with pytest.raises(SimulationError):
        env.timeout(1.0).succeed()
    store = Store(env)
    store.put("item")
    with pytest.raises(SimulationError):
        store.get().succeed("other")


def test_value_unavailable_until_triggered(env):
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    event.succeed("v")
    assert event.value == "v"


def test_same_time_ordering_mixes_delayed_and_immediate(env):
    """FIFO-by-schedule-id holds when delayed events land at the same
    instant an immediate (zero-delay) event is created."""
    order = []

    def early(env):
        yield env.timeout(1.0)          # scheduled at t=0
        order.append("early")
        yield env.timeout(0.0)          # immediate, but scheduled later
        order.append("early-immediate")

    def late(env):
        yield env.timeout(0.5)
        yield env.timeout(0.5)          # lands at t=1.0, scheduled at t=0.5
        order.append("late")

    env.process(early(env))
    env.process(late(env))
    env.run()
    assert order == ["early", "late", "early-immediate"]


def test_zero_delay_timeouts_are_fifo_with_succeeded_events(env):
    order = []

    def a(env):
        yield env.timeout(0.0)
        order.append("a")

    def b(env, event):
        yield event
        order.append("b")

    def c(env):
        yield env.timeout(0.0)
        order.append("c")

    env.process(a(env))
    event = env.event()
    env.process(b(env, event))
    event.succeed()
    env.process(c(env))
    env.run()
    # The pre-run succeed is scheduled before a's and c's zero-delay
    # timeouts, which are only created once their processes start.
    assert order == ["b", "a", "c"]


def test_run_until_infinity_advances_clock_on_drain():
    """run(until=inf) drains the queue and leaves the clock at infinity,
    regardless of which float-infinity object the caller passes."""
    import math

    for horizon in (math.inf, float("inf")):
        env = Environment()

        def proc(env):
            yield env.timeout(5.0)

        env.process(proc(env))
        env.run(until=horizon)
        assert env.now == math.inf

    plain = Environment()

    def proc(env):
        yield env.timeout(5.0)

    plain.process(proc(plain))
    plain.run()                      # no horizon: clock stays at last event
    assert plain.now == 5.0


# ---------------------------------------------------------------------------
# Randomized property tests: determinism and step()/run() equivalence.
# ---------------------------------------------------------------------------

_DELAYS = st.lists(
    st.lists(st.one_of(st.just(0.0),
                       st.floats(min_value=0.001, max_value=2.0,
                                 allow_nan=False, allow_infinity=False)),
             min_size=1, max_size=6),
    min_size=1, max_size=8)


def _random_workload(env, spec):
    """Random timeout chains, each ending in one of the shapes the models
    run: a child process joined by two parents (the list-callback path
    through ``Process._resume``), a ``Store`` hand-off to a waiting
    getter, or a child that raises and is caught by its waiter."""
    handoff = Store(env)

    def child(env, index):
        yield env.timeout(0.25)
        return index

    def crasher(env, index):
        yield env.timeout(0.0)
        raise ValueError(index)

    def join(env, process):
        return (yield process)

    def take(env, store):
        return (yield store.get())

    def proc(env, delays, index):
        for delay in delays:
            yield env.timeout(delay, value=index)
        shape = index % 4
        if shape == 0:
            joined = env.process(child(env, index))
            env.process(join(env, joined))
            yield joined
        elif shape == 1:
            getter = env.process(take(env, handoff))
            yield env.timeout(0.125)
            yield handoff.put(index)
            yield getter
        elif shape == 2:
            try:
                yield env.process(crasher(env, index))
            except ValueError:
                pass
        return index

    for index, delays in enumerate(spec):
        env.process(proc(env, delays, index))


def _trace_with_run(spec, workload=_random_workload):
    env = Environment()
    recorder = TraceRecorder(env)
    workload(env, spec)
    env.run()
    return recorder.entries


def _trace_with_step(spec, workload=_random_workload):
    env = Environment()
    recorder = TraceRecorder(env)
    workload(env, spec)
    while env.peek() != float("inf"):
        env.step()
    return recorder.entries


@settings(max_examples=25, deadline=None)
@given(spec=_DELAYS)
def test_random_workloads_are_deterministic(spec):
    first = _trace_with_run(spec)
    second = _trace_with_run(spec)
    assert first == second
    assert first  # something actually ran


@settings(max_examples=25, deadline=None)
@given(spec=_DELAYS)
def test_step_and_run_produce_identical_traces(spec):
    assert _trace_with_run(spec) == _trace_with_step(spec)


@settings(max_examples=20, deadline=None)
@given(spec=_DELAYS, horizon=st.floats(min_value=0.1, max_value=5.0))
def test_clock_is_monotonic_and_bounded(spec, horizon):
    env = Environment()
    _random_workload(env, spec)
    observed = []
    env.bus.subscribe(lambda now, event: observed.append(now))
    env.run(until=horizon)
    assert env.now == horizon
    assert all(t1 <= t2 for t1, t2 in zip(observed, observed[1:]))
    assert all(0.0 <= t <= horizon for t in observed)


# ---------------------------------------------------------------------------
# Same-timestamp dispatch.
# ---------------------------------------------------------------------------

_BURST_SPEC = st.lists(
    st.tuples(st.integers(min_value=1, max_value=8),      # waiters per burst
              st.sampled_from([0.0, 0.125, 0.25])),       # follow-up delay
    min_size=1, max_size=5)


def _burst_workload(env, spec):
    """Same-instant bursts: a coordinator succeeds many events at one
    timestamp while waiters chain zero-delay and colliding heap timeouts
    — long runs of zero-delay FIFO dispatch."""
    def waiter(env, inbox, follow_up):
        yield inbox
        yield env.timeout(follow_up)       # 0.0 stays at this instant;
        yield env.timeout(0.25)            # 0.25 collides across waiters

    def coordinator(env, inboxes):
        yield env.timeout(0.5)
        for index, inbox in enumerate(inboxes):
            inbox.succeed(index)

    for waiters, follow_up in spec:
        inboxes = [env.event() for _ in range(waiters)]
        for inbox in inboxes:
            env.process(waiter(env, inbox, follow_up))
        env.process(coordinator(env, inboxes))


@settings(max_examples=25, deadline=None)
@given(spec=_BURST_SPEC)
def test_burst_run_matches_step(spec):
    """run() and the step() reference agree on same-timestamp burst
    workloads."""
    reference = _trace_with_step(spec, _burst_workload)
    assert _trace_with_run(spec, _burst_workload) == reference
    assert reference  # the workload actually dispatched events


def test_stop_event_processed_mid_drain_halts_the_batch(env):
    """run(until=event) returns the moment the stop event is *processed*;
    same-instant work queued behind it stays pending for a later run."""
    order = []
    stop = env.event()

    def waiter(env, inbox, label):
        order.append((yield inbox))
        if label == "b":
            stop.succeed("done")
        yield env.timeout(0.0)
        order.append(label + "2")

    inboxes = {label: env.event() for label in ("a", "b", "c", "d")}
    for label, inbox in inboxes.items():
        env.process(waiter(env, inbox, label))

    def coordinator(env):
        yield env.timeout(0.5)
        for label, inbox in inboxes.items():
            inbox.succeed(label)

    env.process(coordinator(env))
    assert env.run(until=stop) == "done"
    # Every inbox wakeup preceded the stop event in the batch, as did
    # a's zero-delay follow-up; the follow-ups queued after the stop
    # event's FIFO position are still pending when run() returns.
    assert order == ["a", "b", "c", "d", "a2"]
    env.run()
    assert order == ["a", "b", "c", "d", "a2", "b2", "c2", "d2"]


def test_process_started_mid_drain_preempts_remaining_fifo(env):
    """A process start is the one urgent event: created mid-drain, it
    cuts ahead of events already sitting in the same-instant FIFO
    batch."""
    order = []

    def newcomer(env):
        order.append("newcomer")
        yield env.timeout(0.0)

    def waiter(env, inbox, label):
        yield inbox
        order.append(label)
        if label == "starter":
            env.process(newcomer(env))

    inboxes = [env.event(), env.event()]
    env.process(waiter(env, inboxes[0], "starter"))
    env.process(waiter(env, inboxes[1], "bystander"))

    def coordinator(env):
        yield env.timeout(1.0)
        for inbox in inboxes:
            inbox.succeed()

    env.process(coordinator(env))
    env.run()
    # Both wakeups were queued before the newcomer was created.
    assert order == ["starter", "newcomer", "bystander"]


def test_sub_resolution_delay_fires_at_current_instant_in_id_order(env):
    """A positive delay too small for the clock to represent behaves as a
    zero-delay schedule: same instant, sequence-id order (under run()
    and under step())."""
    def build(environment):
        recorder = TraceRecorder(environment)
        order = []

        def proc(environment):
            base = environment.now
            tiny = environment.timeout(1e-18, value="tiny")
            zero = environment.timeout(0.0, value="zero")
            first = yield tiny
            order.append(first)
            second = yield zero
            order.append(second)
            assert environment.now == base
        environment.process(proc(environment))
        return recorder, order

    env = Environment(initial_time=1.0)
    recorder, order = build(env)
    env.run()
    assert order == ["tiny", "zero"]
    assert env.now == 1.0

    stepped = Environment(initial_time=1.0)
    stepped_recorder, stepped_order = build(stepped)
    while stepped.peek() != float("inf"):
        stepped.step()
    assert stepped_order == order
    assert stepped.now == 1.0
    assert stepped_recorder.entries == recorder.entries
