"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    AllOf,
    Environment,
    Interrupt,
    SimulationError,
    Timeout,
)
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
    "_schedule": lambda env, delay: env._schedule(env.event(), delay),
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
    event = env.event()
    caught = []

    def waiter(env, event):
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env, event))
    event.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


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


def test_interrupt_delivers_cause(env):
    causes = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            causes.append(interrupt.cause)

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt(cause="preempted")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert causes == ["preempted"]


def test_interrupting_dead_process_rejected(env):
    def quick(env):
        yield env.timeout(0.1)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_all_of_waits_for_every_event(env):
    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        result = yield env.all_of([t1, t2])
        return (env.now, sorted(result.values()))

    process = env.process(proc(env))
    now, values = env.run(until=process)
    assert now == 3.0
    assert values == ["a", "b"]


def test_any_of_fires_on_first_event(env):
    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield env.any_of([t1, t2])
        return (env.now, list(result.values()))

    process = env.process(proc(env))
    now, values = env.run(until=process)
    assert now == 1.0
    assert values == ["fast"]


def test_empty_all_of_succeeds_immediately(env):
    condition = AllOf(env, [])
    assert condition.triggered


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
# Semantics locked in before the kernel rewrite (see ISSUE 3): interrupts
# racing scheduled events, conditions over settled children, drain/stop
# interactions, trigger/re-trigger errors, and randomized determinism.
# ---------------------------------------------------------------------------


def test_interrupt_while_target_event_already_scheduled(env):
    """Interrupt delivery wins over a target that is triggered but not
    yet processed, and the victim is not resumed twice."""
    wakes = []

    def victim(env, event):
        try:
            yield event
            wakes.append("value")
        except Interrupt as interrupt:
            wakes.append(("interrupt", interrupt.cause))
        yield env.timeout(5.0)
        wakes.append("after")

    event = env.event()

    def interrupter(env, process, event):
        yield env.timeout(1.0)
        # Trigger the target first: it is now scheduled, with the victim
        # still in its callbacks.  The urgent interruption must still be
        # delivered first, and must detach the victim from the event.
        event.succeed("late")
        process.interrupt(cause="preempted")

    process = env.process(victim(env, event))
    env.process(interrupter(env, process, event))
    env.run()
    assert wakes == [("interrupt", "preempted"), "after"]


def test_interrupt_detaches_from_pending_timeout(env):
    """The interrupted wait's original timeout fires later without
    resuming the victim a second time."""
    wakes = []

    def victim(env):
        yield env.timeout(1.0)
        wakes.append("timeout")
        try:
            yield env.timeout(3.0)      # would fire at t=4
            wakes.append("unreachable")
        except Interrupt:
            wakes.append("interrupt")
            yield env.timeout(1.0)
            wakes.append("after-interrupt")

    def interrupter(env, process):
        yield env.timeout(2.0)
        process.interrupt()

    process = env.process(victim(env))
    env.process(interrupter(env, process))
    env.run()                            # runs past t=4: detached timeout fires
    assert wakes == ["timeout", "interrupt", "after-interrupt"]


def test_all_of_from_already_processed_children(env):
    t1 = env.timeout(1.0, value="a")
    t2 = env.timeout(2.0, value="b")
    env.run()
    assert t1.processed and t2.processed

    condition = env.all_of([t1, t2])
    assert condition.triggered
    result = env.run(until=condition)
    assert sorted(result.values()) == ["a", "b"]


def test_any_of_from_already_processed_child(env):
    t1 = env.timeout(1.0, value="first")
    env.run()
    condition = env.any_of([t1, env.timeout(9.0)])
    assert condition.triggered
    assert list(env.run(until=condition).values()) == ["first"]


def test_all_of_with_already_failed_child(env):
    failed = env.event()
    failed.fail(ValueError("dead child"))
    failed.defuse_source(failed)
    env.run()
    assert failed.processed and not failed.ok

    caught = []

    def waiter(env, condition):
        try:
            yield condition
        except ValueError as exc:
            caught.append(str(exc))

    condition = env.all_of([failed, env.timeout(5.0)])
    env.process(waiter(env, condition))
    env.run()
    assert caught == ["dead child"]


def test_any_of_with_pending_child_failing_later(env):
    caught = []

    def failer(env, event):
        yield env.timeout(1.0)
        event.fail(RuntimeError("boom"))

    def waiter(env, condition):
        try:
            yield condition
        except RuntimeError as exc:
            caught.append(str(exc))

    event = env.event()
    condition = env.any_of([event, env.timeout(10.0)])
    env.process(failer(env, event))
    env.process(waiter(env, condition))
    env.run()
    assert caught == ["boom"]


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


def test_trigger_from_pending_source_raises(env):
    source = env.event()
    target = env.event()
    with pytest.raises(SimulationError, match="still pending"):
        target.trigger(source)
    # Nothing was scheduled; both events are still pending.
    assert not source.triggered and not target.triggered


def test_trigger_propagates_success_and_failure(env):
    ok_source = env.event().succeed(13)
    ok_target = env.event()
    ok_target.trigger(ok_source)
    assert ok_target.triggered and ok_target._value == 13

    bad_source = env.event().fail(ValueError("nope"))
    bad_target = env.event()
    bad_target.trigger(bad_source)
    bad_target.defuse_source(bad_target)
    assert bad_source._defused        # trigger defuses the source
    assert not bad_target.ok
    env.run()


def test_retrigger_paths_raise(env):
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(ValueError("late"))
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_value_unavailable_until_triggered(env):
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    event.succeed("v")
    assert event.value == "v"


def test_add_callback_runs_and_rejects_processed(env):
    seen = []
    event = env.event()
    event.add_callback(lambda ev: seen.append(ev.value))
    event.succeed(7)
    env.run()
    assert seen == [7]
    with pytest.raises(SimulationError):
        event.add_callback(lambda ev: None)


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


def test_schedule_orders_zero_delay_events_by_priority(env):
    """_schedule keeps (time, priority, id) order for any priority value,
    including zero-delay events with priorities beyond urgent/normal."""
    order = []

    def observe(label):
        return lambda ev: order.append(label)

    for label, priority in (("low", 3), ("normal", 1),
                            ("urgent", 0), ("normal2", 1), ("low2", 2)):
        event = env.event()
        event._ok = True
        event._value = None
        event.add_callback(observe(label))
        env._schedule(event, 0.0, priority=priority)
    env.run()
    assert order == ["urgent", "normal", "normal2", "low2", "low"]


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
    def proc(env, delays, index):
        for delay in delays:
            yield env.timeout(delay, value=index)
        if index % 3 == 0:
            child = env.timeout(0.25)
            yield env.all_of([child, env.timeout(0.0)])
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


def test_interrupt_scheduled_mid_drain_preempts_remaining_fifo(env):
    """An Interruption lands on the urgent deque and must cut ahead of
    events already sitting in the same-instant FIFO batch."""
    order = []
    victim_box = []

    def victim(env):
        try:
            yield env.timeout(5.0)
        except Interrupt as interrupt:
            order.append(("interrupted", interrupt.cause))

    def attacker(env):
        yield env.timeout(1.0)
        order.append("attacker")
        victim_box[0].interrupt(cause="boom")

    def bystander(env):
        yield env.timeout(1.0)
        order.append("bystander")

    victim_box.append(env.process(victim(env)))
    env.process(attacker(env))
    env.process(bystander(env))
    env.run()
    # The interruption preempts the bystander's same-instant resume.
    assert order == ["attacker", ("interrupted", "boom"), "bystander"]


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
