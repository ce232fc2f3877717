"""Tests for event primitives: trigger semantics, conditions, cancel."""

import pytest

from repro.sim import AllOf, AnyOf, Engine, EventCancelled, SimulationError


def test_event_lifecycle(engine):
    event = engine.event()
    assert not event.triggered and not event.processed
    event.succeed("v")
    assert event.triggered and not event.processed
    engine.run()
    assert event.processed
    assert event.ok
    assert event.value == "v"


def test_event_cannot_trigger_twice(engine):
    event = engine.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_value_before_trigger_raises(engine):
    event = engine.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_fail_requires_exception(engine):
    event = engine.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_cancel_pending_event_fails_with_event_cancelled(engine):
    event = engine.event()
    assert event.cancel("reason") is True

    def waiter(env, target):
        try:
            yield target
        except EventCancelled as exc:
            return exc.reason

    process = engine.process(waiter(engine, event))
    assert engine.run(until=process) == "reason"


def test_cancel_after_trigger_is_noop(engine):
    event = engine.event()
    event.succeed(1)
    assert event.cancel() is False
    engine.run()
    assert event.value == 1


def test_timeout_is_triggered_at_birth_but_not_processed(engine):
    timeout = engine.timeout(10.0)
    assert timeout.triggered
    assert not timeout.processed


def test_waiter_slot_delivers_in_subscription_order(engine):
    # A process parked in the event's waiter slot is resumed before the
    # listed callbacks. That must equal subscription order: the slot is
    # only taken while the callback list is empty.
    order = []

    def waiter(env, event):
        yield event
        order.append("process")

    parked_first = engine.event()
    engine.process(waiter(engine, parked_first))
    engine.run()
    parked_first.callbacks.append(lambda _e: order.append("cb1"))
    parked_first.callbacks.append(lambda _e: order.append("cb2"))
    parked_first.succeed()
    engine.run()
    assert order == ["process", "cb1", "cb2"]

    order.clear()
    callback_first = engine.event()
    callback_first.callbacks.append(lambda _e: order.append("callback"))
    engine.process(waiter(engine, callback_first))
    engine.run()
    callback_first.succeed()
    engine.run()
    assert order == ["callback", "process"]


def test_any_of_fires_on_first_processed(engine):
    slow = engine.timeout(10.0, value="slow")
    fast = engine.timeout(2.0, value="fast")
    condition = engine.any_of([slow, fast])

    def waiter(env):
        values = yield condition
        return values

    process = engine.process(waiter(engine))
    values = engine.run(until=process)
    assert engine.now == 2.0
    assert values == {fast: "fast"}


def test_any_of_does_not_fire_early_for_unexpired_timeout(engine):
    # Regression: Timeouts are 'triggered' from creation; AnyOf must
    # wait until one is actually processed.
    done = engine.event()
    deadline = engine.timeout(1000.0)
    condition = engine.any_of([done, deadline])

    def finisher(env):
        yield env.timeout(5.0)
        done.succeed("finished")

    engine.process(finisher(engine))

    def waiter(env):
        return (yield condition)

    process = engine.process(waiter(engine))
    values = engine.run(until=process)
    assert engine.now == 5.0
    assert values == {done: "finished"}


def test_all_of_waits_for_every_event(engine):
    events = [engine.timeout(t, value=t) for t in (3.0, 7.0, 5.0)]
    condition = engine.all_of(events)

    def waiter(env):
        return (yield condition)

    process = engine.process(waiter(engine))
    values = engine.run(until=process)
    assert engine.now == 7.0
    assert sorted(values.values()) == [3.0, 5.0, 7.0]


def test_all_of_empty_fires_immediately(engine):
    condition = engine.all_of([])
    assert condition.triggered


def test_all_of_fails_if_member_fails(engine):
    good = engine.timeout(5.0)
    bad = engine.event()

    def failer(env):
        yield env.timeout(1.0)
        bad.fail(RuntimeError("member failed"))

    engine.process(failer(engine))
    condition = engine.all_of([good, bad])

    def waiter(env):
        try:
            yield condition
        except RuntimeError as exc:
            return str(exc)

    process = engine.process(waiter(engine))
    assert engine.run(until=process) == "member failed"


def test_trigger_copies_state_from_other_event(engine):
    source = engine.event()
    mirror = engine.event()
    source.callbacks.append(mirror.trigger)
    source.succeed("copied")
    engine.run()
    assert mirror.value == "copied"
