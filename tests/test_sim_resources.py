"""Tests for simulated synchronization primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    Engine,
    EventCancelled,
    Lock,
    PriorityStore,
    Semaphore,
    SimulationError,
    Store,
)


class TestSemaphore:
    def test_acquire_release_counts(self, engine):
        sem = Semaphore(engine, 2)
        assert sem.try_acquire()
        assert sem.try_acquire()
        assert not sem.try_acquire()
        sem.release()
        assert sem.count == 1

    def test_fifo_granting(self, engine):
        sem = Semaphore(engine, 1)
        order = []

        def worker(env, name, hold):
            yield sem.acquire()
            order.append((env.now, name))
            yield env.timeout(hold)
            sem.release()

        engine.process(worker(engine, "first", 10))
        engine.process(worker(engine, "second", 10))
        engine.process(worker(engine, "third", 10))
        engine.run()
        assert order == [(0.0, "first"), (10.0, "second"), (20.0, "third")]

    def test_cancelled_waiter_is_skipped(self, engine):
        sem = Semaphore(engine, 1)
        sem.try_acquire()
        stale = sem.acquire()
        live = sem.acquire()
        stale.cancel()
        sem.release()
        engine.run()
        assert live.triggered and live.ok
        assert not stale.ok

    def test_negative_initial_value_rejected(self, engine):
        with pytest.raises(ValueError):
            Semaphore(engine, -1)

    def test_cancelled_sole_waiter_frees_the_queue(self, engine):
        sem = Semaphore(engine, 1)
        sem.try_acquire()
        sem.acquire().cancel()
        sem.release()
        # No one waits any more, so a new acquire is granted at once.
        assert sem.acquire().triggered
        assert sem.count == 0


_SEM_OPS = st.lists(st.one_of(
    st.tuples(st.just("acquire"), st.integers(0, 2)),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("release")),
    st.tuples(st.just("try")),
), max_size=40)


@settings(max_examples=150, deadline=None)
@given(permits=st.integers(0, 2), ops=_SEM_OPS)
def test_semaphore_grants_match_brute_force_model(permits, ops):
    """Grant order, permit count and cancels against a list-scan model:
    the best waiter is the lowest (priority, arrival) one still pending.
    """
    sem = Semaphore(Engine(), permits)
    count = permits
    waiting = []      # model: (priority, arrival, request id)
    requests = []     # real requests, by id
    granted = []      # real grant order, by request id
    expected = []     # model grant order
    held = 0
    for op in ops:
        if op[0] == "acquire":
            rid = len(requests)
            requests.append(sem.acquire(priority=op[1]))
            if count > 0 and not waiting:
                count -= 1
                expected.append(rid)
            else:
                waiting.append((op[1], rid, rid))
        elif op[0] == "cancel":
            if op[1] >= len(requests):
                continue
            request = requests[op[1]]
            request.cancel()
            waiting = [entry for entry in waiting if entry[2] != op[1]]
        elif op[0] == "release":
            if held == 0:
                continue
            held -= 1
            sem.release()
            if waiting:
                best = min(waiting)
                waiting.remove(best)
                expected.append(best[2])
            else:
                count += 1
        else:
            took = sem.try_acquire()
            assert took == (count > 0 and not waiting)
            if took:
                count -= 1
                held += 1
        for rid, request in enumerate(requests):
            if request.triggered and request.ok and rid not in granted:
                granted.append(rid)
                held += 1
        assert granted == expected
        assert sem.count == count
        assert len(sem._waiters) == len(waiting)


class TestLock:
    def test_release_unlocked_raises(self, engine):
        lock = Lock(engine)
        with pytest.raises(SimulationError):
            lock.release()

    def test_locked_property(self, engine):
        lock = Lock(engine)
        assert not lock.locked
        lock.try_acquire()
        assert lock.locked


class TestStore:
    def test_fifo_ordering(self, engine):
        store = Store(engine)
        received = []

        def producer(env):
            for item in "abc":
                yield store.put(item)
                yield env.timeout(1)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        engine.process(producer(engine))
        engine.process(consumer(engine))
        engine.run()
        assert received == ["a", "b", "c"]

    def test_capacity_blocks_putter(self, engine):
        store = Store(engine, capacity=1)
        times = []

        def producer(env):
            for item in range(2):
                yield store.put(item)
                times.append(env.now)

        def slow_consumer(env):
            yield env.timeout(10)
            yield store.get()

        engine.process(producer(engine))
        engine.process(slow_consumer(engine))
        engine.run()
        assert times == [0.0, 10.0]

    def test_try_get(self, engine):
        store = Store(engine)
        ok, _ = store.try_get()
        assert not ok
        store.put("x")
        ok, item = store.try_get()
        assert ok and item == "x"

    def test_clear_with_predicate(self, engine):
        store = Store(engine)
        for item in range(6):
            store.put(item)
        removed = store.clear(lambda item: item % 2 == 0)
        assert removed == [0, 2, 4]
        assert store.items == [1, 3, 5]

    def test_clear_all(self, engine):
        store = Store(engine)
        store.put(1)
        store.put(2)
        assert store.clear() == [1, 2]
        assert len(store) == 0

    def test_cancelled_getter_does_not_consume(self, engine):
        store = Store(engine)
        stale = store.get()
        live = store.get()
        stale.cancel()
        store.put("only")
        engine.run()
        assert live.value == "only"

    def test_zero_capacity_rejected(self, engine):
        with pytest.raises(ValueError):
            Store(engine, capacity=0)


class TestPriorityStore:
    def test_smallest_first(self, engine):
        store = PriorityStore(engine)
        for item in (5, 1, 3):
            store.put(item)
        received = []

        def consumer(env):
            for _ in range(3):
                received.append((yield store.get()))  # noqa: PERF401

        engine.process(consumer(engine))
        engine.run()
        assert received == [1, 3, 5]

    def test_ties_broken_by_insertion(self, engine):
        store = PriorityStore(engine)
        store.put((1, "first"))
        store.put((1, "second"))
        engine.run()
        ok, item = store.try_get()
        assert ok and item == (1, "first")

    def test_clear_with_predicate_keeps_heap_valid(self, engine):
        store = PriorityStore(engine)
        for item in (4, 2, 9, 1):
            store.put(item)
        engine.run()
        removed = store.clear(lambda item: item > 3)
        assert sorted(removed) == [4, 9]
        ok, item = store.try_get()
        assert ok and item == 1
