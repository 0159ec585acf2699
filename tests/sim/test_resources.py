"""Unit tests for shared resources: a lock's slots (SimLock) and the Store."""

import pytest

from repro.sim import Environment, SimLock, Store
from repro.sim.engine import SimulationError


class TestResource:
    def test_capacity_one_serializes(self):
        env = Environment()
        lock = SimLock(env)
        log = []

        def user(name):
            yield lock.acquire()
            log.append((name, "in", env.now))
            yield env.timeout(10)
            log.append((name, "out", env.now))
            lock.release()

        env.process(user("a"))
        env.process(user("b"))
        env.run()
        assert log == [
            ("a", "in", 0), ("a", "out", 10),
            ("b", "in", 10), ("b", "out", 20),
        ]

    def test_capacity_two_overlaps(self):
        env = Environment()
        lock = SimLock(env, slots=2)
        done = []

        def user(name):
            yield lock.acquire()
            yield env.timeout(10)
            done.append((name, env.now))
            lock.release()

        for n in "abc":
            env.process(user(n))
        env.run()
        assert done == [("a", 10), ("b", 10), ("c", 20)]

    def test_fifo_grant_order(self):
        env = Environment()
        lock = SimLock(env)
        order = []

        def user(name, arrive):
            yield env.timeout(arrive)
            yield lock.acquire()
            order.append(name)
            yield env.timeout(5)
            lock.release()

        env.process(user("late", 2))
        env.process(user("early", 1))
        env.run()
        assert order == ["early", "late"]

    def test_count_and_queue_length(self):
        env = Environment()
        lock = SimLock(env)
        observed = {}

        def holder():
            yield lock.acquire()
            yield env.timeout(10)
            lock.release()

        def waiter():
            yield env.timeout(1)
            grant = lock.acquire()
            yield env.timeout(1)
            observed["count"] = lock.held
            observed["queue"] = len(lock._waiters)
            yield grant
            lock.release()

        env.process(holder())
        env.process(waiter())
        env.run()
        assert observed == {"count": 1, "queue": 1}
        assert lock.held == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SimLock(Environment(), slots=0)


class TestStore:
    def test_put_get_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)
                yield env.timeout(1)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        when = []

        def consumer():
            item = yield store.get()
            when.append((item, env.now))

        def producer():
            yield env.timeout(5)
            yield store.put("x")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert when == [("x", 5)]

    def test_bounded_put_blocks_until_room(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append(("put a", env.now))
            yield store.put("b")
            log.append(("put b", env.now))

        def consumer():
            yield env.timeout(4)
            item = yield store.get()
            log.append((f"got {item}", env.now))

        env.process(producer())
        env.process(consumer())
        env.run()
        assert log == [("put a", 0), ("got a", 4), ("put b", 4)]

    def test_len(self):
        env = Environment()
        store = Store(env)

        def proc():
            yield store.put(1)
            yield store.put(2)

        env.process(proc())
        env.run()
        assert len(store) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Store(Environment(), capacity=0)


class TestDoubleRelease:
    def test_double_release_under_sanitizer_is_clean(self):
        """A second release is refused and leaves the lock consistent: the
        sanitizer records nothing."""
        env = Environment(strict=True)
        lock = SimLock(env)

        def proc():
            yield lock.acquire()
            lock.release()
            with pytest.raises(SimulationError):
                lock.release()

        env.run(env.process(proc()))
        assert lock.held == 0
        assert env.sanitizer.clean
