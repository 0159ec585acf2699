"""Unit tests for simulated resources (Resource, Store)."""

import pytest

from repro.sim import Environment, Resource, Store


class TestResource:
    def test_capacity_one_serializes(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def user(name):
            with res.request() as req:
                yield req
                log.append((name, "in", env.now))
                yield env.timeout(10)
                log.append((name, "out", env.now))

        env.process(user("a"))
        env.process(user("b"))
        env.run()
        assert log == [
            ("a", "in", 0), ("a", "out", 10),
            ("b", "in", 10), ("b", "out", 20),
        ]

    def test_capacity_two_overlaps(self):
        env = Environment()
        res = Resource(env, capacity=2)
        done = []

        def user(name):
            with res.request() as req:
                yield req
                yield env.timeout(10)
                done.append((name, env.now))

        for n in "abc":
            env.process(user(n))
        env.run()
        assert done == [("a", 10), ("b", 10), ("c", 20)]

    def test_fifo_grant_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def user(name, arrive):
            yield env.timeout(arrive)
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(5)

        env.process(user("late", 2))
        env.process(user("early", 1))
        env.run()
        assert order == ["early", "late"]

    def test_count_and_queue_length(self):
        env = Environment()
        res = Resource(env, capacity=1)
        observed = {}

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def waiter():
            yield env.timeout(1)
            req = res.request()
            yield env.timeout(1)
            observed["count"] = res.count
            observed["queue"] = res.queue_length
            yield req
            res.release(req)

        env.process(holder())
        env.process(waiter())
        env.run()
        assert observed == {"count": 1, "queue": 1}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)


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
    def test_double_release_is_noop_and_grants_once(self):
        """Releasing an already-released request must not hand the freed
        slot to waiters a second time."""
        env = Environment()
        res = Resource(env, capacity=1)
        grants = []

        def holder():
            req = res.request()
            yield req
            yield env.timeout(1)
            res.release(req)
            yield env.timeout(1)
            res.release(req)  # double release: must be a no-op

        def waiter(name, delay):
            yield env.timeout(delay)
            req = res.request()
            yield req
            grants.append((name, env.now))
            yield env.timeout(10)  # hold past the double release
            res.release(req)

        env.process(holder())
        env.process(waiter("w1", 0.5))
        env.process(waiter("w2", 0.6))
        env.run()

        # w1 got the slot at t=1; the double release at t=2 must NOT have
        # granted w2 while w1 still held it
        assert grants == [("w1", 1), ("w2", 11)]
        assert res.count == 0

    def test_double_release_under_sanitizer_is_clean(self):
        env = Environment(strict=True)
        res = Resource(env, capacity=1)

        def proc():
            req = res.request()
            yield req
            res.release(req)
            res.release(req)

        env.run(env.process(proc()))
        assert env.sanitizer.clean

    def test_release_of_waiting_request_cancels_it(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)

        def quitter():
            yield env.timeout(1)
            req = res.request()
            yield env.timeout(1)
            res.release(req)  # give up before being granted

        env.process(holder())
        env.process(quitter())
        env.run()
        assert res.count == 0
        assert res.queue_length == 0
