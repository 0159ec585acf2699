"""Unit tests for simulated resources (Resource, Store, Container)."""

import pytest

from repro.sim import Container, Environment, PriorityResource, Resource, Store
from repro.sim.engine import SimulationError


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


class TestPriorityResource:
    def test_lower_priority_value_served_first(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def user(name, priority):
            # All queue behind the initial holder.
            yield env.timeout(1)
            with res.request(priority=priority) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(5)

        env.process(holder())
        env.process(user("low", 10))
        env.process(user("high", 1))
        env.process(user("mid", 5))
        env.run()
        assert order == ["high", "mid", "low"]

    def test_fifo_within_same_priority(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def user(name):
            yield env.timeout(1)
            with res.request(priority=3) as req:
                yield req
                order.append(name)

        env.process(holder())
        for n in "xyz":
            env.process(user(n))
        env.run()
        assert order == ["x", "y", "z"]

    def test_fifo_within_priority_survives_cancellation(self):
        # Regression pin: cancelling a waiter calls heapify() on the
        # heap, which is free to reorder entries that compare equal. The
        # (priority, _order) tie-break in Request.__lt__ is what keeps
        # equal-priority waiters in arrival order through that reshuffle.
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def user(name, delay):
            yield env.timeout(delay)
            with res.request(priority=3) as req:
                yield req
                order.append(name)

        def quitter():
            yield env.timeout(1.5)  # lands between 'a' and 'b'
            req = res.request(priority=3)
            yield env.timeout(3)
            res.release(req)  # cancel while still queued -> heapify

        env.process(holder())
        for i, name in enumerate("abcde"):
            env.process(user(name, 1 + i))
        env.process(quitter())
        env.run()
        assert order == ["a", "b", "c", "d", "e"]

    def test_interleaved_priorities_keep_arrival_order_per_class(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def user(name, priority, delay):
            yield env.timeout(delay)
            with res.request(priority=priority) as req:
                yield req
                order.append(name)

        env.process(holder())
        # arrivals alternate between two priority classes
        arrivals = [("h1", 1), ("l1", 5), ("h2", 1), ("l2", 5), ("h3", 1)]
        for i, (name, prio) in enumerate(arrivals):
            env.process(user(name, prio, 1 + i))
        env.run()
        assert order == ["h1", "h2", "h3", "l1", "l2"]


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


class TestContainer:
    def test_get_blocks_until_level(self):
        env = Environment()
        tank = Container(env, capacity=100, init=0)
        log = []

        def consumer():
            yield tank.get(30)
            log.append(("got", env.now, tank.level))

        def producer():
            yield env.timeout(2)
            yield tank.put(50)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert log == [("got", 2, 20.0)]

    def test_put_blocks_at_capacity(self):
        env = Environment()
        tank = Container(env, capacity=10, init=8)
        log = []

        def producer():
            yield tank.put(5)
            log.append(("put", env.now))

        def consumer():
            yield env.timeout(3)
            yield tank.get(4)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert log == [("put", 3)]
        assert tank.level == 9.0

    def test_oversized_request_rejected(self):
        env = Environment()
        tank = Container(env, capacity=10)
        with pytest.raises(SimulationError):
            tank.get(11)
        with pytest.raises(SimulationError):
            tank.put(11)

    def test_init_bounds(self):
        with pytest.raises(ValueError):
            Container(Environment(), capacity=5, init=6)


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
