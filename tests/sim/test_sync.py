"""Unit tests for synchronization primitives."""

import pytest

from repro.sim import Environment, SimBarrier, SimLock
from repro.sim.engine import SimulationError


class TestSimLock:
    def test_mutual_exclusion(self):
        env = Environment()
        lock = SimLock(env)
        inside = []
        max_inside = []

        def proc(name):
            yield lock.acquire()
            inside.append(name)
            max_inside.append(len(inside))
            yield env.timeout(1)
            inside.remove(name)
            lock.release()

        for n in range(5):
            env.process(proc(n))
        env.run()
        assert max(max_inside) == 1

    def test_fifo_wakeup(self):
        env = Environment()
        lock = SimLock(env)
        order = []

        def proc(name, arrive):
            yield env.timeout(arrive)
            yield lock.acquire()
            order.append(name)
            yield env.timeout(10)
            lock.release()

        env.process(proc("c", 3))
        env.process(proc("a", 1))
        env.process(proc("b", 2))
        env.run()
        assert order == ["a", "b", "c"]

    def test_release_unheld_is_error(self):
        lock = SimLock(Environment())
        with pytest.raises(SimulationError):
            lock.release()

    def test_contention_counters(self):
        env = Environment()
        lock = SimLock(env)

        def proc():
            yield lock.acquire()
            yield env.timeout(1)
            lock.release()

        for _ in range(4):
            env.process(proc())
        env.run()
        assert lock.total_acquires == 4
        assert lock.contended_acquires == 3


class TestSimSemaphore:
    """A lock with several slots: the counting semaphore of a buffer pool."""

    def test_counting(self):
        env = Environment()
        sem = SimLock(env, slots=2)
        concurrent = []
        level = [0]

        def proc():
            yield sem.acquire()
            level[0] += 1
            concurrent.append(level[0])
            yield env.timeout(1)
            level[0] -= 1
            sem.release()

        for _ in range(5):
            env.process(proc())
        env.run()
        assert max(concurrent) == 2
        assert sem.held == 0

    def test_release_wakes_waiter(self):
        env = Environment()
        sem = SimLock(env, slots=2)
        woke = []

        def holder(hold):
            yield sem.acquire()
            yield env.timeout(hold)
            sem.release()

        def waiter():
            yield env.timeout(1)
            yield sem.acquire()
            woke.append(env.now)
            sem.release()

        env.process(holder(9))
        env.process(holder(7))
        env.process(waiter())
        env.run()
        assert woke == [7]

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            SimLock(Environment(), slots=-1)


class TestSimBarrier:
    def test_all_release_together(self):
        env = Environment()
        bar = SimBarrier(env, parties=3)
        released = []

        def proc(delay):
            yield env.timeout(delay)
            yield bar.wait()
            released.append(env.now)

        for d in (1, 5, 9):
            env.process(proc(d))
        env.run()
        assert released == [9, 9, 9]
        assert bar.generation == 1

    def test_reusable_across_phases(self):
        env = Environment()
        bar = SimBarrier(env, parties=2)
        phases = []

        def proc(delay):
            for _ in range(3):
                yield env.timeout(delay)
                yield bar.wait()
                phases.append(env.now)

        env.process(proc(1))
        env.process(proc(2))
        env.run()
        assert bar.generation == 3
        assert phases == [2, 2, 4, 4, 6, 6]

    def test_single_party_never_blocks(self):
        env = Environment()
        bar = SimBarrier(env, parties=1)

        def proc():
            yield bar.wait()
            return env.now

        assert env.run(env.process(proc())) == 0

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            SimBarrier(Environment(), parties=0)
