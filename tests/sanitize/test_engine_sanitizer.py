"""Engine invariant sanitizer: substrate-level race oracle."""

import pytest

from repro.buffering import BufferPool
from repro.sanitize import EngineSanitizer, SanitizerError, attach
from repro.sim import Environment, Event, SimLock, Store
from repro.trace import invariant_report


# -- attachment ----------------------------------------------------------------


def test_attach_and_strict_mode_construct_the_same_thing():
    env = Environment()
    san = attach(env)
    assert env.sanitizer is san
    assert attach(env) is san  # idempotent

    strict_env = Environment(strict=True)
    assert isinstance(strict_env.sanitizer, EngineSanitizer)
    assert strict_env.sanitizer.raise_on_violation


def test_clean_run_records_no_violations():
    env = Environment(strict=True)
    lock = SimLock(env, slots=2)
    store = Store(env, capacity=2)
    pool = BufferPool(env, n_buffers=2, buffer_bytes=64)

    def worker(i):
        yield lock.acquire()
        yield env.timeout(0.1)
        lock.release()
        yield pool.acquire()
        yield from pool.charge(32)
        pool.release()
        yield store.put(i)

    def drain():
        for _ in range(4):
            yield store.get()

    for i in range(4):
        env.process(worker(i))
    env.process(drain())
    env.run()

    san = env.sanitizer
    assert san.clean
    assert san.checks > 0
    san.check_balanced()  # all buffers returned
    assert san.clean
    san.assert_clean()  # does not raise


# -- seeded violations (hooks called on corrupted state) -------------------------


def test_resource_overcommit_detected():
    env = Environment()
    san = EngineSanitizer(env)
    lock = SimLock(env)
    lock.held = 2  # corrupt: two holders of one slot

    san.on_lock(lock)
    assert [v.kind for v in san.violations] == ["lock-overcommit"]


def test_resource_lost_wakeup_detected():
    env = Environment()
    san = EngineSanitizer(env)
    lock = SimLock(env, slots=2)
    lock.acquire()
    lock._waiters.append(Event(env))  # corrupt: sleeping waiter, free slot

    san.on_lock(lock)
    assert [v.kind for v in san.violations] == ["lock-lost-wakeup"]


def test_store_lost_wakeup_detected():
    env = Environment()
    san = EngineSanitizer(env)
    store = Store(env)
    store.items.append("x")
    store._gets.append(Event(env))  # corrupt: item available, getter asleep

    san.on_store(store)
    assert [v.kind for v in san.violations] == ["store-lost-wakeup"]


def test_event_reprocessed_detected():
    env = Environment()
    san = EngineSanitizer(env)
    ev = env.timeout(0)
    env.run()
    assert ev.processed

    san.on_step(ev)
    kinds = [v.kind for v in san.violations]
    assert "event-reprocessed" in kinds
    assert "event-callbacks-consumed" in kinds


def test_pool_balance_check():
    env = Environment()
    san = EngineSanitizer(env)  # standalone: not attached to the env
    pool = BufferPool(env, n_buffers=2, buffer_bytes=64)
    san.register_pool(pool)
    san.register_pool(pool)  # idempotent

    def holder():
        yield pool.acquire()

    env.run(env.process(holder()))
    assert san.clean
    san.check_balanced()
    assert [v.kind for v in san.violations] == ["pool-unreleased"]


def test_strict_mode_raises_immediately():
    env = Environment(strict=True)
    lock = SimLock(env)
    lock.held = 2  # corrupt: two holders of one slot

    with pytest.raises(SanitizerError):
        env.sanitizer.on_lock(lock)


def test_assert_clean_raises_with_rows():
    env = Environment()
    san = EngineSanitizer(env)
    san._violate("lock-overcommit", "seeded")
    with pytest.raises(SanitizerError, match="lock-overcommit"):
        san.assert_clean()


def test_invariant_report_renders():
    env = Environment()
    san = EngineSanitizer(env)
    lines = invariant_report(san)
    assert "no invariant violations" in lines[1]

    san._violate("store-lost-wakeup", "seeded")
    lines = invariant_report(san)
    assert "1 violation(s)" in lines[0]
    assert any("store-lost-wakeup" in line for line in lines[1:])
