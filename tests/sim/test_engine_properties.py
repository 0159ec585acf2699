"""Property tests for the simulation engine's core guarantees.

DESIGN.md's determinism contract: the same program and seeds produce the
same event order and final clock; time never runs backwards; every
spawned process completes when the queue drains.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, SimLock


def random_program(env, seed, log):
    """A random process graph: timeouts, pool use, lock use, spawns."""
    rng = np.random.default_rng(seed)
    pool = SimLock(env, slots=int(rng.integers(1, 4)))
    lock = SimLock(env)
    n_procs = int(rng.integers(1, 10))

    def worker(wid, depth):
        steps = int(rng.integers(1, 6))
        for s in range(steps):
            choice = rng.integers(0, 4)
            if choice == 0:
                yield env.timeout(float(rng.random()))
            elif choice == 1:
                yield pool.acquire()
                yield env.timeout(float(rng.random()) * 0.1)
                pool.release()
            elif choice == 2:
                yield lock.acquire()
                yield env.timeout(float(rng.random()) * 0.05)
                lock.release()
            elif depth < 2:
                child = env.process(worker(wid * 10 + s, depth + 1))
                yield child
            log.append((wid, s, round(env.now, 9)))

    return [env.process(worker(w, 0)) for w in range(n_procs)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_identical_seeds_identical_traces(seed):
    traces = []
    for _ in range(2):
        env = Environment()
        log = []
        random_program(env, seed, log)
        env.run()
        traces.append((log, env.now))
    assert traces[0] == traces[1]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_clock_monotone_and_all_processes_finish(seed):
    env = Environment()
    log = []
    procs = random_program(env, seed, log)
    env.run()
    times = [t for _, _, t in log]
    assert times == sorted(times)
    assert all(p.processed for p in procs)
    assert all(p.ok for p in procs)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 5.0))
def test_run_until_is_prefix_of_full_run(seed, horizon):
    """Stopping at a horizon observes exactly the events the full run
    produced up to that time."""
    env1, log1 = Environment(), []
    random_program(env1, seed, log1)
    env1.run()
    full_prefix = [e for e in log1 if e[2] <= horizon]

    env2, log2 = Environment(), []
    random_program(env2, seed, log2)
    env2.run(until=horizon)
    assert log2 == full_prefix


# -- contention properties under the engine sanitizer -------------------------
#
# Many processes hammering one lock's slots / one cache / one store, with the
# invariant sanitizer attached (strict: first violation raises). These
# exercise the races fixed alongside the sanitizer: the single-flight
# cache window and store dispatch wakeups.

from repro.buffering import BufferCache
from repro.sim import Store


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 12))
def test_resource_contention_respects_capacity(seed, capacity, n_procs):
    rng = np.random.default_rng(seed)
    env = Environment(strict=True)
    lock = SimLock(env, slots=capacity)
    held = {"now": 0, "peak": 0}

    def worker(delays):
        for delay in delays:
            yield env.timeout(delay)
            yield lock.acquire()
            held["now"] += 1
            held["peak"] = max(held["peak"], held["now"])
            yield env.timeout(float(rng.random()) * 0.1)
            held["now"] -= 1
            lock.release()

    for _ in range(n_procs):
        env.process(worker([float(d) for d in rng.random(3)]))
    env.run()

    assert held["peak"] <= capacity
    assert held["now"] == 0
    assert lock.held == 0 and not lock._waiters
    assert env.sanitizer.clean


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_cache_contention_single_flight_accounting(seed, n_readers):
    """Concurrent readers over a shared cache: every block is fetched at
    most once (capacity covers the block space), and the hit/miss
    accounting invariant holds under arbitrary interleavings."""
    rng = np.random.default_rng(seed)
    env = Environment(strict=True)
    n_blocks = 6
    fetches = []

    def fetch(block):
        def transfer():
            yield env.timeout(1.0)
            fetches.append(block)
            return bytes([block])

        return env.process(transfer())

    cache = BufferCache(env, fetch, None, capacity_blocks=n_blocks)

    def reader(blocks, jitter):
        yield env.timeout(jitter)
        for block in blocks:
            data = yield from cache.read(int(block))
            assert data == bytes([int(block)])

    for _ in range(n_readers):
        env.process(
            reader(rng.integers(0, n_blocks, size=5), float(rng.random()))
        )
    env.run()

    assert cache.hits + cache.misses == cache.reads == n_readers * 5
    assert cache.misses == len(fetches)
    assert sorted(set(fetches)) == sorted(fetches)  # no block fetched twice
    assert cache.coalesced <= cache.hits
    assert env.sanitizer.clean


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 5))
def test_store_contention_no_lost_wakeup(seed, n_producers, n_consumers):
    """A bounded store under many producers/consumers drains completely:
    nobody sleeps through an available item or free slot."""
    rng = np.random.default_rng(seed)
    env = Environment(strict=True)
    store = Store(env, capacity=2)
    per_producer = 4
    consumed = []

    def producer(pid):
        for i in range(per_producer):
            yield env.timeout(float(rng.random()) * 0.2)
            yield store.put((pid, i))

    def consumer(quota):
        for _ in range(quota):
            item = yield store.get()
            consumed.append(item)
            yield env.timeout(float(rng.random()) * 0.2)

    total = n_producers * per_producer
    quotas = [total // n_consumers] * n_consumers
    quotas[0] += total - sum(quotas)
    for pid in range(n_producers):
        env.process(producer(pid))
    for quota in quotas:
        env.process(consumer(quota))
    env.run()

    assert len(consumed) == total
    assert len(store) == 0
    assert env.sanitizer.clean
