"""The fast engine loop: identity with the hooked loop, sleep pooling.

The fast loop (``Environment(fast=None)``, the default) inlines the
event-processing step and recycles pooled ``env.sleep`` timeouts; the
hooked loop (``fast=False``) is the reference and the one sanitizers
require. The contract tested here: both flavours produce
byte-identical simulated behaviour — same event order, same clock, same
step counts — and pooling never leaks a value between sleeps.
"""

import math

import pytest

from repro.sanitize import attach
from repro.sim import Environment
from repro.sim.engine import Interrupt, SimulationError, Timeout
from repro.sim.resources import Resource


def _require_fast_mode():
    """Skip when the suite-wide --sanitize hook forces the hooked loop."""
    if Environment().sanitizer is not None:
        pytest.skip("suite runs under --sanitize: every env is hooked")


def _mixed_program(env, log):
    """Timeouts, sleeps, a resource, joins — a little of everything."""
    res = Resource(env, capacity=1)

    def worker(i):
        yield env.timeout(i * 0.5)
        with res.request() as req:
            yield req
            log.append(("got", i, env.now))
            yield env.sleep(1.0)
        yield env.sleep(0.25)
        log.append(("done", i, env.now))
        return i * 10

    def root():
        procs = [env.process(worker(i)) for i in range(4)]
        first = yield env.any_of(procs)
        log.append(("first", sorted(first.values()), env.now))
        got = yield env.all_of(procs)
        log.append(("all", sorted(got.values()), env.now))

    return env.process(root())


def _run_mixed(fast):
    env = Environment(fast=None if fast else False)
    log = []
    env.run(_mixed_program(env, log))
    return env, log


def test_fast_loop_is_identical_to_hooked_loop():
    _require_fast_mode()
    fast_env, fast_log = _run_mixed(fast=True)
    slow_env, slow_log = _run_mixed(fast=False)
    assert fast_env.fast_mode and not slow_env.fast_mode
    assert fast_log == slow_log
    assert fast_env.now == slow_env.now
    assert fast_env.steps == slow_env.steps
    assert fast_env._eid == slow_env._eid
    assert fast_env.steps > 0


def test_sleep_is_pooled_and_recycled_in_fast_mode():
    _require_fast_mode()
    env = Environment()

    def prog():
        first = env.sleep(1.0)
        yield first
        # `first` is recycled after its processing completes — i.e. once
        # this resumption finishes — so it is reused one sleep later:
        second = env.sleep(2.0)
        assert second is not first
        yield second
        third = env.sleep(0.5)
        assert third is first  # recycled object, same identity
        yield third

    env.run(env.process(prog()))
    assert env.now == 3.5
    assert env._timeout_pool  # the last sleep went back to the pool


def test_sleep_is_a_plain_timeout_in_hooked_mode():
    env = Environment(fast=False)

    def prog():
        first = env.sleep(1.0)
        yield first
        second = env.sleep(1.0)
        assert second is not first
        assert type(first) is Timeout
        yield second

    env.run(env.process(prog()))
    assert not env._timeout_pool


def test_sleep_rejects_negative_delay():
    env = Environment()

    def prog():
        yield env.sleep(1.0)  # prime the pool
        with pytest.raises(ValueError):
            env.sleep(-1.0)
        yield env.timeout(0)

    env.run(env.process(prog()))


@pytest.mark.parametrize("fast", [True, False])
def test_interrupt_during_sleep(fast):
    env = Environment(fast=None if fast else False)
    log = []

    def sleeper():
        try:
            yield env.sleep(10.0)
        except Interrupt as i:
            log.append(("interrupted", i.cause, env.now))
        # pooling must survive an abandoned sleep: this one still works
        yield env.sleep(1.0)
        log.append(("woke", env.now))

    def interrupter(target):
        yield env.timeout(3.0)
        target.interrupt("enough")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert log == [("interrupted", "enough", 3.0), ("woke", 4.0)]
    assert env.now == 10.0  # the abandoned timeout still fires


def test_strict_forces_hooked_loop():
    env = Environment(strict=True)
    assert env.sanitizer is not None
    assert not env.fast_mode


def test_attaching_sanitizer_disables_fast_loop():
    _require_fast_mode()
    env = Environment()
    assert env.fast_mode

    def prog():
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(prog())
    env.run(until=1.0)
    attach(env)
    assert not env.fast_mode
    env.run()
    assert env.now == 2.0


def test_run_until_event_in_fast_mode():
    env = Environment()

    def prog():
        yield env.timeout(2.5)
        return "payload"

    value = env.run(env.process(prog()))
    assert value == "payload"
    assert env.now == 2.5


def test_steps_counts_events_in_both_flavours():
    for fast in (True, False):
        env = Environment(fast=None if fast else False)

        def prog():
            for _ in range(5):
                yield env.timeout(1.0)

        env.run(env.process(prog()))
        # 1 Initialize + 5 timeouts + the Process completion event
        assert env.steps == 7, fast


def test_failed_event_still_propagates_in_fast_mode():
    env = Environment()

    def prog():
        ev = env.event()
        ev.fail(SimulationError("boom"))
        with pytest.raises(SimulationError):
            yield ev

    env.run(env.process(prog()))


# -- run() stop conditions: one expectation, both loop flavours ---------------
#
# Each case pins the order log, env.now, env.steps and env.peek() to the
# same literal values under fast=None and fast=False, so the two loops
# cannot drift apart on where run() stops.

both_loops = pytest.mark.parametrize(
    "fast", [None, False], ids=["fast", "hooked"]
)


def _state(env):
    return env.now, env.steps, env.peek()


@both_loops
def test_event_scheduled_at_infinity_is_processed(fast):
    env = Environment(fast=fast)
    log = []

    def prog():
        yield env.timeout(1.0)
        log.append(env.now)
        yield env.timeout(math.inf)
        log.append(env.now)

    env.process(prog())
    env.run()
    assert log == [1.0, math.inf]
    # Initialize, two timeouts, the Process completion; nothing left queued
    assert _state(env) == (math.inf, 4, math.inf)


@both_loops
def test_run_until_event_leaves_same_instant_successors_queued(fast):
    env = Environment(fast=fast)
    log = []

    def leader():
        yield env.timeout(2.0)
        log.append("leader")
        return "payload"

    def follower(target):
        yield target
        log.append("follower")
        yield env.timeout(0)
        log.append("follower-later")

    target = env.process(leader())
    env.process(follower(target))
    assert env.run(until=target) == "payload"
    # the target's callbacks ran (follower resumed) and run() stopped there:
    # the zero-delay timeout the follower just scheduled is still queued
    assert log == ["leader", "follower"]
    assert _state(env) == (2.0, 4, 2.0)
    env.run()
    assert log == ["leader", "follower", "follower-later"]
    assert _state(env) == (2.0, 6, math.inf)


@both_loops
def test_run_until_time_processes_events_at_the_horizon(fast):
    env = Environment(fast=fast)
    log = []

    def prog():
        for _ in range(3):
            yield env.timeout(1.0)
            log.append(env.now)

    env.process(prog())
    env.run(until=2.0)
    assert log == [1.0, 2.0]
    assert _state(env) == (2.0, 3, 3.0)
    env.run(until=2.5)  # nothing in (2.0, 2.5]: only the clock moves
    assert log == [1.0, 2.0]
    assert _state(env) == (2.5, 3, 3.0)


@both_loops
def test_queue_draining_before_stop_event_is_an_error(fast):
    env = Environment(fast=fast)
    never = env.event()

    def prog():
        yield env.timeout(1.0)

    env.process(prog())
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=never)
    assert _state(env) == (1.0, 3, math.inf)


@both_loops
def test_undefused_failure_reraises_out_of_run(fast):
    env = Environment(fast=fast)

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad())
    env.timeout(5.0)
    with pytest.raises(ValueError, match="boom"):
        env.run()
    # the failed Process event counted as a step; the later timeout stays
    assert _state(env) == (1.0, 3, 5.0)


@both_loops
def test_stop_event_already_processed_returns_immediately(fast):
    env = Environment(fast=fast)

    def prog():
        yield env.timeout(1.0)
        return "payload"

    done = env.process(prog())
    failed = env.event()
    failed.fail(KeyError("gone"))
    failed.defuse()
    env.run()
    env.timeout(5.0)
    before = _state(env)
    assert before == (1.0, 4, 6.0)
    assert env.run(until=done) == "payload"
    with pytest.raises(KeyError, match="gone"):
        env.run(until=failed)
    assert _state(env) == before  # no event was popped
