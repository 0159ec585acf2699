"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sanitize import attach
from repro.sim import Environment, Interrupt, SimLock, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 5.0
    assert env.now == 5.0


def test_timeout_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sleep_rejects_negative_and_nan_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.sleep(-0.5)
    with pytest.raises(ValueError):
        env.sleep(float("nan"))
    with pytest.raises(ValueError):
        env.sleep(-1e-9)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for d in (1.0, 2.0, 3.5):
            yield env.timeout(d)
            times.append(env.now)

    env.run(env.process(proc()))
    assert times == [1.0, 3.0, 6.5]


def test_two_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(name, delay):
        for _ in range(3):
            yield env.timeout(delay)
            order.append((name, env.now))

    env.process(proc("a", 2))
    env.process(proc("b", 3))
    env.run()
    # At t=6 both are due; b's timeout was scheduled first (at t=3, vs a's
    # at t=4), so FIFO tie-breaking runs b first.
    assert order == [
        ("a", 2), ("b", 3), ("a", 4), ("b", 6), ("a", 6), ("b", 9),
    ]


def test_ties_broken_fifo():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abc":
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_via_join():
    env = Environment()

    def child():
        yield env.timeout(1)
        return 42

    def parent():
        result = yield env.process(child())
        return result * 2

    assert env.run(env.process(parent())) == 84


def test_process_exception_propagates_to_joiner():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(env.process(parent())) == "caught boom"


def test_unhandled_process_exception_crashes_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_event_succeed_value_delivered():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def trigger():
        yield env.timeout(3)
        ev.succeed("hello")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == ["hello"]


def test_event_double_trigger_forbidden():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")

    def proc():
        # run after ev has been processed
        yield env.timeout(1)
        value = yield ev
        return (value, env.now)

    p = env.process(proc())
    assert env.run(p) == ("early", 1.0)


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        t1 = env.timeout(2, "x")
        t2 = env.timeout(5, "y")
        results = yield env.all_of([t1, t2])
        return (env.now, sorted(results.values()))

    assert env.run(env.process(proc())) == (5.0, ["x", "y"])


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(2, "fast")
        t2 = env.timeout(50, "slow")
        results = yield env.any_of([t1, t2])
        return (env.now, list(results.values()))

    assert env.run(env.process(proc())) == (2.0, ["fast"])


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc():
        result = yield env.all_of([])
        return result

    assert env.run(env.process(proc())) == {}


def test_interrupt_delivers_cause():
    env = Environment()
    caught = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            caught.append((env.now, i.cause))

    def attacker(v):
        yield env.timeout(4)
        v.interrupt("preempted")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert caught == [(4.0, "preempted")]


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=35)
    assert env.now == 35


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_never_triggered_is_error():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run(ev)


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42  # type: ignore[misc]

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_peek_reports_the_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7)
    assert env.peek() == 7
    env.run(until=7)
    assert env.now == 7
    assert env.peek() == float("inf")


def test_active_process_tracked():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_massive_fan_out_join():
    env = Environment()

    def child(i):
        yield env.timeout(i % 7 + 1)
        return i

    def parent():
        children = [env.process(child(i)) for i in range(200)]
        results = yield env.all_of(children)
        return sum(results.values())

    assert env.run(env.process(parent())) == sum(range(200))


def test_all_of_multiple_concurrent_failures_all_defused():
    """Regression: when several AllOf components fail, every failure must
    be defused — only the first propagates (through the condition)."""
    env = Environment()
    caught = []

    def proc():
        events = [env.event() for _ in range(3)]
        for ev in events:
            ev.fail(ValueError("boom"))
        try:
            yield env.all_of(events)
        except ValueError:
            caught.append(True)

    env.process(proc())
    env.run()  # must not crash on the 2nd and 3rd failed events
    assert caught == [True]


def test_any_of_failure_propagates_once():
    env = Environment()
    caught = []

    def proc():
        bad = env.event()
        bad.fail(RuntimeError("x"))
        slow = env.timeout(100)
        try:
            yield env.any_of([bad, slow])
        except RuntimeError:
            caught.append(True)

    env.process(proc())
    env.run()
    assert caught == [True]


def test_yield_non_event_caught_by_generator_still_fails_cleanly():
    """A generator that catches the thrown error must not resurrect the
    process: the engine closes it and fails the process event."""
    env = Environment()
    cleaned_up = []

    def stubborn():
        try:
            try:
                yield 42  # type: ignore[misc]
            except SimulationError:
                pass  # swallow it and try to keep going
            while True:
                yield env.timeout(1)
        finally:
            cleaned_up.append(True)

    proc = env.process(stubborn())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)
    assert cleaned_up == [True]  # generator was closed, finally ran


def test_yield_non_event_failure_joinable_by_parent():
    """A parent waiting on the bad process sees the failure like any other."""
    env = Environment()

    def bad():
        yield object()  # type: ignore[misc]

    def parent():
        try:
            yield env.process(bad())
        except SimulationError as exc:
            return str(exc)
        return None

    msg = env.run(env.process(parent()))
    assert msg is not None and "non-event" in msg


# -- the event loop: one expectation, with and without a sanitizer ----------
#
# Each case pins the order log, env.now, env.steps and env.peek() to the
# same literal values on a plain and on a strict (sanitized) environment:
# the sanitizer only observes, so it cannot move where run() stops.

plain_and_strict = pytest.mark.parametrize(
    "strict", [False, True], ids=["plain", "strict"]
)


def _state(env):
    return env.now, env.steps, env.peek()


def _mixed_program(env, log):
    """Timeouts, sleeps, a lock, joins — a little of everything."""
    lock = SimLock(env)

    def worker(i):
        yield env.timeout(i * 0.5)
        yield lock.acquire()
        log.append(("got", i, env.now))
        yield env.sleep(1.0)
        lock.release()
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


def test_sanitizer_does_not_change_the_schedule():
    runs = []
    for strict in (False, True):
        env = Environment(strict=strict)
        log = []
        env.run(_mixed_program(env, log))
        runs.append((log, env.now, env.steps, env._eid))
    assert runs[0] == runs[1]
    assert runs[0][2] > 0


def test_sanitizer_attached_between_runs_checks_the_next_run():
    env = Environment()

    def prog():
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(prog())
    env.run(until=1.0)
    sanitizer = attach(env)
    before = sanitizer.checks
    env.run()
    assert env.now == 2.0
    # the second timeout and the process completion
    assert sanitizer.checks - before == 2


@plain_and_strict
def test_event_scheduled_at_infinity_is_processed(strict):
    env = Environment(strict=strict)
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


@plain_and_strict
def test_run_until_event_leaves_same_instant_successors_queued(strict):
    env = Environment(strict=strict)
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


@plain_and_strict
def test_run_until_time_processes_events_at_the_horizon(strict):
    env = Environment(strict=strict)
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


@plain_and_strict
def test_queue_draining_before_stop_event_is_an_error(strict):
    env = Environment(strict=strict)
    never = env.event()

    def prog():
        yield env.timeout(1.0)

    env.process(prog())
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=never)
    assert _state(env) == (1.0, 3, math.inf)


@plain_and_strict
def test_undefused_failure_reraises_out_of_run(strict):
    env = Environment(strict=strict)

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad())
    env.timeout(5.0)
    with pytest.raises(ValueError, match="boom"):
        env.run()
    # the failed Process event counted as a step; the later timeout stays
    assert _state(env) == (1.0, 3, 5.0)


@plain_and_strict
def test_failed_event_is_thrown_into_its_waiter(strict):
    env = Environment(strict=strict)

    def prog():
        ev = env.event()
        ev.fail(SimulationError("boom"))
        with pytest.raises(SimulationError):
            yield ev

    env.run(env.process(prog()))


@plain_and_strict
def test_stop_event_already_processed_returns_immediately(strict):
    env = Environment(strict=strict)

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


@plain_and_strict
def test_interrupt_during_sleep(strict):
    env = Environment(strict=strict)
    log = []

    def sleeper():
        try:
            yield env.sleep(10.0)
        except Interrupt as i:
            log.append(("interrupted", i.cause, env.now))
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


@plain_and_strict
def test_steps_counts_every_processed_event(strict):
    env = Environment(strict=strict)
    seen = []

    def prog():
        for _ in range(5):
            yield env.timeout(1.0)
            seen.append(env.steps)

    env.run(env.process(prog()))
    # counted as they happen: Initialize, then one per timeout
    assert seen == [2, 3, 4, 5, 6]
    # 1 Initialize + 5 timeouts + the Process completion event
    assert env.steps == 7


def test_retained_sleep_keeps_its_own_state():
    env = Environment()
    seen = []

    def prog():
        a = env.sleep(1)
        yield a
        yield env.timeout(0)
        b = env.sleep(2)
        seen.append((a is not b, a.processed))
        yield b

    env.run(env.process(prog()))
    assert seen == [(True, True)]
    assert env.now == 3


class CountingEnvironment(Environment):
    """Counts the events pushed through ``_schedule``."""

    def __init__(self):
        super().__init__()
        self.scheduled = 0

    def _schedule(self, event, delay=0.0):
        self.scheduled += 1
        super()._schedule(event, delay)


def test_schedule_is_the_only_push_site():
    env = CountingEnvironment()

    def child(i):
        yield env.sleep(i)

    def prog():
        for _ in range(6):
            yield env.sleep(1)
        yield env.all_of([env.process(child(i)) for i in range(2)])

    env.run(env.process(prog()))
    assert env.peek() == math.inf
    assert env.scheduled == env.steps == 15
