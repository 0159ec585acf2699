"""Callback ops: schedule-identical to the processes they replace.

``env.join(submit, finish)`` stands in for a process whose body is
``events = submit(); yield all_of(events); return finish(values)`` and
``env.then(event, fn)`` for one whose body is ``return fn((yield event))``
(``event()`` when it is a callable), and ``env.settle(event, absorb)`` for the
guard process ``try: return True, (yield event)`` ``except absorb as exc:
return False, exc`` (its source defused when it failed at issue).
Each scenario below runs once with the op and once with that process, and
the two runs must observe the same ``(now, eid, steps, outcome)`` at every
point, on a loop without and with the per-step sanitizer hook alike.
"""

import pytest

from repro.sim import Environment
from repro.sim.engine import Interrupt

# no per-step hook (unless --sanitize attaches one), sanitizer hook on every step
LOOPS = [False, True]


def join_process(env, submit, finish):
    def body():
        events = submit()
        if events:
            yield env.all_of(events)
        return finish([ev.value for ev in events])

    return env.process(body())


def then_process(env, event, fn):
    def body():
        return fn((yield event() if callable(event) else event))

    return env.process(body())


def make(env, use_op):
    """``(join, then)`` constructors of one flavour."""
    if use_op:
        return env.join, env.then
    return (
        lambda submit, finish: join_process(env, submit, finish),
        lambda event, fn: then_process(env, event, fn),
    )


def guard_process(env, event, absorb=Exception):
    if event.triggered and not event.ok:
        event.defuse()  # failed at issue: processed before the guard starts

    def body():
        try:
            return True, (yield event)
        except absorb as exc:
            return False, exc

    return env.process(body())


def make_settle(env, use_op):
    return env.settle if use_op else lambda event, absorb=Exception: guard_process(env, event, absorb)


def fail_later(env, delay, exc):
    """An event that fails with ``exc`` after ``delay``."""
    ev = env.event()

    def body():
        yield env.timeout(delay)
        ev.fail(exc)

    env.process(body())
    return ev


def stamp(env, tag, outcome):
    return (tag, env.now, env._eid, env.steps, outcome)


def waiter(env, log, tag, op):
    try:
        value = yield op
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        log.append(stamp(env, tag, type(exc).__name__))
    else:
        if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], Exception):
            value = (value[0], type(value[1]).__name__)  # a settled failure
        log.append(stamp(env, tag, value))


# -- scenarios: each returns the log of one run --------------------------------------


def failing_components(env, use_op):
    join, then = make(env, use_op)
    log = []

    def driver():
        op = join(
            lambda: [
                env.timeout(1, "a"),
                fail_later(env, 2, ValueError("first")),
                fail_later(env, 3, KeyError("late")),
            ],
            lambda values: values,
        )
        yield from waiter(env, log, "join", op)
        yield from waiter(env, log, "then", then(op, len))

    env.process(driver())
    return log


def already_processed(env, use_op):
    join, then = make(env, use_op)
    log = []

    def driver():
        done = env.event()
        done.succeed(7)
        bad = env.event()
        bad.fail(ValueError("early"))
        bad.defuse()
        yield env.timeout(1)  # both are processed by now
        yield from waiter(env, log, "then", then(done, lambda v: v + 1))
        yield from waiter(env, log, "then-failed", then(bad, lambda v: v))
        yield from waiter(
            env, log, "join",
            join(lambda: [done, env.timeout(1, 3)], lambda vs: sum(vs)),
        )
        yield from waiter(env, log, "join-failed", join(lambda: [bad], len))

    env.process(driver())
    return log


def zero_requests(env, use_op):
    join, then = make(env, use_op)
    log = []

    def driver():
        yield from waiter(env, log, "join", join(lambda: [], lambda vs: len(vs)))
        yield env.timeout(0.5)
        yield from waiter(env, log, "join-again", join(list, tuple))

    env.process(driver())
    return log


def deferred_event(env, use_op):
    """``then`` with a callable: the event is made at the start slot."""
    join, then = make(env, use_op)
    log = []

    def driver():
        op = then(lambda: env.timeout(1, 4), lambda v: v * 2)
        env.timeout(0, "made after the op")
        yield from waiter(env, log, "then", op)
        failing = then(lambda: fail_later(env, 1, KeyError("x")), len)
        yield from waiter(env, log, "then-failed", failing)

    env.process(driver())
    return log


def raising_finish(env, use_op):
    join, then = make(env, use_op)
    log = []

    def boom(_):
        raise RuntimeError("finish")

    def driver():
        yield from waiter(env, log, "join", join(lambda: [env.timeout(1)], boom))
        yield from waiter(env, log, "then", then(env.timeout(1), boom))
        yield from waiter(env, log, "empty", join(list, boom))

        def bad_submit():
            raise OSError("submit")

        yield from waiter(env, log, "submit", join(bad_submit, len))
        # the environment keeps running after all of that
        yield env.timeout(1)
        log.append(stamp(env, "after", None))

    env.process(driver())
    return log


def interrupted_caller(env, use_op):
    join, then = make(env, use_op)
    log = []
    ops = []

    def caller():
        op = join(lambda: [env.timeout(2, "x"), env.timeout(1, "y")], tuple)
        ops.append(then(op, list))
        try:
            yield ops[0]
        except Interrupt as irq:
            log.append(stamp(env, "interrupted", irq.cause))
        yield from waiter(env, log, "rejoined", ops[0])

    proc = env.process(caller())

    def interrupter():
        yield env.timeout(0.5)
        proc.interrupt("stop")

    env.process(interrupter())
    return log


def settled_sources(env, use_op):
    settle = make_settle(env, use_op)
    log = []

    def driver():
        yield from waiter(env, log, "ok", settle(env.timeout(1, "v")))
        yield from waiter(env, log, "absorbed", settle(fail_later(env, 1, ValueError("x"))))
        dead = env.event()
        dead.fail(KeyError("failed at issue"))
        yield from waiter(env, log, "at-issue", settle(dead, KeyError))
        yield from waiter(
            env, log, "not-absorbed", settle(fail_later(env, 1, KeyError("y")), ValueError)
        )
        both = [settle(env.timeout(2, "a")), settle(fail_later(env, 1, ValueError("b")))]
        yield env.all_of(both)
        log.append(stamp(env, "all", [ev.value[0] for ev in both]))

    env.process(driver())
    return log


SCENARIOS = [
    failing_components,
    already_processed,
    zero_requests,
    deferred_event,
    raising_finish,
    interrupted_caller,
    settled_sources,
]


def run(scenario, use_op, strict=False):
    env = Environment(strict=strict)
    log = scenario(env, use_op)
    env.run()
    log.append(stamp(env, "end", None))
    return log


@pytest.mark.parametrize("strict", LOOPS, ids=["fast", "hooked"])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_op_keeps_the_process_schedule(scenario, strict):
    with_op = run(scenario, use_op=True, strict=strict)
    assert with_op == run(scenario, use_op=False, strict=strict)
    # and the hook only observes: the hooked loop keeps the same schedule
    assert with_op == run(scenario, use_op=True, strict=True)


def test_outcomes_are_the_process_outcomes():
    """Spot-check the values the scenarios compare, not only their equality."""
    log = run(failing_components, use_op=True)
    assert [(tag, outcome) for tag, _, _, _, outcome in log[:2]] == [
        ("join", "ValueError"),
        ("then", "ValueError"),
    ]
    assert log[0][1] == 2  # failed at the first failing component
    log = run(raising_finish, use_op=True)
    assert [outcome for _, _, _, _, outcome in log[:4]] == [
        "RuntimeError", "RuntimeError", "RuntimeError", "OSError",
    ]
    assert log[4][0] == "after"
    log = run(interrupted_caller, use_op=True)
    assert log[0][0] == "interrupted" and log[0][1] == 0.5
    assert log[1][0] == "rejoined" and log[1][4] == ["x", "y"]
    log = run(settled_sources, use_op=True)
    assert [outcome for *_, outcome in log[:4]] == [
        (True, "v"), (False, "ValueError"), (False, "KeyError"), "KeyError",
    ]
    assert log[4][4] == [True, False]


def test_an_op_is_the_tenant_context_of_its_submit_and_finish():
    """What a join's submit spawns, and its finish, run as the op's creator."""
    env = Environment()
    seen = []

    def child():
        seen.append(("child", env.active_process.qos_tenant))
        yield env.timeout(1)

    def finish(_):
        seen.append(("finish", env.active_process.qos_tenant))

    def creator():
        env.active_process.qos_tenant = "gold"
        yield env.join(lambda: [env.process(child())], finish)
        yield env.then(lambda: env.process(child()), finish)

    env.run(env.process(creator()))
    assert seen == [("child", "gold"), ("finish", "gold")] * 2
    assert env.active_process is None


def test_unwaited_failing_op_raises_like_a_process():
    for use_op in (True, False):
        env = Environment()
        join, _ = make(env, use_op)
        join(lambda: [fail_later(env, 1, ValueError("nobody waits"))], len)
        with pytest.raises(ValueError, match="nobody waits"):
            env.run()
