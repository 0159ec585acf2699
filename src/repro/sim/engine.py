"""Discrete-event simulation engine.

A small, deterministic, generator-coroutine event simulator in the style of
SimPy, built from scratch (no external dependency is available offline).
Simulated processes are Python generators that ``yield`` events; the
:class:`Environment` advances simulated time from event to event.

The engine is the substrate for every performance experiment in this
reproduction: simulated processes model the application processes of
Crockett's MIMD machine, and simulated time models elapsed wall time on
that machine (seek, rotation, transfer, compute).

Determinism contract: given the same program and the same RNG seeds, a
simulation run produces the same event order and the same final clock.
Ties in scheduled time are broken by insertion order (FIFO).

The future-event set is a plain ``heapq`` list of ``(when, eid, event)``
entries, pushed only by :meth:`Environment._schedule` and drained by the one
loop in :meth:`Environment.run` in ``(when, eid)`` order. An attached
sanitizer (``repro.sanitize.attach`` or ``strict=True``) sees every popped
event; it only observes, so it changes no order, clock or value.
"""

from __future__ import annotations

from collections.abc import Generator
from heapq import heappop, heappush
from typing import Any, Callable

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Op",
    "Settle",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for illegal engine operations (double-trigger, bad yield...)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, may be *triggered* (scheduled with a value or
    an exception), and is *processed* once its callbacks have run. Processes
    wait for events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_defused")

    _PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        #: callables invoked with this event when it is processed
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = Event._PENDING
        self._ok: bool | None = None
        self._processed = False
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (value or failure set)."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        The exception is re-raised inside any process waiting on the event.
        """
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0 or delay != delay:  # rejects negatives and NaN
            raise ValueError(f"negative or NaN delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        env._schedule(self, delay)


class Initialize(Event):
    """Internal: the start slot of a new process or op."""

    __slots__ = ()

    def __init__(self, env: "Environment", callback: Callable[[Event], None]):
        self.env = env
        self.callbacks = [callback]
        self._value = None
        self._ok = True
        self._processed = False
        self._defused = False
        env._schedule(self)


class Process(Event):
    """A simulated process wrapping a generator.

    The process is itself an event that triggers when the generator returns
    (value = return value) or raises (failure). Other processes can wait for
    it by yielding it, which is how fork/join is expressed.
    """

    __slots__ = ("_generator", "_target", "_resume_cb", "name", "qos_tenant")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ):
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = Event._PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Ambient QoS context: child processes are always created from
        # within their parent's generator body, so inheriting from the
        # active process propagates the tenant down the whole call chain
        # (see ``repro.qos``). None means "untagged" (system work).
        self.qos_tenant: Any = getattr(env._active, "qos_tenant", None)
        #: the bound resume method, created once — every wait point used to
        #: rebuild it (``callbacks.append(self._resume)`` allocates a fresh
        #: bound method per append, ~1 per event on process-heavy runs)
        self._resume_cb = self._resume
        #: the event this process is currently waiting on
        self._target: Event | None = Initialize(env, self._resume_cb)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting yourself is
        also an error (a process cannot preempt itself).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self.env._active is self:
            raise SimulationError("a process cannot interrupt itself")
        target = self._target
        if target is not None:
            # Stop waiting on the old target (it may already be triggered —
            # e.g. a Timeout is born triggered — but not yet processed).
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
        interrupt_event = Event(self.env)
        interrupt_event.callbacks = [self._resume_cb]
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        self.env._schedule(interrupt_event)
        self._target = interrupt_event

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        env = self.env
        env._active = self
        send = self._generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                env._active = None
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active = None
                self._target = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                # Close the generator and fail the process cleanly. (Throwing
                # the error into the generator instead would misbehave when
                # the generator catches it and keeps yielding.)
                env._active = None
                try:
                    self._generator.close()
                except RuntimeError:
                    pass  # generator ignored GeneratorExit; fail it anyway
                self._target = None
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded non-event "
                        f"{next_event!r}"
                    )
                )
                return
            if next_event.env is not env:
                raise SimulationError(
                    "yielded event belongs to a different Environment"
                )

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Not yet processed: wait for it.
                callbacks.append(self._resume_cb)
                self._target = next_event
                env._active = None
                return
            # Already processed: feed its value back immediately.
            event = next_event


class Op(Event):
    """A callback op: a process whose body only waits, without the generator.

    ``env.join(submit, finish)`` acts as a process running ``events =
    submit(); yield env.all_of(events)`` (skipped when empty) ``; return
    finish([ev.value for ev in events])``, and ``env.then(event, fn)`` as one
    running ``return fn((yield event))`` (or ``event()``), in exactly that
    process's schedule slots: same event order, eids, steps and failures.
    Like a process, an op takes its creator's ``qos_tenant`` and is the
    active context while ``submit`` and ``finish`` run, so what they submit
    or spawn is billed to that tenant.
    """

    __slots__ = ("_source", "_finish", "_join", "_left", "qos_tenant")

    def __init__(self, env: "Environment", source: Any, finish: Callable[[Any], Any]):
        Event.__init__(self, env)
        self._source = source
        self._finish = finish
        self.qos_tenant: Any = getattr(env._active, "qos_tenant", None)
        Initialize(env, self._wait if isinstance(source, Event) else self._begin)

    def _wait(self, _start: Event) -> None:
        source = self._source
        if source.callbacks is None:
            self._settle(source)
        else:
            source.callbacks.append(self._settle)

    def _begin(self, _start: Event) -> None:
        env = self.env
        env._active = self
        try:
            events = self._source = self._source()
        except BaseException as exc:
            self.fail(exc)
            return
        finally:
            env._active = None
        if isinstance(events, Event):  # then() with the event made here
            return self._wait(_start)
        if not events:
            self._apply([])
            return
        # a counted join, not an AllOf: its value dict costs what the op saves
        self._left = len(events)
        self._join = join = Event(env)
        join.callbacks.append(self._settle)
        check = self._check
        for ev in events:
            if ev.callbacks is None:
                check(ev)
            else:
                ev.callbacks.append(check)

    def _check(self, event: Event) -> None:
        join = self._join
        if not event._ok:
            event._defused = True
            if join._value is Event._PENDING:
                join.fail(event._value)
            return
        self._left -= 1
        if not self._left and join._value is Event._PENDING:
            join.succeed([ev._value for ev in self._source])

    def _settle(self, event: Event) -> None:
        if event._ok:
            self._apply(event._value)
            return
        event._defused = True
        self._source = self._finish = None
        self.fail(event._value)

    def _apply(self, value: Any) -> None:
        finish = self._finish
        self._source = self._finish = self._join = None
        env = self.env
        env._active = self
        try:
            value = finish(value)
        except BaseException as exc:
            self.fail(exc)
        else:
            self.succeed(value)
        finally:
            env._active = None


class Settle(Op):
    """``env.settle(event, absorb)``: an op whose value is ``(True, value)``
    when ``event`` succeeds or ``(False, exc)`` when it fails with an
    ``absorb`` exception; any other failure fails the op.

    It runs in exactly the slots of a process whose body is ``try: return
    True, (yield event)`` ``except absorb as exc: return False, exc``, and
    it defuses ``event`` when created: a request that failed at issue (a
    dead device) is observed here, not raised by the loop before the op's
    start slot.
    """

    __slots__ = ("_absorb",)

    def __init__(self, env: "Environment", source: Event, absorb: type[BaseException] | tuple):
        source._defused = True
        self._absorb = absorb
        Op.__init__(self, env, source, None)

    def _settle(self, event: Event) -> None:
        self._source = None
        value = event._value
        if event._ok:
            self.succeed((True, value))
        elif isinstance(value, self._absorb):
            self.succeed((False, value))
        else:
            self.fail(value)


class Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_n_done", "_check_cb")

    def __init__(self, env: "Environment", events: list[Event]):
        super().__init__(env)
        self.events = list(events)
        self._n_done = 0
        check = self._check_cb = self._check
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("mixed environments in condition")
            if ev.callbacks is None:  # already processed
                check(ev)
            else:
                ev.callbacks.append(check)
        if not self.events and not self.triggered:
            self.succeed({})

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if not event._ok:
            # Always defuse: with several concurrently-failing components
            # the condition fails once, but every component's failure is
            # handled here (otherwise the later ones crash the run).
            event.defuse()
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._n_done += 1
        if self._satisfied():
            # Only *processed* events contribute values: a Timeout is
            # "triggered" from birth but has not yet occurred.
            self.succeed(
                {ev: ev._value for ev in self.events if ev.processed and ev._ok}
            )


class AllOf(Condition):
    """Triggers once every component event has triggered (barrier join)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done == len(self.events)


class AnyOf(Condition):
    """Triggers as soon as one component event triggers."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class Environment:
    """The simulation clock and event queue.

    ``strict=True`` attaches an :class:`~repro.sanitize.EngineSanitizer`
    that raises on the first invariant violation.
    """

    def __init__(self, *, strict: bool = False):
        self._now = 0.0
        #: the future-event set: a heapq list of ``(when, eid, event)``
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = 0
        #: the process or op whose code is running (None between steps)
        self._active: Process | Op | None = None
        #: events processed so far
        self.steps = 0
        #: attached EngineSanitizer, if any (see ``repro.sanitize``)
        self._sanitizer: Any = None
        if strict:
            from ..sanitize.engine_hooks import attach

            attach(self, raise_on_violation=True)

    @property
    def sanitizer(self) -> Any:
        """The attached :class:`~repro.sanitize.EngineSanitizer`, if any."""
        return self._sanitizer

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Process | Op | None:
        """The process (or op ``submit``/``finish``) currently executing."""
        return self._active

    # -- event constructors -------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Timeout:
        """``timeout(delay)`` without a value.

        The wait :class:`~repro.qos.bucket.TokenBucket` yields: the live
        server's wall clock offers the same method, so one bucket runs in
        simulated and in real time.
        """
        return Timeout(self, delay)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> Process:
        """Start a new simulated process from ``generator``."""
        return Process(self, generator, name)

    def join(self, submit: Callable[[], list[Event]], finish: Callable[[list], Any]) -> Op:
        """A callback op joining the events ``submit()`` returns (see :class:`Op`)."""
        return Op(self, submit, finish)

    def then(self, event: Event | Callable[[], Event], fn: Callable[[Any], Any]) -> Op:
        """A callback op whose value is ``fn`` of ``event``'s (see :class:`Op`)."""
        return Op(self, event, fn)

    def settle(
        self, event: Event, absorb: type[BaseException] | tuple = Exception
    ) -> Settle:
        """An op whose value is ``(True, value)`` or ``(False, exc)`` for an
        ``absorb`` failure of ``event`` (see :class:`Settle`)."""
        return Settle(self, event, absorb)

    def all_of(self, events: list[Event]) -> AllOf:
        """An event triggering once every component has occurred (join)."""
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        """An event triggering as soon as any component occurs."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._eid += 1
        heappush(self._queue, (self._now + delay, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * a number — run until the clock reaches that time (events *at*
          that time are processed);
        * an :class:`Event` — run until that event is processed, returning
          its value (re-raising its exception if it failed).
        """
        stop = horizon = None
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} is in the past (now={self._now})"
                )
        queue = self._queue
        sanitizer = self._sanitizer
        while queue and (stop is None or not stop._processed):
            if horizon is not None and queue[0][0] > horizon:
                break
            when, _, event = heappop(queue)
            self._now = when
            self.steps += 1
            if sanitizer is not None:
                sanitizer.on_step(event)
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            for cb in callbacks:
                cb(event)
            if event._ok is False and not event._defused:
                raise event._value
        if stop is not None:
            if not stop._processed:
                raise SimulationError(
                    "event queue drained before target event triggered"
                )
            if stop._ok:
                return stop._value
            raise stop._value
        if horizon is not None:
            self._now = horizon
        return None
