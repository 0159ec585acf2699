"""Synchronization primitives for simulated processes.

These model the coordination mechanisms Crockett's parallel programs need:
mutual exclusion on shared file state (:class:`SimLock`, which also guards
the self-scheduled (SS) organization's shared ticket counter), counting
semaphores for buffer slots (:class:`SimSemaphore`), and phase barriers
(:class:`SimBarrier`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from .engine import Environment, Event, SimulationError

__all__ = ["SimLock", "SimSemaphore", "SimBarrier"]


class SimLock:
    """A FIFO mutual-exclusion lock.

    Usage::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    __slots__ = ("env", "_locked", "_waiters", "contended_acquires",
                 "total_acquires")

    def __init__(self, env: Environment):
        self.env = env
        self._locked = False
        self._waiters: deque[Event] = deque()
        #: number of acquisitions that had to wait (contention metric)
        self.contended_acquires = 0
        self.total_acquires = 0

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        """Claim the lock; the returned event triggers once held."""
        ev = Event(self.env)
        self.total_acquires += 1
        if not self._locked:
            self._locked = True
            ev.succeed()
        else:
            self.contended_acquires += 1
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release the lock, waking the oldest waiter."""
        if not self._locked:
            raise SimulationError("release of unheld lock")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False

    def holding(self, body: Generator[Event, Any, Any]) -> Generator[Event, Any, Any]:
        """Run generator ``body`` under the lock (helper for subprocesses)."""
        yield self.acquire()
        try:
            result = yield from body
        finally:
            self.release()
        return result


class SimSemaphore:
    """A counting semaphore with FIFO wakeup."""

    __slots__ = ("env", "_value", "_waiters")

    def __init__(self, env: Environment, value: int = 1):
        if value < 0:
            raise ValueError("initial value must be >= 0")
        self.env = env
        self._value = value
        self._waiters: deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        """Take one unit; the returned event triggers once available."""
        ev = Event(self.env)
        if self._value > 0:
            self._value -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return one unit, waking the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1


class SimBarrier:
    """A reusable phase barrier for ``parties`` processes."""

    __slots__ = ("env", "parties", "_arrived", "generation")

    def __init__(self, env: Environment, parties: int):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.env = env
        self.parties = parties
        self._arrived: list[Event] = []
        #: number of completed barrier phases
        self.generation = 0

    def wait(self) -> Event:
        """Arrive at the barrier; triggers when all parties have arrived.

        The event value is the arrival index (0 = first to arrive), so one
        process per phase can be elected to do serial work.
        """
        ev = Event(self.env)
        self._arrived.append(ev)
        if len(self._arrived) == self.parties:
            arrived, self._arrived = self._arrived, []
            self.generation += 1
            # Arrival order is list order, so enumerate() is the index.
            for i, waiter in enumerate(arrived):
                waiter.succeed(i)
        return ev
