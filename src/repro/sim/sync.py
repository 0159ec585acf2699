"""Synchronization primitives for simulated processes.

These model the coordination Crockett's parallel programs need, one
primitive per kind of waiting:

* :class:`SimLock` — waiting for a turn, FIFO: mutual exclusion with one
  slot (the self-scheduled (SS) organization's shared ticket counter, the
  data-sieving extent lock, §5's per-parity-unit read-modify-write), or a
  bounded pool with ``slots`` holders (§4's buffer slots);
* :class:`Store` — a queue of Python objects with blocking put/get (buffer
  queues and mailbox communication between processes);
* :class:`SimBarrier` — phase barriers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .engine import Environment, Event, SimulationError

__all__ = ["SimLock", "Store", "SimBarrier"]


class SimLock:
    """A FIFO lock with ``slots`` holders at once: a mutex at 1, a bounded
    pool above.

    Usage::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()

    A release hands its slot straight to the oldest waiter, so a slot freed
    under contention is never up for grabs.
    """

    __slots__ = ("env", "slots", "held", "_waiters", "contended_acquires",
                 "total_acquires")

    def __init__(self, env: Environment, slots: int = 1):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.env = env
        self.slots = slots
        #: slots held; a woken waiter holds its slot from the release that
        #: woke it, before its event is processed
        self.held = 0
        self._waiters: deque[Event] = deque()
        #: number of acquisitions that had to wait (contention metric)
        self.contended_acquires = 0
        self.total_acquires = 0

    @property
    def locked(self) -> bool:
        """True while every slot is held."""
        return self.held == self.slots

    def acquire(self) -> Event:
        """Claim a slot; the returned event triggers once held."""
        ev = Event(self.env)
        self.total_acquires += 1
        if self.held < self.slots:
            self.held += 1
            ev.succeed()
        else:
            self.contended_acquires += 1
            self._waiters.append(ev)
        sanitizer = self.env._sanitizer
        if sanitizer is not None:
            sanitizer.on_lock(self)
        return ev

    def release(self) -> None:
        """Release a slot, handing it to the oldest waiter if any."""
        if not self.held:
            raise SimulationError("release of unheld lock")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.held -= 1
        sanitizer = self.env._sanitizer
        if sanitizer is not None:
            sanitizer.on_lock(self)


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._puts.append(self)
        store._dispatch()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._gets.append(self)
        store._dispatch()


class Store:
    """A FIFO queue of items with blocking put (when full) and get (when empty).

    ``on_admitted``, if given, is called with each item as its put is
    granted (an I/O node's inbox stamps its admission time there).
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        on_admitted: Callable[[Any], None] | None = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._puts: deque[StorePut] = deque()
        self._gets: deque[StoreGet] = deque()
        self._on_admitted = on_admitted

    def put(self, item: Any) -> StorePut:
        """Append ``item``; triggers once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove and return the oldest item; triggers once one exists."""
        return StoreGet(self)

    def __len__(self) -> int:
        return len(self.items)

    # -- subclass hooks (see repro.qos.scheduler.TenantStore) ----------------

    def _take(self) -> Any:
        """Remove and return the next item to hand to a getter (FIFO)."""
        return self.items.popleft()

    def on_admit(self, item: Any) -> None:
        """Called after ``item`` is admitted into the store (put granted)."""
        if self._on_admitted is not None:
            self._on_admitted(item)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._puts and len(self.items) < self.capacity:
                put = self._puts.popleft()
                if put.triggered:
                    continue
                self.items.append(put.item)
                put.succeed()
                self.on_admit(put.item)
                progressed = True
            while self._gets and self.items:
                get = self._gets.popleft()
                if get.triggered:
                    continue
                get.succeed(self._take())
                progressed = True
        sanitizer = self.env._sanitizer
        if sanitizer is not None:
            sanitizer.on_store(self)


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
