"""Shared resources for simulated processes.

Provides SimPy-style resources:

* :class:`Resource` — a server pool with FIFO request queue (models a disk
  arm, a channel, an I/O processor slot).
* :class:`PriorityResource` — like :class:`Resource` but requests carry a
  priority (lower value served first; FIFO within a priority).
* :class:`Store` — a queue of Python objects with blocking put/get (models
  buffer queues and mailbox communication between processes).
* :class:`Container` — a continuous level with blocking put/get (models
  buffer-space accounting in bytes).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from .engine import Environment, Event, SimulationError

__all__ = ["Request", "Release", "Resource", "PriorityResource", "Store", "Container"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource", "priority", "_order", "_cancelled")

    def __init__(self, resource: "Resource", priority: float = 0.0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._cancelled = False
        resource._order += 1
        self._order = resource._order
        resource._enqueue(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def __lt__(self, other: "Request") -> bool:
        # The ``_order`` component is load-bearing: it is a per-resource
        # monotonic sequence number that guarantees FIFO service among
        # equal-priority requests, including after cancellations re-heapify
        # the PriorityResource queue. Do not drop it.
        return (self.priority, self._order) < (other.priority, other._order)


class Release(Event):
    """Immediate event confirming a release (triggers instantly)."""

    __slots__ = ()

    def __init__(self, env: Environment):
        super().__init__(env)
        self.succeed()


class Resource:
    """``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self._waiting: deque[Request] = deque()
        self._order = 0
        self._n_cancelled = 0

    # -- queue policy (overridden by PriorityResource) ----------------------

    def _enqueue(self, request: Request) -> None:
        self._waiting.append(request)

    def _dequeue(self) -> Request:
        return self._waiting.popleft()

    def _queue_nonempty(self) -> bool:
        return bool(self._waiting)

    def _discard(self, request: Request) -> None:
        # Lazy cancellation: an O(n) remove (plus a heapify for the
        # PriorityResource) per cancel made cancel-heavy workloads
        # quadratic. Flag the request and let the grant loop skip it when
        # it surfaces; the counter keeps ``queue_length`` O(1)-exact.
        if not request._cancelled:
            request._cancelled = True
            self._n_cancelled += 1

    # -- public API ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot (cancelled ones excluded)."""
        return len(self._waiting) - self._n_cancelled

    def request(self, priority: float = 0.0) -> Request:
        """Claim a slot; the returned event triggers once granted."""
        return Request(self, priority)

    def release(self, request: Request) -> Release:
        """Return a slot.

        Safe to call for a request never granted (cancels it) and a no-op
        for a request already released — a double release must not grant
        waiters twice.
        """
        if request in self.users:
            self.users.remove(request)
            self._trigger_requests()
        elif not request.triggered:
            # still waiting: cancel it (frees no slot, wakes nobody)
            self._discard(request)
        return Release(self.env)

    def _trigger_requests(self) -> None:
        while len(self.users) < self.capacity and self._queue_nonempty():
            req = self._dequeue()
            if req._cancelled:
                self._n_cancelled -= 1
                continue
            if req.triggered:
                continue
            self.users.append(req)
            req.succeed(req)
        sanitizer = self.env._sanitizer
        if sanitizer is not None:
            sanitizer.on_resource(self)


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by request priority."""

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        self._waiting: list[Request] = []

    def _enqueue(self, request: Request) -> None:
        heapq.heappush(self._waiting, request)

    def _dequeue(self) -> Request:
        return heapq.heappop(self._waiting)

    def _queue_nonempty(self) -> bool:
        return bool(self._waiting)

    # _discard: the base class's lazy-cancellation flag works unchanged for
    # the heap — cancelled entries keep their slot until dequeued, so no
    # remove + heapify (O(n)) per cancel, and FIFO-within-priority order
    # among survivors is untouched.


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
    """A FIFO queue of items with blocking put (when full) and get (when empty)."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._puts: deque[StorePut] = deque()
        self._gets: deque[StoreGet] = deque()

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


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._puts.append(self)
        container._dispatch()


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._gets.append(self)
        container._dispatch()


class Container:
    """A continuous quantity (e.g. buffer bytes) with blocking put/get."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init outside [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._puts: deque[ContainerPut] = deque()
        self._gets: deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; triggers once it fits under capacity."""
        if amount > self.capacity:
            raise SimulationError(
                f"put of {amount} can never fit capacity {self.capacity}"
            )
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Take ``amount``; triggers once the level covers it."""
        if amount > self.capacity:
            raise SimulationError(
                f"get of {amount} exceeds capacity {self.capacity}"
            )
        return ContainerGet(self, amount)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts:
                put = self._puts[0]
                if put.triggered:
                    self._puts.popleft()
                    progressed = True
                elif self._level + put.amount <= self.capacity:
                    self._puts.popleft()
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._gets:
                get = self._gets[0]
                if get.triggered:
                    self._gets.popleft()
                    progressed = True
                elif self._level >= get.amount:
                    self._gets.popleft()
                    self._level -= get.amount
                    get.succeed(get.amount)
                    progressed = True
        sanitizer = self.env._sanitizer
        if sanitizer is not None:
            sanitizer.on_container(self)
