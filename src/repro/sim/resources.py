"""Shared resources for simulated processes.

Provides SimPy-style resources:

* :class:`Resource` — a server pool with FIFO request queue (models a disk
  arm, a channel, an I/O processor slot).
* :class:`Store` — a queue of Python objects with blocking put/get (models
  buffer queues and mailbox communication between processes).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .engine import Environment, Event

__all__ = ["Request", "Release", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource", "_cancelled")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self._cancelled = False
        resource._waiting.append(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


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
        self._n_cancelled = 0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot (cancelled ones excluded)."""
        return len(self._waiting) - self._n_cancelled

    def request(self) -> Request:
        """Claim a slot; the returned event triggers once granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Return a slot.

        Safe to call for a request never granted (cancels it) and a no-op
        for a request already released — a double release must not grant
        waiters twice.
        """
        if request in self.users:
            self.users.remove(request)
            self._trigger_requests()
        elif not request.triggered and not request._cancelled:
            # still waiting: cancel it (frees no slot, wakes nobody). Lazy
            # cancellation: an O(n) remove per cancel made cancel-heavy
            # workloads quadratic, so flag the request and let the grant
            # loop skip it when it surfaces; the counter keeps
            # ``queue_length`` O(1)-exact.
            request._cancelled = True
            self._n_cancelled += 1
        return Release(self.env)

    def _trigger_requests(self) -> None:
        waiting = self._waiting
        while len(self.users) < self.capacity and waiting:
            req = waiting.popleft()
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
