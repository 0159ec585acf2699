"""Read-ahead streams (multiple buffering + dedicated I/O producer).

§4: "The sequential organizations can mitigate this effect [buffering
overhead] through the use of multiple buffering and dedicated I/O
processors. Since the order of accesses is predictable, reading ahead and
deferred writing can be used to overlap I/O operations with computation."

:class:`ReadStream` consumes a *predictable* sequence of block fetches:

* ``depth = 0`` — single buffering: each ``get()`` issues the fetch and
  waits for it (no overlap; elapsed ~ I/O + compute).
* ``depth >= 1`` — read-ahead: a dedicated I/O producer process (the
  paper's "dedicated I/O processor") keeps up to ``depth`` fetched blocks
  staged in a bounded queue while the consumer computes (elapsed ~
  max(I/O, compute) once the pipeline fills).

The copy overhead per staged block is charged through the
:class:`~repro.buffering.pool.BufferPool`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..sim.engine import Environment, Event
from ..sim.sync import Store
from .pool import BufferPool

__all__ = ["ReadStream"]


class _FetchFailure:
    """Queue sentinel: the producer's fetch of ``index`` raised ``error``."""

    __slots__ = ("index", "error")

    def __init__(self, index: int, error: BaseException):
        self.index = index
        self.error = error


class ReadStream:
    """Sequential consumption of a known block sequence with read-ahead."""

    def __init__(
        self,
        env: Environment,
        fetch: Callable[[int], Event],
        sequence: Sequence[int],
        pool: BufferPool,
        depth: int = 1,
    ):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.env = env
        self.fetch = fetch
        self.sequence = list(sequence)
        self.pool = pool
        self.depth = depth
        self._cursor = 0
        self._holding = False  # consumer holds the current block's buffer
        if depth >= 1:
            self._queue: Store | None = Store(env, capacity=depth)
            self._producer = env.process(self._produce(), name="readahead")
        else:
            self._queue = None

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.sequence)

    def _produce(self):
        for index in self.sequence:
            yield self.pool.acquire()
            try:
                data = yield self.fetch(index)
            except BaseException as exc:  # noqa: BLE001 - relayed to consumer
                # The fetch failed mid-flight: the staging buffer must go
                # back to the pool, and the error must reach the consumer
                # in-band (this process is unwaited, so letting it die would
                # both leak the buffer and strand the consumer on the queue).
                self.pool.release()
                yield self._queue.put(_FetchFailure(index, exc))
                return
            yield from self.pool.charge(_nbytes(data))
            yield self._queue.put((index, data))

    def get(self):
        """Generator: the next ``(index, data)`` pair, in sequence order.

        Raises :class:`StopIteration` semantics via returning ``None`` when
        the sequence is exhausted — callers should check :attr:`exhausted`
        or use :meth:`read_all`.
        """
        # The consumer is done with the previous block once it asks for the
        # next one — that is when its buffer goes back to the pool (the
        # buffer is held *during* the caller's compute phase).
        if self._holding:
            self.pool.release()
            self._holding = False
        if self.exhausted:
            return None
        index = self.sequence[self._cursor]
        self._cursor += 1
        if self._queue is None:
            # single buffering: fetch synchronously, pay the copy
            yield self.pool.acquire()
            try:
                data = yield self.fetch(index)
            except BaseException:
                # return the buffer and rewind so a retry refetches this block
                self.pool.release()
                self._cursor -= 1
                raise
            yield from self.pool.charge(_nbytes(data))
            self._holding = True
            return index, data
        item = yield self._queue.get()
        if isinstance(item, _FetchFailure):
            # producer died on this fetch; the stream cannot continue
            self._cursor = len(self.sequence)
            raise item.error
        got_index, data = item
        self._holding = True
        assert got_index == index, "producer/consumer sequence mismatch"
        return index, data

    def read_all(self, compute: Callable[[int, Any], float] | None = None):
        """Generator: consume the whole sequence, optionally computing.

        ``compute(index, data)`` returns the simulated seconds of
        processing per block; this is how benchmark E5 dials the
        compute:I/O ratio. Returns the list of consumed indices.
        """
        consumed = []
        while not self.exhausted:
            item = yield from self.get()
            index, data = item
            consumed.append(index)
            if compute is not None:
                cost = compute(index, data)
                if cost > 0:
                    yield self.env.timeout(cost)
        return consumed


def _nbytes(data: Any) -> int:
    if hasattr(data, "nbytes"):
        return int(data.nbytes)
    return len(data)
