"""Buffer pools: bounded buffer-space accounting.

§4: "Just as important as the layout of data on disks is the development
of appropriate buffering techniques ... Initial experiments using the S
and SS organizations have shown that buffering overheads can be a
significant factor in limiting speedups."

A :class:`BufferPool` bounds how many fixed-size buffers the higher-level
streams may hold at once, and charges the *copy cost* that the paper
identifies as the overhead: every byte staged through a buffer costs
``copy_cost_per_byte`` seconds of simulated CPU, plus a fixed
``per_buffer_overhead`` per fill/drain.
"""

from __future__ import annotations

from ..sim.engine import Environment, Event
from ..sim.sync import SimLock

__all__ = ["BufferPool"]


class BufferPool:
    """``n_buffers`` buffers of ``buffer_bytes`` each, with copy costing."""

    def __init__(
        self,
        env: Environment,
        n_buffers: int,
        buffer_bytes: int,
        copy_cost_per_byte: float = 2e-8,
        per_buffer_overhead: float = 1e-4,
    ):
        if n_buffers < 1:
            raise ValueError("n_buffers must be >= 1")
        if buffer_bytes < 1:
            raise ValueError("buffer_bytes must be >= 1")
        if copy_cost_per_byte < 0 or per_buffer_overhead < 0:
            raise ValueError("costs must be >= 0")
        self.env = env
        self.n_buffers = n_buffers
        self.buffer_bytes = buffer_bytes
        self.copy_cost_per_byte = copy_cost_per_byte
        self.per_buffer_overhead = per_buffer_overhead
        self._slots = SimLock(env, n_buffers)
        #: peak simultaneous buffers in use
        self.peak_in_use = 0
        #: total bytes staged through the pool (copy traffic)
        self.bytes_staged = 0

    @property
    def in_use(self) -> int:
        """Buffers held; a woken waiter holds its buffer from the release
        that handed it over."""
        return self._slots.held

    def acquire(self) -> Event:
        """Claim one buffer (blocks when all are in use)."""
        sanitizer = self.env._sanitizer
        if sanitizer is not None:
            sanitizer.register_pool(self)
        ev = self._slots.acquire()
        # a handed-over buffer never raises the count, so the peak is
        # reached at an acquire
        self.peak_in_use = max(self.peak_in_use, self._slots.held)
        return ev

    def release(self) -> None:
        """Return one buffer to the pool."""
        if not self._slots.held:
            raise RuntimeError("release of unheld buffer")
        self._slots.release()

    def copy_cost(self, nbytes: int) -> float:
        """Simulated CPU time to stage ``nbytes`` through a buffer."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if nbytes > self.buffer_bytes:
            raise ValueError(
                f"{nbytes} bytes exceed buffer size {self.buffer_bytes}"
            )
        return self.per_buffer_overhead + nbytes * self.copy_cost_per_byte

    def charge(self, nbytes: int):
        """Generator: spend the copy cost as simulated time."""
        self.bytes_staged += nbytes
        yield self.env.timeout(self.copy_cost(nbytes))
