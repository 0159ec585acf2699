"""Per-device extent allocation.

§4 closes its PS/IS discussion with: "Work is needed here to determine the
best ways to allocate space on the disks to minimize this problem [seek
degradation when several processes share a device]." The allocator is
therefore explicit and pluggable rather than hidden in the volume: the
placement of extents on a device determines the seek distances benchmark
E3 measures.

:class:`ExtentAllocator` is a first-fit free-list allocator over one
device's byte space.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExtentAllocator", "AllocationError"]


class AllocationError(Exception):
    """Device has no free extent large enough for the request."""


@dataclass
class _FreeSpan:
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


class ExtentAllocator:
    """First-fit contiguous allocation over ``capacity`` bytes."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._free: list[_FreeSpan] = (
            [_FreeSpan(0, capacity)] if capacity else []
        )
        self.allocated_bytes = 0

    # -- queries ------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return sum(s.length for s in self._free)

    @property
    def largest_free_extent(self) -> int:
        return max((s.length for s in self._free), default=0)

    @property
    def fragmentation(self) -> float:
        """1 - largest_free/total_free: 0 when free space is one extent."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_extent / free

    # -- operations ---------------------------------------------------------

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes``; returns the start offset."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        for i, span in enumerate(self._free):
            if span.length >= nbytes:
                start = span.start
                # carve [start, start+nbytes) off the front of the span
                if span.length == nbytes:
                    del self._free[i]
                else:
                    span.start += nbytes
                    span.length -= nbytes
                self.allocated_bytes += nbytes
                return start
        raise AllocationError(
            f"no free extent of {nbytes} bytes "
            f"(free={self.free_bytes}, largest={self.largest_free_extent})"
        )

    def free(self, start: int, nbytes: int) -> None:
        """Return an extent; coalesces with adjacent free spans."""
        if nbytes <= 0:
            raise ValueError("free size must be positive")
        end = start + nbytes
        if start < 0 or end > self.capacity:
            raise ValueError("extent outside device")
        for span in self._free:
            if start < span.end and end > span.start:
                raise ValueError(
                    f"double free: [{start}, {end}) overlaps free span "
                    f"[{span.start}, {span.end})"
                )
        self._free.append(_FreeSpan(start, nbytes))
        self._free.sort(key=lambda s: s.start)
        # coalesce
        merged: list[_FreeSpan] = []
        for span in self._free:
            if merged and merged[-1].end == span.start:
                merged[-1].length += span.length
            else:
                merged.append(span)
        self._free = merged
        self.allocated_bytes -= nbytes
