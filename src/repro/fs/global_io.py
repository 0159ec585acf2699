"""The global view: a parallel file as a conventional file.

§2: "The global view is the logical structure of the file perceived as a
unit. The global view would typically be held by operating system
utilities and other sequential programs."

For every sequential organization the global view is the records in
global index order; for the direct-access organizations it is a
traditional direct-access file. Both are served here by one handle with a
sequential cursor plus positioned reads/writes; the cursor itself is
:class:`repro.core.handles.GlobalViewCore`, shared with the live backend.

§4's caveat is preserved by construction: a global read of a *clustered*
(PS) file touches the devices one partition at a time — "all of the data
would have to be read from the first disk, followed by all of the data
from the second disk, etc., with no potential for parallelism" — because
that is literally how the layout maps consecutive byte ranges. Benchmark
E6 measures it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..buffering.pool import BufferPool
from ..buffering.readahead import ReadStream
from ..core.handles import GlobalViewCore

if TYPE_CHECKING:  # pragma: no cover
    from .pfs import ParallelFile

__all__ = ["GlobalViewHandle", "trace_span"]


def trace_span(file: "ParallelFile", process: int, op: str, start: int, count: int) -> None:
    """Trace a record-granular access, one entry per block it touches."""
    if not file.pfs._tracing or count <= 0:
        return
    bs = file.attrs.block_spec
    for b, lo, hi in bs.pieces(start, count):
        file.trace(process, op, b, hi - lo, start=bs.first_record(b) + lo)


class GlobalViewHandle(GlobalViewCore):
    """Sequential + direct access to the file's global record sequence."""

    # -- sequential -------------------------------------------------------

    def read(self, count: int | None = None):
        """Generator: read ``count`` records (default: to EOF) at the cursor."""
        start, count = self._read_span(count)
        if count <= 0:
            return self.file.attrs.record_spec.decode(b"")
        data = yield self.file.read_records(start, count)
        self._advance(count)
        trace_span(self.file, self.process, "read", start, count)
        return data

    def write(self, values: np.ndarray):
        """Generator: write records at the cursor, advancing it."""
        spec = self.file.attrs.record_spec
        count = spec.encode(values).size // spec.record_size
        start = self._cursor
        yield self.file.write_records(start, values)
        self._advance(count)
        trace_span(self.file, self.process, "write", start, count)
        return count

    # -- direct (GDA-style global access) -----------------------------------

    def read_at(self, record: int, count: int = 1):
        """Generator: positioned read without moving the cursor."""
        data = yield self.file.read_records(record, count)
        trace_span(self.file, self.process, "read", record, count)
        return data

    def write_at(self, record: int, values: np.ndarray):
        """Generator: positioned write without moving the cursor."""
        spec = self.file.attrs.record_spec
        count = spec.encode(values).size // spec.record_size
        yield self.file.write_records(record, values)
        trace_span(self.file, self.process, "write", record, count)
        return count

    # -- buffered scanning ----------------------------------------------------

    def stream(self, pool: BufferPool, depth: int = 1) -> ReadStream:
        """A block-granular :class:`ReadStream` over the whole file.

        This is the §4 buffered global scan: read-ahead works because the
        global order is predictable.
        """
        file = self.file
        return ReadStream(
            file.env, file.read_block, list(range(file.n_blocks)), pool, depth=depth
        )
