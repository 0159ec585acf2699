"""Internal views: per-process, organization-specific file handles (§3).

Each organization gets the access method its section of the paper
describes:

* S — :class:`SequentialHandle`: the designated process scans the whole
  file in order.
* PS / IS — :class:`PartitionHandle`: a per-process cursor over the
  process's own blocks ("each process performs its own I/O operations
  within its assigned block[s]").
* SS — :class:`SSSession` + :class:`SSHandle`: a shared ticket counter
  guarantees "each request accesses a different record and no record gets
  skipped"; the session's ``early_advance`` flag implements §4's
  optimization ("file pointers can be adjusted and buffer areas reserved
  early in an I/O call, thereby allowing the next call from another
  process to proceed before the actual data transfer from the first call
  has completed").
* GDA — :class:`DirectHandle`: any record, any order, optional block
  cache.
* PDA — :class:`OwnedDirectHandle`: the same, restricted to owned blocks,
  where the block cache is §4's "buffer caching ... when there is some
  locality of reference, as in the PDA organization".

Each kind's semantics is defined once in :mod:`repro.core.handles`; the
classes here are its generator shells, adding only what exists in
simulated time (the SS lock and pointer cost, the block cache, the block
cursor and read-ahead stream, sanitizer and trace hooks). Drive them with
``yield from`` inside simulated processes.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..buffering.cache import BufferCache
from ..buffering.readahead import ReadStream
from ..core.errors import ExhaustedError
from ..core.handles import (
    DirectCore,
    OwnedDirectCore,
    PartitionCore,
    SequentialCore,
    SSCore,
    SSSessionCore,
)
from ..core.organizations import FileOrganization
from ..sim.sync import SimLock
from .global_io import GlobalViewHandle, trace_span

if TYPE_CHECKING:  # pragma: no cover
    from .pfs import ParallelFile

__all__ = [
    "SequentialHandle",
    "PartitionHandle",
    "SSSession",
    "SSHandle",
    "DirectHandle",
    "OwnedDirectHandle",
]


class SequentialHandle(SequentialCore, GlobalViewHandle):
    """Type S: the global view, held by the designated reader."""

    def read_next(self, count: int = 1):
        """Generator: the next ``count`` records (clipped at EOF)."""
        return self.read(count)

    def write_next(self, values: np.ndarray):
        """Generator: write records at the cursor."""
        return self.write(values)


class PartitionHandle(PartitionCore):
    """Types PS and IS: a cursor over the process's own record sequence.

    ``org_map`` defaults to the file's own map; passing a different map
    yields an *alternate-view* handle (the §5 degraded software interface).
    """

    def __init__(self, file: "ParallelFile", process: int, org_map=None):
        super().__init__(file, process, org_map)
        sanitizer = file.pfs.sanitizer
        if sanitizer is not None:
            sanitizer.note_view(file, process, self.view_map.org)
        self._block_cursor = 0

    # -- record-level cursor --------------------------------------------------

    def read_next(self, count: int = 1):
        """Generator: the next ``count`` of this process's records.

        Contiguous global runs are fetched as single transfers; an IS
        partition therefore pays one transfer per touched block while a
        PS partition pays one per call.
        """
        count, runs = self._read_runs(count)
        if count <= 0:
            return self.file.attrs.record_spec.decode(b"")
        file = self.file
        if len(runs) > 1 and file.pfs.volume.coalesce:
            # list I/O: all runs down the data plane as one submission
            data = yield file.read_gather(runs)
            for start, n in runs:
                trace_span(file, self.process, "read", start, n)
        else:
            pieces = []
            for start, n in runs:
                pieces.append((yield file.read_records(start, n)))
                trace_span(file, self.process, "read", start, n)
            data = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        self._advance(count)
        return data

    def write_next(self, values: np.ndarray):
        """Generator: write the next records of this process's sequence."""
        file = self.file
        spec = file.attrs.record_spec
        raw = spec.encode(values)
        count = raw.size // spec.record_size
        runs = self._write_runs(count)
        if len(runs) == 1:
            # one run: the caller's values go down as they are
            yield file.write_records(runs[0][0], values)
            trace_span(file, self.process, "write", *runs[0])
        elif runs and file.pfs.volume.coalesce:
            yield file.write_gather(runs, values)
            for start, n in runs:
                trace_span(file, self.process, "write", start, n)
        else:
            decoded = spec.decode(raw)
            pos = 0
            for start, n in runs:
                yield file.write_records(start, decoded[pos : pos + n])
                trace_span(file, self.process, "write", start, n)
                pos += n
        self._advance(count)
        return count

    # -- buffered scanning --------------------------------------------------

    def stream(self, pool, depth: int = 1):
        """A read-ahead :class:`~repro.buffering.readahead.ReadStream` over
        this process's own blocks, in its access order.

        §4's "the order of accesses is predictable" applies to internal
        views too: a PS or IS process knows its whole block sequence up
        front, so read-ahead overlaps its I/O with its computation.
        """
        file = self.file
        blocks = [int(b) for b in self._blocks]
        return ReadStream(file.env, file.read_block, blocks, pool, depth=depth)

    # -- block-level cursor ------------------------------------------------------

    @cached_property
    def _blocks(self) -> np.ndarray:
        """Owned blocks in access order, built on first block-level use."""
        return self.view_map.blocks_of(self.process)

    @property
    def blocks_remaining(self) -> int:
        return len(self._blocks) - self._block_cursor

    def read_next_block(self):
        """Generator: ``(block, records)`` for the next owned block."""
        if self._block_cursor >= len(self._blocks):
            return None
        block = int(self._blocks[self._block_cursor])
        self._block_cursor += 1
        data = yield self.file.read_block(block)
        self.file.trace(self.process, "read", block, len(data))
        return block, data

    def write_next_block(self, values: np.ndarray):
        """Generator: write the next owned block; returns its index."""
        if self._block_cursor >= len(self._blocks):
            raise ExhaustedError(f"process {self.process} owns no more blocks")
        block = int(self._blocks[self._block_cursor])
        self._block_cursor += 1
        yield self.file.write_block(block, values)
        self.file.trace(self.process, "write", block, len(np.atleast_2d(values)))
        return block


class SSSession(SSSessionCore):
    """Shared state of one self-scheduled pass over an SS file.

    All participating processes obtain handles from the *same* session so
    they share the file pointer. ``pointer_cost`` is the simulated time to
    adjust the shared pointer inside the critical section; with
    ``early_advance=False`` the whole transfer also happens inside it
    (the naive implementation §4 warns "unduly serializ[es] access").
    """

    def __init__(
        self,
        file: "ParallelFile",
        early_advance: bool = True,
        pointer_cost: float = 1e-5,
    ):
        super().__init__(file)
        self.early_advance = early_advance
        self.pointer_cost = pointer_cost
        self._lock = SimLock(file.env)


class SSHandle(SSCore):
    """Type SS: each request gets the next block, whoever asks."""

    def read_next(self):
        """Generator: ``(block, records)`` or ``None`` when exhausted."""
        return self._next("read", None)

    def write_next(self, values: np.ndarray):
        """Generator: write the next block; returns its index or ``None``."""
        return self._next("write", values)

    def _next(self, op: str, values):
        sess = self.session
        yield sess._lock.acquire()
        try:
            if sess.pointer_cost > 0:
                yield self.file.env.sleep(sess.pointer_cost)
            block = sess.draw(self.process)
            if block is None:
                return None
            if not sess.early_advance:
                # naive implementation: the transfer completes inside the
                # critical section, serializing all SS access (§4's warning)
                return (yield from self._transfer(op, block, values))
        finally:
            sess._lock.release()
        # §4 optimization: the pointer was advanced (and the buffer
        # reserved) early, so this transfer overlaps the next process's call
        return (yield from self._transfer(op, block, values))

    def _transfer(self, op: str, block: int, values):
        if op == "read":
            data = yield self.file.read_block(block)
            self.file.trace(self.process, "read", block, len(data))
            return block, data
        _, count = self._block_span(block, values)
        yield self.file.write_block(block, values)
        self.file.trace(self.process, "write", block, count)
        return block


class DirectHandle(DirectCore):
    """Type GDA: positioned access to any record, optionally block-cached."""

    def __init__(
        self,
        file: "ParallelFile",
        process: int,
        cache_blocks: int = 0,
    ):
        super().__init__(file, process)
        #: the block cache (``cache_blocks > 0``), else None
        self.cache: BufferCache | None = None
        if cache_blocks > 0:
            self.cache = BufferCache(
                file.env,
                fetch=file.read_block,
                writeback=file.write_block,
                capacity_blocks=cache_blocks,
            )

    def read_record(self, record: int, count: int = 1):
        """Generator: ``count`` records starting at ``record``."""
        self._check(record, count)
        if self.cache is None:
            data = yield self.file.read_records(record, count)
            trace_span(self.file, self.process, "read", record, count)
            return data
        return (yield from self._cached_read(record, count))

    def write_record(self, record: int, values: np.ndarray):
        """Generator: write records starting at ``record``."""
        spec = self.file.attrs.record_spec
        raw = spec.encode(values)
        count = raw.size // spec.record_size
        self._check(record, count)
        if self.cache is None:
            yield self.file.write_records(record, values)
            trace_span(self.file, self.process, "write", record, count)
            return count
        return (yield from self._cached_write(record, raw, count))

    def flush(self):
        """Generator: write back any cached dirty blocks.

        With extent batching on (``pfs.volume.coalesce``), the whole dirty set
        goes down as one :meth:`~repro.fs.pfs.ParallelFile.write_gather`
        submission instead of one write per block.
        """
        if self.cache is not None:
            self.cache.writeback_many = (
                self._writeback_gather if self.file.pfs.volume.coalesce else None
            )
            yield from self.cache.flush()

    def _writeback_gather(self, blocks: list, datas: list):
        """Batched dirty write-back: one gather for all dirty blocks."""
        bs = self.file.attrs.block_spec
        runs = [
            (bs.first_record(b), len(data)) for b, data in zip(blocks, datas)
        ]
        values = np.concatenate(datas) if len(datas) > 1 else datas[0]
        return self.file.write_gather(runs, values)

    # -- cached paths --------------------------------------------------------

    def _cached_read(self, record: int, count: int):
        pieces = []
        for b, lo, hi in self.file.attrs.block_spec.pieces(record, count):
            data = yield from self.cache.read(b)
            pieces.append(data[lo:hi])
            self.file.trace(self.process, "read", b, hi - lo)
        return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]

    def _cached_write(self, record: int, raw: np.ndarray, count: int):
        decoded = self.file.attrs.record_spec.decode(raw)
        pos = 0
        for b, lo, hi in self.file.attrs.block_spec.pieces(record, count):
            data = (yield from self.cache.read(b)).copy()
            data[lo:hi] = decoded[pos : pos + hi - lo]
            yield from self.cache.write(b, data)
            self.file.trace(self.process, "write", b, hi - lo)
            pos += hi - lo
        return count


class OwnedDirectHandle(OwnedDirectCore, DirectHandle):
    """Type PDA: direct access restricted to the process's own blocks.

    ``sequential_within_block=True`` selects §3.2's restricted variant
    (see :class:`~repro.core.handles.OwnedDirectCore`).
    """

    def __init__(
        self,
        file: "ParallelFile",
        process: int,
        cache_blocks: int = 0,
        sequential_within_block: bool = False,
    ):
        super().__init__(file, process, cache_blocks)
        self._own(sequential_within_block)


#: the simulator's handle class for each organization
HANDLE_KINDS = {
    FileOrganization.S: SequentialHandle,
    FileOrganization.PS: PartitionHandle,
    FileOrganization.IS: PartitionHandle,
    FileOrganization.SS: SSHandle,
    FileOrganization.GDA: DirectHandle,
    FileOrganization.PDA: OwnedDirectHandle,
}
