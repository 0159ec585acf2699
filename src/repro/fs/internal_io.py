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

All I/O methods are generators, driven with ``yield from`` inside
simulated processes.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..buffering.cache import BufferCache
from ..core.errors import ExhaustedError, OrganizationError, OwnershipError
from ..core.mapping import (
    GlobalDirectMap,
    PartitionedDirectMap,
    SelfScheduledMap,
    SequentialMap,
)
from ..core.organizations import FileOrganization
from ..sim.sync import SimLock

if TYPE_CHECKING:  # pragma: no cover
    from .pfs import ParallelFile

__all__ = [
    "SequentialHandle",
    "PartitionHandle",
    "SSSession",
    "SSHandle",
    "DirectHandle",
    "OwnedDirectHandle",
    "make_internal_handle",
]


class _HandleBase:
    def __init__(
        self, file: "ParallelFile", process: int, n_processes: int | None = None
    ):
        bound = n_processes if n_processes is not None else file.map.n_processes
        if not 0 <= process < bound:
            raise OrganizationError(
                f"process {process} outside 0..{bound - 1}"
            )
        self.file = file
        self.process = process

    @property
    def env(self):
        return self.file.env

    def _trace_span(self, op: str, start_record: int, count: int) -> None:
        if not self.file.pfs._tracing:
            return
        bs = self.file.attrs.block_spec
        if count <= 0:
            return
        first = bs.block_of(start_record)
        last = bs.block_of(start_record + count - 1)
        for b in range(first, last + 1):
            lo = max(start_record, bs.first_record(b))
            hi = min(
                start_record + count,
                bs.first_record(b) + bs.records_per_block,
            )
            self.file.trace(self.process, op, b, hi - lo, start=lo)


class SequentialHandle(_HandleBase):
    """Type S: the designated reader scans the file in global order."""

    def __init__(self, file: "ParallelFile", process: int):
        super().__init__(file, process)
        m = file.map
        if not isinstance(m, SequentialMap):
            raise OrganizationError("SequentialHandle requires an S file")
        if process != m.reader:
            raise OrganizationError(
                f"S file {file.name!r} is accessed by process {m.reader}, "
                f"not {process}"
            )
        self._cursor = 0

    @property
    def eof(self) -> bool:
        return self._cursor >= self.file.n_records

    @property
    def position(self) -> int:
        return self._cursor

    def read_next(self, count: int = 1):
        """Generator: the next ``count`` records (clipped at EOF)."""
        count = min(count, self.file.n_records - self._cursor)
        if count <= 0:
            return self.file.attrs.record_spec.decode(b"")
        start = self._cursor
        data = yield self.file.read_records(start, count)
        self._cursor += count
        self._trace_span("read", start, count)
        return data

    def write_next(self, values: np.ndarray):
        """Generator: write records at the cursor."""
        raw = self.file.attrs.record_spec.encode(values)
        count = raw.size // self.file.attrs.record_size
        start = self._cursor
        yield self.file.write_records(start, values)
        self._cursor += count
        self._trace_span("write", start, count)
        return count


class PartitionHandle(_HandleBase):
    """Types PS and IS: a cursor over the process's own record sequence.

    ``org_map`` defaults to the file's own map; passing a different map
    yields an *alternate-view* handle (the §5 degraded software interface)
    — the desired sequence is honoured but executed against the file's
    actual physical layout, fragmenting into extra transfers.
    """

    def __init__(self, file: "ParallelFile", process: int, org_map=None):
        m = org_map if org_map is not None else file.map
        super().__init__(file, process, n_processes=m.n_processes)
        if not m.is_static:
            raise OrganizationError(
                "PartitionHandle requires a statically partitioned file"
            )
        if m.n_records != file.n_records:
            raise OrganizationError(
                "alternate-view map does not match the file's record count"
            )
        sanitizer = file.pfs.sanitizer
        if sanitizer is not None:
            sanitizer.note_view(file, process, m.org)
        self.view_map = m
        self._n_local = m.n_local_records(process)
        self._cursor = 0
        self._block_cursor = 0

    @property
    def n_local_records(self) -> int:
        return self._n_local

    @property
    def remaining(self) -> int:
        return self._n_local - self._cursor

    @property
    def eof(self) -> bool:
        return self._cursor >= self._n_local

    # -- record-level cursor --------------------------------------------------

    def read_next(self, count: int = 1):
        """Generator: the next ``count`` of this process's records.

        Contiguous global runs are fetched as single transfers; an IS
        partition therefore pays one transfer per touched block while a
        PS partition pays one per call.
        """
        count = min(count, self.remaining)
        if count <= 0:
            return self.file.attrs.record_spec.decode(b"")
        runs = self.view_map.runs(self.process, self._cursor, count)
        if len(runs) > 1 and self.file.pfs.batch_io:
            # list I/O: all runs down the data plane as one submission
            data = yield self.file.read_gather(runs)
            for start, n in runs:
                self._trace_span("read", start, n)
            self._cursor += count
            return data
        pieces = []
        for start, n in runs:
            data = yield self.file.read_records(start, n)
            self._trace_span("read", start, n)
            pieces.append(data)
        self._cursor += count
        return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]

    def write_next(self, values: np.ndarray):
        """Generator: write the next records of this process's sequence."""
        spec = self.file.attrs.record_spec
        raw = spec.encode(values)
        count = raw.size // spec.record_size
        if count > self.remaining:
            raise ExhaustedError(
                f"process {self.process} has {self.remaining} records left, "
                f"got {count}"
            )
        runs = self.view_map.runs(self.process, self._cursor, count)
        if len(runs) == 1:
            # one run: the caller's values go down as they are
            yield self.file.write_records(runs[0][0], values)
            self._trace_span("write", *runs[0])
        elif runs and self.file.pfs.batch_io:
            yield self.file.write_gather(runs, values)
            for start, n in runs:
                self._trace_span("write", start, n)
        else:
            decoded = spec.decode(raw)
            pos = 0
            for start, n in runs:
                yield self.file.write_records(start, decoded[pos : pos + n])
                self._trace_span("write", start, n)
                pos += n
        self._cursor += count
        return count

    # -- buffered scanning --------------------------------------------------

    def stream(self, pool, depth: int = 1):
        """A read-ahead :class:`~repro.buffering.readahead.ReadStream` over
        this process's own blocks, in its access order.

        §4's "the order of accesses is predictable" applies to internal
        views too: a PS or IS process knows its whole block sequence up
        front, so read-ahead overlaps its I/O with its computation.
        """
        from ..buffering.readahead import ReadStream

        file = self.file
        return ReadStream(
            file.env,
            lambda b: file.read_block(b),
            [int(b) for b in self._blocks],
            pool,
            depth=depth,
        )

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


class SSSession:
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
        if not isinstance(file.map, SelfScheduledMap):
            raise OrganizationError("SSSession requires an SS file")
        self.file = file
        self.early_advance = early_advance
        self.pointer_cost = pointer_cost
        self._lock = SimLock(file.env)
        self._next_block = 0
        #: blocks handed to each process, in hand-out order
        self.schedule: dict[int, list[int]] = {}

    @property
    def blocks_issued(self) -> int:
        return self._next_block

    @property
    def exhausted(self) -> bool:
        return self._next_block >= self.file.n_blocks

    def handle(self, process: int) -> "SSHandle":
        """A handle for ``process`` sharing this session's file pointer."""
        return SSHandle(self.file, process, self)

    def validate(self) -> None:
        """Assert the completed run covered every block exactly once."""
        self.file.map.validate_schedule(self.schedule)

    def _draw(self, process: int) -> int | None:
        if self._next_block >= self.file.n_blocks:
            return None
        block = self._next_block
        self._next_block += 1
        self.schedule.setdefault(process, []).append(block)
        return block


class SSHandle(_HandleBase):
    """Type SS: each request gets the next block, whoever asks."""

    def __init__(self, file: "ParallelFile", process: int, session: SSSession):
        super().__init__(file, process)
        if session.file is not file:
            raise OrganizationError("session belongs to a different file")
        self.session = session

    def read_next(self):
        """Generator: ``(block, records)`` or ``None`` when exhausted."""
        return (yield from self._next("read", None))

    def write_next(self, values: np.ndarray):
        """Generator: write the next block; returns its index or ``None``."""
        result = yield from self._next("write", values)
        if result is None:
            return None
        return result[0]

    def _next(self, op: str, values):
        sess = self.session
        yield sess._lock.acquire()
        block = None
        try:
            if sess.pointer_cost > 0:
                yield self.env.sleep(sess.pointer_cost)
            block = sess._draw(self.process)
            if block is not None and not sess.early_advance:
                # naive implementation: the transfer completes inside the
                # critical section, serializing all SS access (§4's warning)
                return (yield from self._transfer(op, block, values))
        finally:
            sess._lock.release()
        if block is None:
            return None
        # §4 optimization: the pointer was advanced (and the buffer
        # reserved) early, so this transfer overlaps the next process's call
        return (yield from self._transfer(op, block, values))

    def _transfer(self, op: str, block: int, values):
        if op == "read":
            data = yield self.file.read_block(block)
            self.file.trace(self.process, "read", block, len(data))
            return block, data
        expect = self.file.attrs.block_spec.block_records(
            block, self.file.n_records
        )
        arr = np.atleast_2d(np.asarray(values))
        if len(arr) != expect:
            raise ValueError(
                f"block {block} holds {expect} records, got {len(arr)}"
            )
        yield self.file.write_block(block, values)
        self.file.trace(self.process, "write", block, expect)
        return block, None


class DirectHandle(_HandleBase):
    """Type GDA: positioned access to any record, optionally block-cached."""

    def __init__(
        self,
        file: "ParallelFile",
        process: int,
        cache_blocks: int = 0,
    ):
        super().__init__(file, process)
        self._cache: BufferCache | None = None
        if cache_blocks > 0:
            self._cache = BufferCache(
                file.env,
                fetch=file.read_block,
                writeback=file.write_block,
                capacity_blocks=cache_blocks,
            )

    @property
    def cache(self) -> BufferCache | None:
        return self._cache

    def _check(self, record: int, count: int) -> None:
        if record < 0 or count < 1 or record + count > self.file.n_records:
            raise ValueError(
                f"records [{record}, {record + count}) outside file"
            )

    def read_record(self, record: int, count: int = 1):
        """Generator: ``count`` records starting at ``record``."""
        self._check(record, count)
        if self._cache is None:
            data = yield self.file.read_records(record, count)
            self._trace_span("read", record, count)
            return data
        return (yield from self._cached_read(record, count))

    def write_record(self, record: int, values: np.ndarray):
        """Generator: write records starting at ``record``."""
        raw = self.file.attrs.record_spec.encode(values)
        count = raw.size // self.file.attrs.record_size
        self._check(record, count)
        if self._cache is None:
            yield self.file.write_records(record, values)
            self._trace_span("write", record, count)
            return count
        return (yield from self._cached_write(record, raw, count))

    def flush(self):
        """Generator: write back any cached dirty blocks.

        With extent batching on (``pfs.batch_io``), the whole dirty set
        goes down as one :meth:`~repro.fs.pfs.ParallelFile.write_gather`
        submission instead of one write per block.
        """
        if self._cache is not None:
            self._cache.writeback_many = (
                self._writeback_gather if self.file.pfs.batch_io else None
            )
            yield from self._cache.flush()

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
        bs = self.file.attrs.block_spec
        pieces = []
        r = record
        end = record + count
        while r < end:
            b = bs.block_of(r)
            data = yield from self._cache.read(b)
            lo = r - bs.first_record(b)
            hi = min(end - bs.first_record(b), len(data))
            pieces.append(data[lo:hi])
            self.file.trace(self.process, "read", b, hi - lo)
            r = bs.first_record(b) + hi
        return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]

    def _cached_write(self, record: int, raw: np.ndarray, count: int):
        bs = self.file.attrs.block_spec
        decoded = self.file.attrs.record_spec.decode(raw)
        r = record
        end = record + count
        pos = 0
        while r < end:
            b = bs.block_of(r)
            data = yield from self._cache.read(b)
            data = data.copy()
            lo = r - bs.first_record(b)
            hi = min(end - bs.first_record(b), len(data))
            data[lo:hi] = decoded[pos : pos + (hi - lo)]
            yield from self._cache.write(b, data)
            self.file.trace(self.process, "write", b, hi - lo)
            pos += hi - lo
            r = bs.first_record(b) + hi
        return count


class OwnedDirectHandle(DirectHandle):
    """Type PDA: direct access restricted to the process's own blocks.

    ``sequential_within_block=True`` selects §3.2's restricted variant
    ("an equivalent organization which always accesses records
    sequentially within blocks"): blocks in any order, records within a
    block strictly ascending. Violations raise eagerly.
    """

    def __init__(
        self,
        file: "ParallelFile",
        process: int,
        cache_blocks: int = 0,
        sequential_within_block: bool = False,
    ):
        super().__init__(file, process, cache_blocks)
        if not isinstance(file.map, PartitionedDirectMap):
            raise OrganizationError("OwnedDirectHandle requires a PDA file")
        self._cursor = None
        if sequential_within_block:
            from ..core.access import SequentialWithinBlockCursor

            self._cursor = SequentialWithinBlockCursor(file.map, process)

    def _check(self, record: int, count: int) -> None:
        super()._check(record, count)
        m: PartitionedDirectMap = self.file.map  # type: ignore[assignment]
        for r in (record, record + count - 1):
            if not m.may_access(self.process, r):
                raise OwnershipError(
                    f"process {self.process} may not access record {r} "
                    f"(owner: {m.owner_of_record(r)})"
                )
        if self._cursor is not None:
            for r in range(record, record + count):
                self._cursor.admit(r)

    def reset_block(self, block: int) -> None:
        """Begin a fresh sequential pass over ``block`` (multi-pass PDA)."""
        if self._cursor is not None:
            self._cursor.reset_block(block)

    @property
    def owned_blocks(self) -> np.ndarray:
        return self.file.map.blocks_of(self.process)


def make_internal_handle(
    file: "ParallelFile",
    process: int,
    *,
    session: SSSession | None = None,
    cache_blocks: int = 0,
    sequential_within_block: bool = False,
):
    """Dispatch to the organization's handle type."""
    org = file.map.org
    if org is FileOrganization.S:
        return SequentialHandle(file, process)
    if org in (FileOrganization.PS, FileOrganization.IS):
        return PartitionHandle(file, process)
    if org is FileOrganization.SS:
        if session is None:
            raise OrganizationError(
                "SS files need a shared SSSession: create one with "
                "SSSession(file) and pass session=..."
            )
        return SSHandle(file, process, session)
    if org is FileOrganization.GDA:
        return DirectHandle(file, process, cache_blocks)
    if org is FileOrganization.PDA:
        return OwnedDirectHandle(
            file, process, cache_blocks,
            sequential_within_block=sequential_within_block,
        )
    raise OrganizationError(f"no handle for organization {org}")  # pragma: no cover
