"""Thread-safe live handles mirroring the simulator's internal views.

The method surfaces intentionally parallel ``repro.fs.internal_io`` —
same organizations, same semantics — but these are plain (non-generator)
methods safe to call from concurrent ``threading.Thread`` workers:
positioned I/O goes through ``os.pread``/``os.pwrite`` and the
self-scheduled session hands out blocks under a real lock.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from ..core.errors import ExhaustedError, OrganizationError, OwnershipError
from ..core.mapping import PartitionedDirectMap, SequentialMap

if TYPE_CHECKING:  # pragma: no cover
    from .backend import LiveParallelFile

__all__ = [
    "LiveGlobalView",
    "LiveSequentialHandle",
    "LivePartitionHandle",
    "LiveSSSession",
    "LiveSSHandle",
    "LiveDirectHandle",
    "LiveOwnedDirectHandle",
]


class _LiveBase:
    def __init__(self, file: "LiveParallelFile", process: int, bound: int | None = None):
        limit = bound if bound is not None else file.map.n_processes
        if not 0 <= process < limit:
            raise OrganizationError(f"process {process} outside 0..{limit - 1}")
        self.file = file
        self.process = process

    # positioned raw I/O — one implementation, on the file itself ----------

    def _pread_records(self, start: int, count: int) -> np.ndarray:
        return self.file.read_records(start, count)

    def _pwrite_records(self, start: int, values: np.ndarray) -> int:
        return self.file.write_records(start, values)


class LiveGlobalView(_LiveBase):
    """The conventional view: sequential cursor plus positioned access."""

    def __init__(self, file: "LiveParallelFile"):
        super().__init__(file, 0, bound=1)
        self._cursor = 0
        self._lock = threading.Lock()

    @property
    def position(self) -> int:
        return self._cursor

    @property
    def eof(self) -> bool:
        return self._cursor >= self.file.n_records

    def seek(self, record: int) -> None:
        """Move the sequential cursor (thread-safe)."""
        if not 0 <= record <= self.file.n_records:
            raise ValueError(f"seek to {record} outside file")
        with self._lock:
            self._cursor = record

    def read(self, count: int | None = None) -> np.ndarray:
        """Read ``count`` records (default: to EOF) at the cursor."""
        with self._lock:
            if count is None:
                count = self.file.n_records - self._cursor
            count = min(count, self.file.n_records - self._cursor)
            start = self._cursor
            self._cursor += max(count, 0)
        if count <= 0:
            return self.file.attrs.record_spec.decode(b"")
        return self._pread_records(start, count)

    def write(self, values: np.ndarray) -> int:
        """Write records at the cursor, advancing it atomically."""
        spec = self.file.attrs.record_spec
        raw = spec.encode(values)
        count = raw.size // spec.record_size
        with self._lock:
            start = self._cursor
            self._cursor += count
        return self._pwrite_records(start, values)

    def read_at(self, record: int, count: int = 1) -> np.ndarray:
        """Positioned read; does not move the cursor."""
        if record < 0 or record + count > self.file.n_records:
            raise ValueError("read_at outside file")
        return self._pread_records(record, count)

    def write_at(self, record: int, values: np.ndarray) -> int:
        """Positioned write; does not move the cursor."""
        return self._pwrite_records(record, values)


class LiveSequentialHandle(_LiveBase):
    """Type S: the designated reader's sequential cursor."""

    def __init__(self, file: "LiveParallelFile", process: int):
        super().__init__(file, process)
        m = file.map
        if not isinstance(m, SequentialMap):
            raise OrganizationError("LiveSequentialHandle requires an S file")
        if process != m.reader:
            raise OrganizationError(
                f"S file is accessed by process {m.reader}, not {process}"
            )
        self._cursor = 0

    @property
    def eof(self) -> bool:
        return self._cursor >= self.file.n_records

    def read_next(self, count: int = 1) -> np.ndarray:
        """The next ``count`` records in global order (clipped at EOF)."""
        count = min(count, self.file.n_records - self._cursor)
        if count <= 0:
            return self.file.attrs.record_spec.decode(b"")
        out = self._pread_records(self._cursor, count)
        self._cursor += count
        return out

    def write_next(self, values: np.ndarray) -> int:
        """Write records at the sequential cursor."""
        n = self._pwrite_records(self._cursor, values)
        self._cursor += n
        return n


class LivePartitionHandle(_LiveBase):
    """Types PS / IS: cursor over the process's own record sequence."""

    def __init__(self, file: "LiveParallelFile", process: int):
        super().__init__(file, process)
        if not file.map.is_static:
            raise OrganizationError("partitioned handle needs a static map")
        self._n_local = file.map.n_local_records(process)
        self._cursor = 0

    @property
    def n_local_records(self) -> int:
        return self._n_local

    @property
    def remaining(self) -> int:
        return self._n_local - self._cursor

    @property
    def eof(self) -> bool:
        return self.remaining <= 0

    def read_next(self, count: int = 1) -> np.ndarray:
        """The next ``count`` of this process's records, in access order."""
        count = min(count, self.remaining)
        if count <= 0:
            return self.file.attrs.record_spec.decode(b"")
        pieces = [
            self._pread_records(start, n)
            for start, n in self.file.map.runs(self.process, self._cursor, count)
        ]
        self._cursor += count
        return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]

    def write_next(self, values: np.ndarray) -> int:
        """Write the next records of this process's sequence."""
        spec = self.file.attrs.record_spec
        raw = spec.encode(values)
        count = raw.size // spec.record_size
        if count > self.remaining:
            raise ExhaustedError(
                f"process {self.process} has {self.remaining} records left"
            )
        runs = self.file.map.runs(self.process, self._cursor, count)
        if len(runs) == 1:
            self._pwrite_records(runs[0][0], values)
        else:
            decoded = spec.decode(raw)
            pos = 0
            for start, n in runs:
                self._pwrite_records(start, decoded[pos : pos + n])
                pos += n
        self._cursor += count
        return count


class LiveSSSession:
    """Shared self-scheduling state: an atomic block counter + schedule."""

    def __init__(self, file: "LiveParallelFile"):
        self.file = file
        self._lock = threading.Lock()
        self._next = 0
        self.schedule: dict[int, list[int]] = {}

    def draw(self, process: int) -> int | None:
        """Atomically hand out the next block (None when exhausted)."""
        with self._lock:
            if self._next >= self.file.n_blocks:
                return None
            block = self._next
            self._next += 1
            self.schedule.setdefault(process, []).append(block)
            return block

    def handle(self, process: int) -> "LiveSSHandle":
        """A handle for ``process`` sharing this session's counter."""
        return LiveSSHandle(self.file, process, self)

    def validate(self) -> None:
        """Assert every block was handed out exactly once."""
        self.file.map.validate_schedule(self.schedule)


class LiveSSHandle(_LiveBase):
    """Type SS: every call gets the next block, whichever thread asks."""

    def __init__(self, file: "LiveParallelFile", process: int, session: LiveSSSession):
        super().__init__(file, process)
        if session.file is not file:
            raise OrganizationError("session belongs to a different file")
        self.session = session

    def read_next(self):
        """``(block, records)`` for the next block, or None when exhausted."""
        block = self.session.draw(self.process)
        if block is None:
            return None
        bs = self.file.attrs.block_spec
        first = bs.first_record(block)
        count = bs.block_records(block, self.file.n_records)
        return block, self._pread_records(first, count)

    def write_next(self, values: np.ndarray):
        """Write the next block; returns its index or None when exhausted."""
        block = self.session.draw(self.process)
        if block is None:
            return None
        bs = self.file.attrs.block_spec
        first = bs.first_record(block)
        expect = bs.block_records(block, self.file.n_records)
        arr = np.atleast_2d(np.asarray(values))
        if len(arr) != expect:
            raise ValueError(f"block {block} holds {expect} records")
        self._pwrite_records(first, values)
        return block


class LiveDirectHandle(_LiveBase):
    """Type GDA: positioned access to any record from any thread."""

    def _check(self, record: int, count: int) -> None:
        if record < 0 or count < 1 or record + count > self.file.n_records:
            raise ValueError(f"records [{record}, {record + count}) outside file")

    def read_record(self, record: int, count: int = 1) -> np.ndarray:
        """``count`` records starting at ``record``."""
        self._check(record, count)
        return self._pread_records(record, count)

    def write_record(self, record: int, values: np.ndarray) -> int:
        """Write records starting at ``record``."""
        spec = self.file.attrs.record_spec
        count = spec.encode(values).size // spec.record_size
        self._check(record, count)
        return self._pwrite_records(record, values)


class LiveOwnedDirectHandle(LiveDirectHandle):
    """Type PDA: direct access restricted to owned blocks.

    ``sequential_within_block=True`` selects §3.2's restricted variant,
    mirroring the simulator handle: blocks in any order, records within a
    block strictly ascending.
    """

    def __init__(
        self,
        file: "LiveParallelFile",
        process: int,
        sequential_within_block: bool = False,
    ):
        super().__init__(file, process)
        if not isinstance(file.map, PartitionedDirectMap):
            raise OrganizationError("LiveOwnedDirectHandle requires a PDA file")
        self._cursor = None
        if sequential_within_block:
            from ..core.access import SequentialWithinBlockCursor

            self._cursor = SequentialWithinBlockCursor(file.map, process)

    def reset_block(self, block: int) -> None:
        """Begin a fresh sequential pass over ``block``."""
        if self._cursor is not None:
            self._cursor.reset_block(block)

    def _check(self, record: int, count: int) -> None:
        super()._check(record, count)
        m: PartitionedDirectMap = self.file.map  # type: ignore[assignment]
        for r in (record, record + count - 1):
            if not m.may_access(self.process, r):
                raise OwnershipError(
                    f"process {self.process} may not access record {r}"
                )
        if self._cursor is not None:
            for r in range(record, record + count):
                self._cursor.admit(r)
