"""Thread-safe live handles: the plain-call shells of the handle kinds.

Each kind's semantics — cursors, bounds, ownership, exhaustion — is
defined once in :mod:`repro.core.handles` and shared with the simulator's
generator handles (``repro.fs.internal_io``). The classes here execute its
intents with plain, non-generator calls that are safe from concurrent
``threading.Thread`` workers: positioned I/O goes through the file's
``os.pread``/``os.pwrite``, and the shared cursors (the global view's,
the self-scheduled session's) move under a real lock.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from ..core.handles import (
    DirectCore,
    GlobalViewCore,
    OwnedDirectCore,
    PartitionCore,
    SequentialCore,
    SSCore,
    SSSessionCore,
)
from ..core.organizations import FileOrganization

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


class LiveGlobalView(GlobalViewCore):
    """The conventional view: sequential cursor plus positioned access.

    Sequential calls hold the view's lock across the transfer, so
    concurrent threads append one after another.
    """

    def __init__(self, file: "LiveParallelFile"):
        super().__init__(file)
        self._lock = threading.Lock()

    def seek(self, record: int) -> None:
        """Move the sequential cursor (thread-safe)."""
        with self._lock:
            super().seek(record)

    def read(self, count: int | None = None) -> np.ndarray:
        """Read ``count`` records (default: to EOF) at the cursor."""
        with self._lock:
            start, count = self._read_span(count)
            if count <= 0:
                return self.file.attrs.record_spec.decode(b"")
            out = self.file.read_records(start, count)
            self._advance(count)
        return out

    def write(self, values: np.ndarray) -> int:
        """Write records at the cursor, advancing it past them."""
        with self._lock:
            count = self.file.write_records(self._cursor, values)
            self._advance(count)
        return count

    def read_at(self, record: int, count: int = 1) -> np.ndarray:
        """Positioned read; does not move the cursor."""
        return self.file.read_records(record, count)

    def write_at(self, record: int, values: np.ndarray) -> int:
        """Positioned write; does not move the cursor."""
        return self.file.write_records(record, values)


class LiveSequentialHandle(SequentialCore, LiveGlobalView):
    """Type S: the global view, held by the designated reader."""

    def read_next(self, count: int = 1) -> np.ndarray:
        """The next ``count`` records in global order (clipped at EOF)."""
        return self.read(count)

    def write_next(self, values: np.ndarray) -> int:
        """Write records at the sequential cursor."""
        return self.write(values)


class LivePartitionHandle(PartitionCore):
    """Types PS / IS: cursor over the process's own record sequence."""

    def read_next(self, count: int = 1) -> np.ndarray:
        """The next ``count`` of this process's records, in access order."""
        count, runs = self._read_runs(count)
        if count <= 0:
            return self.file.attrs.record_spec.decode(b"")
        pieces = [self.file.read_records(start, n) for start, n in runs]
        self._advance(count)
        return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]

    def write_next(self, values: np.ndarray) -> int:
        """Write the next records of this process's sequence."""
        spec = self.file.attrs.record_spec
        raw = spec.encode(values)
        count = raw.size // spec.record_size
        runs = self._write_runs(count)
        if len(runs) == 1:
            self.file.write_records(runs[0][0], values)
        else:
            decoded = spec.decode(raw)
            pos = 0
            for start, n in runs:
                self.file.write_records(start, decoded[pos : pos + n])
                pos += n
        self._advance(count)
        return count


class LiveSSSession(SSSessionCore):
    """Shared self-scheduling state whose counter moves under a lock."""

    def __init__(self, file: "LiveParallelFile"):
        super().__init__(file)
        self._lock = threading.Lock()

    def draw(self, process: int) -> int | None:
        """Atomically hand out the next block (None when exhausted)."""
        with self._lock:
            return super().draw(process)


class LiveSSHandle(SSCore):
    """Type SS: every call gets the next block, whichever thread asks."""

    def read_next(self):
        """``(block, records)`` for the next block, or None when exhausted."""
        block = self.session.draw(self.process)
        if block is None:
            return None
        return block, self.file.read_records(*self._block_span(block))

    def write_next(self, values: np.ndarray):
        """Write the next block; returns its index or None when exhausted."""
        block = self.session.draw(self.process)
        if block is None:
            return None
        first, _ = self._block_span(block, values)
        self.file.write_records(first, values)
        return block


class LiveDirectHandle(DirectCore):
    """Type GDA: positioned access to any record from any thread."""

    def read_record(self, record: int, count: int = 1) -> np.ndarray:
        """``count`` records starting at ``record``."""
        self._check(record, count)
        return self.file.read_records(record, count)

    def write_record(self, record: int, values: np.ndarray) -> int:
        """Write records starting at ``record``."""
        spec = self.file.attrs.record_spec
        self._check(record, spec.encode(values).size // spec.record_size)
        return self.file.write_records(record, values)


class LiveOwnedDirectHandle(OwnedDirectCore, LiveDirectHandle):
    """Type PDA: direct access restricted to owned blocks; see
    :class:`~repro.core.handles.OwnedDirectCore`."""

    def __init__(
        self,
        file: "LiveParallelFile",
        process: int,
        sequential_within_block: bool = False,
    ):
        super().__init__(file, process)
        self._own(sequential_within_block)


#: the live backend's handle class for each organization
HANDLE_KINDS = {
    FileOrganization.S: LiveSequentialHandle,
    FileOrganization.PS: LivePartitionHandle,
    FileOrganization.IS: LivePartitionHandle,
    FileOrganization.SS: LiveSSHandle,
    FileOrganization.GDA: LiveDirectHandle,
    FileOrganization.PDA: LiveOwnedDirectHandle,
}
