"""Handle semantics, written once for both backends (§2–§3).

Which process may touch which records, where a cursor stands, when a
partition or a self-scheduled pass is exhausted: this module holds that
state for the global view and every handle kind, free of any backend.
Each kind's plain methods validate a request, return its I/O intent — a
``(start, count)`` span, a ``runs`` list from :meth:`OrganizationMap.runs`,
or a block — and advance on completion. A cursor advances only after its
transfer succeeded, so a failed request leaves the handle where it was.

The simulator's handles (:mod:`repro.fs.internal_io`,
:mod:`repro.fs.global_io`) subclass these kinds with generator methods
that ``yield`` the intents into the data plane; the live handles
(:mod:`repro.live.handles`) subclass them with plain calls to
``os.pread``/``os.pwrite``. Both backends' files inherit
:class:`RecordFile`, the one span check and org → handle dispatch.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .access import SequentialWithinBlockCursor
from .errors import ExhaustedError, OrganizationError, OwnershipError
from .mapping import PartitionedDirectMap, SelfScheduledMap, SequentialMap
from .organizations import FileOrganization

__all__ = [
    "GLOBAL_PROCESS",
    "RecordFile",
    "GlobalViewCore",
    "SequentialCore",
    "PartitionCore",
    "SSSessionCore",
    "SSCore",
    "DirectCore",
    "OwnedDirectCore",
]


#: the process id the global view is traced as: it belongs to no process
GLOBAL_PROCESS = -1


class RecordFile:
    """What both backends' open files share. Subclasses provide ``attrs``,
    ``map`` and ``handle_kinds`` (their handle class per organization)."""

    attrs: Any
    map: Any
    handle_kinds: dict

    @property
    def name(self) -> str:
        return self.attrs.name

    @property
    def n_records(self) -> int:
        return self.attrs.n_records

    @property
    def n_blocks(self) -> int:
        return self.attrs.n_blocks

    def _check_span(self, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > self.n_records:
            raise ValueError(
                f"records [{start}, {start + count}) outside file of "
                f"{self.n_records}"
            )

    def internal_view(self, process: int, *, session: Any = None, **options: Any):
        """The organization-specific handle for one process (§3).

        SS files need the ``session`` all participants share. Options go
        to the direct-access kinds: ``sequential_within_block`` (PDA) and
        the simulator's ``cache_blocks``.
        """
        org = self.map.org
        kind = self.handle_kinds[org]
        if org is FileOrganization.SS:
            if session is None:
                raise OrganizationError("SS files need a shared session: pass session=...")
            return kind(self, process, session)
        if org is FileOrganization.PDA:
            return kind(self, process, **options)
        options.pop("sequential_within_block", None)
        if org is FileOrganization.GDA:
            return kind(self, process, **options)
        return kind(self, process)


class _Handle:
    """A handle held by one of the file's processes."""

    def __init__(self, file: Any, process: int):
        file.map._check_process(process)
        self.file = file
        self.process = process


class _Cursor:
    """A position in an ordered sequence of ``_end`` records."""

    _cursor: int
    _end: int

    @property
    def position(self) -> int:
        return self._cursor

    @property
    def eof(self) -> bool:
        return self._cursor >= self._end

    def _read_span(self, count: int | None) -> tuple[int, int]:
        """``(start, count)`` of the next read of ``count`` records (default:
        all that are left), clipped at the end; a count <= 0 reads nothing."""
        left = self._end - self._cursor
        return self._cursor, left if count is None else min(count, left)

    def _advance(self, count: int) -> None:
        self._cursor += count


class GlobalViewCore(_Cursor):
    """§2's global view: the records in global order, a sequential cursor
    plus positioned access (which the file bounds-checks itself)."""

    process = GLOBAL_PROCESS

    def __init__(self, file: Any):
        self.file = file
        self._cursor = 0
        self._end = file.n_records

    def seek(self, record: int) -> None:
        """Move the sequential cursor to ``record`` (EOF position legal)."""
        if not 0 <= record <= self._end:
            raise ValueError(f"seek to {record} outside file")
        self._cursor = record


class SequentialCore(GlobalViewCore):
    """Type S (§3.1): the global view, held by the designated reader, who
    scans the file in global order."""

    def __init__(self, file: Any, process: int):
        super().__init__(file)
        m = file.map
        if not isinstance(m, SequentialMap):
            raise OrganizationError(f"{type(self).__name__} requires an S file")
        if process != m.reader:
            raise OrganizationError(
                f"S file {file.name!r} is accessed by process {m.reader}, "
                f"not {process}"
            )
        self.process = process


class PartitionCore(_Cursor):
    """Types PS and IS (§3.1): a cursor over the process's own records,
    each request's intent its ``runs`` list.

    ``org_map`` defaults to the file's own map; another map gives an
    *alternate-view* handle (the §5 degraded software interface): the
    desired sequence, executed against the file's actual layout.
    """

    def __init__(self, file: Any, process: int, org_map: Any = None):
        m = org_map if org_map is not None else file.map
        if not m.is_static:
            raise OrganizationError(
                f"{type(self).__name__} requires a statically partitioned file"
            )
        if m.n_records != file.n_records:
            raise OrganizationError(
                "alternate-view map does not match the file's record count"
            )
        self.file = file
        self.process = process
        self.view_map = m
        self._cursor = 0
        self._end = m.n_local_records(process)  # rejects a foreign process

    @property
    def n_local_records(self) -> int:
        return self._end

    @property
    def remaining(self) -> int:
        return self._end - self._cursor

    def _read_runs(self, count: int) -> tuple[int, list[tuple[int, int]]]:
        """``(count, runs)`` of the next read, clipped at the partition's
        end; a count <= 0 reads nothing."""
        count = min(count, self._end - self._cursor)
        if count <= 0:
            return count, []
        return count, self.view_map.runs(self.process, self._cursor, count)

    def _write_runs(self, count: int) -> list[tuple[int, int]]:
        """The runs of the next ``count`` records; :class:`ExhaustedError`
        past the partition's end."""
        left = self._end - self._cursor
        if count > left:
            raise ExhaustedError(
                f"process {self.process} has {left} records left, got {count}"
            )
        return self.view_map.runs(self.process, self._cursor, count)


class SSSessionCore:
    """Type SS's shared state (§3.1): a ticket counter handing each block
    out exactly once — "each request accesses a different record and no
    record gets skipped" — and the schedule it produced."""

    def __init__(self, file: Any):
        if not isinstance(file.map, SelfScheduledMap):
            raise OrganizationError(f"{type(self).__name__} requires an SS file")
        self.file = file
        self._next_block = 0
        #: blocks handed to each process, in hand-out order
        self.schedule: dict[int, list[int]] = {}

    @property
    def blocks_issued(self) -> int:
        return self._next_block

    @property
    def exhausted(self) -> bool:
        return self._next_block >= self.file.n_blocks

    def handle(self, process: int):
        """A handle for ``process`` sharing this session's pointer."""
        return self.file.internal_view(process, session=self)

    def draw(self, process: int) -> int | None:
        """Hand the next block to ``process``; ``None`` once exhausted."""
        if self._next_block >= self.file.n_blocks:
            return None
        block = self._next_block
        self._next_block += 1
        self.schedule.setdefault(process, []).append(block)
        return block

    def validate(self) -> None:
        """Assert the completed run covered every block exactly once."""
        self.file.map.validate_schedule(self.schedule)


class SSCore(_Handle):
    """Type SS: one process's handle on a shared session."""

    def __init__(self, file: Any, process: int, session: SSSessionCore):
        super().__init__(file, process)
        if session.file is not file:
            raise OrganizationError("session belongs to a different file")
        self.session = session

    def _block_span(self, block: int, values: Any = None) -> tuple[int, int]:
        """``(first record, count)`` of a drawn block; ``ValueError`` if
        ``values`` are given and are not exactly that many rows."""
        bs = self.file.attrs.block_spec
        count = bs.block_records(block, self.file.n_records)
        if values is not None:
            got = len(np.atleast_2d(np.asarray(values)))
            if got != count:
                raise ValueError(f"block {block} holds {count} records, got {got}")
        return bs.first_record(block), count


class DirectCore(_Handle):
    """Type GDA (§3.2): positioned access to any record, in any order."""

    def _check(self, record: int, count: int) -> None:
        if record < 0 or count < 1 or record + count > self.file.n_records:
            raise ValueError(f"records [{record}, {record + count}) outside file")


class OwnedDirectCore(DirectCore):
    """Type PDA (§3.2): direct access to the process's own blocks only —
    checked on every block a request touches, before any I/O.

    ``sequential_within_block`` adds §3.2's restricted variant ("an
    equivalent organization which always accesses records sequentially
    within blocks"): blocks in any order, records within a block strictly
    ascending.
    """

    _within: SequentialWithinBlockCursor | None = None

    def _own(self, sequential_within_block: bool) -> None:
        """Finish construction: require a PDA map, arm the §3.2 cursor."""
        if not isinstance(self.file.map, PartitionedDirectMap):
            raise OrganizationError(f"{type(self).__name__} requires a PDA file")
        if sequential_within_block:
            self._within = SequentialWithinBlockCursor(self.file.map, self.process)

    def _check(self, record: int, count: int) -> None:
        super()._check(record, count)
        m = self.file.map
        rpb = m.blocks.records_per_block
        for block in range(record // rpb, (record + count - 1) // rpb + 1):
            owner = m.owner_of_block(block)
            if owner != self.process:
                raise OwnershipError(
                    f"process {self.process} may not access record "
                    f"{max(record, block * rpb)} (owner: {owner})"
                )
        if self._within is not None:
            for r in range(record, record + count):
                self._within.admit(r)

    def reset_block(self, block: int) -> None:
        """Begin a fresh sequential pass over ``block`` (multi-pass PDA)."""
        if self._within is not None:
            self._within.reset_block(block)

    @property
    def owned_blocks(self) -> np.ndarray:
        return self.file.map.blocks_of(self.process)
