"""Organization maps: the arithmetic heart of each file organization.

An :class:`OrganizationMap` binds an organization to a concrete file shape
(record size, blocking, record count, process count) and answers the
questions every backend needs:

* which process owns which blocks (``owner_of_block``, ``blocks_of``);
* in what order a given process visits global records (``records_of``);
* which contiguous global runs a stretch of a process's local sequence
  covers (``runs``, ``n_local_records``) — what one handle request
  transfers;
* the bijection between a process's local record sequence and global
  record indices (``local_to_global`` / ``global_to_local``).

Both the simulated file system (`repro.fs`) and the live threaded backend
(`repro.live`) interpret these maps, so the semantics are defined once and
property-tested once (bijectivity, coverage, prefix ordering). S, PS and IS
answer ``runs`` and ``n_local_records`` in closed form, without building a
record array; the array-based versions on the base class are the generic
fallback and the reference those closed forms are tested against.

Dynamic organizations (SS) and unowned ones (GDA) expose the same surface
with the static parts disabled — see :attr:`OrganizationMap.is_static`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .blocks import BlockSpec
from .convert import contiguous_runs
from .errors import OrganizationError, OwnershipError, RecordRangeError
from .organizations import FileOrganization

__all__ = [
    "OrganizationMap",
    "SequentialMap",
    "PartitionedMap",
    "InterleavedMap",
    "SelfScheduledMap",
    "GlobalDirectMap",
    "PartitionedDirectMap",
    "make_map",
]


class OrganizationMap(ABC):
    """Shape-bound organization: who accesses what, in what order."""

    org: FileOrganization

    def __init__(self, blocks: BlockSpec, n_records: int, n_processes: int):
        if n_records < 0:
            raise OrganizationError("n_records must be >= 0")
        if n_processes < 1:
            raise OrganizationError("n_processes must be >= 1")
        self.blocks = blocks
        self.n_records = n_records
        self.n_processes = n_processes
        self._records_cache: dict[int, np.ndarray] = {}

    # -- shared geometry -----------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return self.blocks.n_blocks(self.n_records)

    @property
    def is_static(self) -> bool:
        """True when block ownership is fixed at creation (S, PS, IS, PDA)."""
        return True

    def _check_process(self, process: int) -> None:
        if not 0 <= process < self.n_processes:
            raise OrganizationError(
                f"process {process} outside 0..{self.n_processes - 1}"
            )

    def _check_record(self, record: int) -> None:
        if not 0 <= record < self.n_records:
            raise RecordRangeError(
                f"record {record} outside file of {self.n_records}"
            )

    # -- ownership -----------------------------------------------------------

    @abstractmethod
    def owner_of_block(self, block: int) -> int:
        """Process owning ``block`` (raises for dynamic/unowned organizations)."""

    def owner_of_record(self, record: int) -> int:
        """Process owning the block containing ``record``."""
        self._check_record(record)
        return self.owner_of_block(self.blocks.block_of(record))

    @abstractmethod
    def blocks_of(self, process: int) -> np.ndarray:
        """Blocks owned by ``process``, in its access order."""

    def records_of(self, process: int) -> np.ndarray:
        """Global record indices ``process`` accesses, in access order.

        Memoized (the result is immutable for a given map). Handles do not
        call this: they take each request's runs from :meth:`runs`.
        """
        cached = self._records_cache.get(process)
        if cached is not None:
            return cached
        self._check_process(process)
        chunks = []
        for b in self.blocks_of(process):
            count = self.blocks.block_records(int(b), self.n_records)
            start = self.blocks.first_record(int(b))
            chunks.append(np.arange(start, start + count, dtype=np.int64))
        result = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        result.setflags(write=False)
        self._records_cache[process] = result
        return result

    def n_local_records(self, process: int) -> int:
        """Number of records assigned to ``process``."""
        return int(sum(
            self.blocks.block_records(int(b), self.n_records)
            for b in self.blocks_of(process)
        ))

    def runs(self, process: int, local: int, count: int) -> list[tuple[int, int]]:
        """Global ``(start, count)`` runs of ``process``'s local records
        ``[local, local + count)``, clipped at its last record.

        Each run is one sequential transfer, in access order; a handle's
        cursor advance transfers exactly these. This generic form
        compresses a slice of :meth:`records_of`; S, PS and IS override it
        with arithmetic, and this version is their reference.
        """
        self._check_local(local, count)
        recs = self.records_of(process)
        return contiguous_runs(recs[local:local + count])

    @staticmethod
    def _check_local(local: int, count: int) -> None:
        if local < 0 or count < 0:
            raise RecordRangeError(f"invalid local span ({local}, {count})")

    # -- bijection -----------------------------------------------------------

    def local_to_global(self, process: int, local: int) -> int:
        """Global record index of the ``local``-th record ``process`` visits."""
        n = self.n_local_records(process)
        if not 0 <= local < n:
            raise RecordRangeError(
                f"local record {local} outside process {process}'s "
                f"{n} records"
            )
        return self.runs(process, local, 1)[0][0]

    def global_to_local(self, record: int) -> tuple[int, int]:
        """``(process, local index)`` for a global ``record``."""
        self._check_record(record)
        p = self.owner_of_record(record)
        recs = self.records_of(p)
        local = int(np.searchsorted(recs, record))
        if local >= len(recs) or recs[local] != record:
            raise OwnershipError(
                f"record {record} not in process {p}'s sequence"
            )  # pragma: no cover - defensive
        return p, local

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} org={self.org} records={self.n_records} "
            f"blocks={self.n_blocks} processes={self.n_processes}>"
        )


class SequentialMap(OrganizationMap):
    """Type S (Fig. 1a): one process, whole file, sequential order.

    ``n_processes`` may exceed 1 (the program is parallel) but only the
    designated ``reader`` process performs I/O.
    """

    org = FileOrganization.S

    def __init__(
        self,
        blocks: BlockSpec,
        n_records: int,
        n_processes: int = 1,
        reader: int = 0,
    ):
        super().__init__(blocks, n_records, n_processes)
        if not 0 <= reader < n_processes:
            raise OrganizationError(f"reader {reader} outside process range")
        self.reader = reader

    def owner_of_block(self, block: int) -> int:
        if not 0 <= block < max(self.n_blocks, 1):
            raise RecordRangeError(f"block {block} outside file")
        return self.reader

    def blocks_of(self, process: int) -> np.ndarray:
        self._check_process(process)
        if process != self.reader:
            return np.empty(0, dtype=np.int64)
        return np.arange(self.n_blocks, dtype=np.int64)

    def n_local_records(self, process: int) -> int:
        self._check_process(process)
        return self.n_records if process == self.reader else 0

    def runs(self, process: int, local: int, count: int) -> list[tuple[int, int]]:
        self._check_local(local, count)
        stop = min(local + count, self.n_local_records(process))
        return [(local, stop - local)] if stop > local else []


class PartitionedMap(OrganizationMap):
    """Type PS (Fig. 1b): contiguous block ranges, one partition per process.

    Blocks are divided contiguously and as evenly as possible: with
    ``n_blocks = q*P + r``, the first ``r`` processes receive ``q+1``
    blocks each and the rest receive ``q``.
    """

    org = FileOrganization.PS

    def __init__(self, blocks: BlockSpec, n_records: int, n_processes: int):
        super().__init__(blocks, n_records, n_processes)
        self._q, self._r = divmod(self.n_blocks, self.n_processes)

    def partition_range(self, process: int) -> tuple[int, int]:
        """Half-open block range ``[first, last)`` of ``process``."""
        self._check_process(process)
        q, r = self._q, self._r
        first = process * q + min(process, r)
        return first, first + q + (process < r)

    def owner_of_block(self, block: int) -> int:
        if not 0 <= block < self.n_blocks:
            raise RecordRangeError(f"block {block} outside file")
        q, r = self._q, self._r
        big = r * (q + 1)  # blocks held by the first r processes, q + 1 each
        if block < big:
            return block // (q + 1)
        return r + (block - big) // q

    def blocks_of(self, process: int) -> np.ndarray:
        lo, hi = self.partition_range(process)
        return np.arange(lo, hi, dtype=np.int64)

    def _record_span(self, process: int) -> tuple[int, int]:
        """``(first record, record count)`` of ``process``'s partition."""
        lo, hi = self.partition_range(process)
        if lo == hi:  # more processes than blocks: an empty partition
            return 0, 0
        rpb = self.blocks.records_per_block
        return lo * rpb, min(hi * rpb, self.n_records) - lo * rpb

    def n_local_records(self, process: int) -> int:
        return self._record_span(process)[1]

    def runs(self, process: int, local: int, count: int) -> list[tuple[int, int]]:
        self._check_local(local, count)
        first, n = self._record_span(process)
        stop = min(local + count, n)
        return [(first + local, stop - local)] if stop > local else []


class InterleavedMap(OrganizationMap):
    """Type IS (Fig. 1c): block ``b`` belongs to process ``b mod stride``.

    The stride "would typically be the number of processes accessing the
    file" (§3.1) and that is the default; a larger stride leaves trailing
    residue classes unowned, which the constructor rejects.
    """

    org = FileOrganization.IS

    def __init__(
        self,
        blocks: BlockSpec,
        n_records: int,
        n_processes: int,
        stride: int | None = None,
    ):
        super().__init__(blocks, n_records, n_processes)
        self.stride = n_processes if stride is None else stride
        if self.stride < n_processes:
            raise OrganizationError(
                f"stride {self.stride} < n_processes {n_processes}: "
                "processes would collide on residue classes"
            )
        if self.stride > n_processes:
            raise OrganizationError(
                f"stride {self.stride} > n_processes {n_processes}: "
                "some residue classes would be orphaned"
            )

    def owner_of_block(self, block: int) -> int:
        if not 0 <= block < self.n_blocks:
            raise RecordRangeError(f"block {block} outside file")
        return block % self.stride

    def blocks_of(self, process: int) -> np.ndarray:
        self._check_process(process)
        return np.arange(process, self.n_blocks, self.stride, dtype=np.int64)

    def n_local_records(self, process: int) -> int:
        self._check_process(process)
        nb, stride = self.n_blocks, self.stride
        owned = len(range(process, nb, stride))
        n = owned * self.blocks.records_per_block
        if owned and (nb - 1) % stride == process:
            n -= nb * self.blocks.records_per_block - self.n_records  # short last block
        return n

    def runs(self, process: int, local: int, count: int) -> list[tuple[int, int]]:
        self._check_local(local, count)
        stop = min(local + count, self.n_local_records(process))
        if stop <= local:
            return []
        if self.stride == 1:  # one process: its blocks abut
            return [(local, stop - local)]
        rpb, stride = self.blocks.records_per_block, self.stride
        k, slot = divmod(local, rpb)  # k-th owned block, position within it
        out = []
        while local < stop:
            take = min(rpb - slot, stop - local)
            out.append(((process + k * stride) * rpb + slot, take))
            local += take
            k += 1
            slot = 0
        return out


class SelfScheduledMap(OrganizationMap):
    """Type SS (Fig. 1d): the next request gets the next block.

    Ownership does not exist statically; the runtime draws tickets from a
    shared counter (guarded by a `repro.sim.sync.SimLock` in the simulator,
    an atomic integer in the live backend). The map still provides the block
    arithmetic and validates completed schedules: each block handed out
    exactly once, none skipped.

    "This organization makes most sense when there is a single record per
    block, but self-scheduling by block for multi-record blocks could be
    provided if needed." — both are supported via ``records_per_block``.
    """

    org = FileOrganization.SS

    @property
    def is_static(self) -> bool:
        return False

    def owner_of_block(self, block: int) -> int:
        raise OrganizationError(
            "SS files have no static block ownership; access order is "
            "determined by request order at run time"
        )

    def blocks_of(self, process: int) -> np.ndarray:
        raise OrganizationError(
            "SS files have no static per-process block list"
        )

    def validate_schedule(self, schedule: dict[int, list[int]]) -> None:
        """Check a completed run's ``{process: [blocks]}`` assignment.

        Raises :class:`OrganizationError` unless every block was handed
        out exactly once (the §3.1 guarantee: "each request accesses a
        different record and no record gets skipped").
        """
        seen: list[int] = []
        for p, blist in schedule.items():
            self._check_process(p)
            seen.extend(int(b) for b in blist)
        if sorted(seen) != list(range(self.n_blocks)):
            raise OrganizationError(
                f"self-scheduled run covered blocks {sorted(seen)}, "
                f"expected exactly 0..{self.n_blocks - 1}"
            )


class GlobalDirectMap(OrganizationMap):
    """Type GDA: any process, any record, any order ("the most general case")."""

    org = FileOrganization.GDA

    @property
    def is_static(self) -> bool:
        return False

    def owner_of_block(self, block: int) -> int:
        raise OrganizationError("GDA files have no block ownership")

    def blocks_of(self, process: int) -> np.ndarray:
        raise OrganizationError("GDA files have no per-process block list")


class PartitionedDirectMap(OrganizationMap):
    """Type PDA: blocks assigned to processes; random access within blocks.

    "Blocks can be thought of as pages of virtual memory ... Direct access
    versions of the PS and IS partitionings would be supported by the PDA
    format as well" (§3.2) — so the block assignment is delegated to an
    underlying PS- or IS-style map chosen with ``assignment``.
    """

    org = FileOrganization.PDA

    def __init__(
        self,
        blocks: BlockSpec,
        n_records: int,
        n_processes: int,
        assignment: str = "contiguous",
    ):
        super().__init__(blocks, n_records, n_processes)
        if assignment == "contiguous":
            self._base: OrganizationMap = PartitionedMap(
                blocks, n_records, n_processes
            )
        elif assignment == "interleaved":
            self._base = InterleavedMap(blocks, n_records, n_processes)
        else:
            raise OrganizationError(
                f"unknown PDA assignment {assignment!r}; "
                "use 'contiguous' or 'interleaved'"
            )
        self.assignment = assignment

    def owner_of_block(self, block: int) -> int:
        return self._base.owner_of_block(block)

    def blocks_of(self, process: int) -> np.ndarray:
        return self._base.blocks_of(process)

    def n_local_records(self, process: int) -> int:
        return self._base.n_local_records(process)

    def runs(self, process: int, local: int, count: int) -> list[tuple[int, int]]:
        return self._base.runs(process, local, count)


_MAKERS = {
    FileOrganization.S: SequentialMap,
    FileOrganization.PS: PartitionedMap,
    FileOrganization.IS: InterleavedMap,
    FileOrganization.SS: SelfScheduledMap,
    FileOrganization.GDA: GlobalDirectMap,
    FileOrganization.PDA: PartitionedDirectMap,
}


def make_map(
    org: FileOrganization | str,
    blocks: BlockSpec,
    n_records: int,
    n_processes: int,
    **params,
) -> OrganizationMap:
    """Construct the map for ``org`` (accepts the enum or 'PS'-style codes)."""
    if isinstance(org, str):
        try:
            org = FileOrganization[org.upper()]
        except KeyError:
            raise OrganizationError(f"unknown organization {org!r}") from None
    return _MAKERS[org](blocks, n_records, n_processes, **params)
