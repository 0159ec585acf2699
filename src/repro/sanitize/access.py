"""Parallel-access conflict detector for parallel files (§5, problem 2).

    "If two processes attempt to access the same byte range without
    synchronization, the outcome depends on the order of access."

The reproduction can *simulate* exactly the failure modes §5 names —
partition boundary overlap, internal-view mismatch — without anything
flagging them. :class:`AccessConflictDetector` is the missing oracle: it
records every per-process byte-range access (an interval index keyed by
file + epoch) as the fs layers report them, and derives findings:

* **write/write overlap** — two processes write intersecting byte ranges
  within one epoch;
* **read/write overlap** — a read and a write of intersecting ranges from
  different processes within one epoch (unsynchronized: nothing orders
  them but event timing);
* **partition-boundary violation** — a process of a statically
  partitioned file (S/PS/IS/PDA) touches a block owned by another
  process;
* **internal-view mismatch** — a file is opened through an internal view
  whose organization differs from the catalog organization (e.g. a PS
  file read as IS via ``alternate_view``).

An *epoch* is a synchronization generation: call :meth:`advance_epoch`
wherever the application executes a barrier or another full ordering
point; accesses in different epochs never conflict.

Attach by passing the detector to
``ParallelFileSystem(..., sanitizer=detector)`` — ``fs/pfs.py`` and the
handle layers forward every traced access. Render findings with
:func:`repro.trace.report.conflict_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.handles import GLOBAL_PROCESS
from ..core.organizations import FileOrganization

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.pfs import ParallelFile

__all__ = ["AccessRecord", "Finding", "AccessConflictDetector"]


@dataclass(frozen=True)
class AccessRecord:
    """One byte-range access by one process, in one epoch."""

    time: float
    file: str
    epoch: int
    process: int
    op: str
    lo: int  #: first byte touched (inclusive)
    hi: int  #: past-the-end byte
    block: int

    def overlaps(self, lo: int, hi: int) -> bool:
        """True iff [lo, hi) intersects this record's byte range."""
        return lo < self.hi and self.lo < hi


@dataclass(frozen=True)
class Finding:
    """One detected access conflict."""

    kind: str
    file: str
    detail: str
    time: float
    processes: tuple[int, ...]

    def row(self) -> str:
        """One formatted report line."""
        procs = ",".join(str(p) for p in self.processes)
        return (
            f"t={self.time:>12.6f}  {self.kind:<28s} {self.file:<16s} "
            f"procs=[{procs}] {self.detail}"
        )


class AccessConflictDetector:
    """Interval-index conflict detector over per-process file accesses."""

    def __init__(self) -> None:
        self.epoch = 0
        #: every access, in arrival order (the raw evidence)
        self.records: list[AccessRecord] = []
        self.findings: list[Finding] = []
        self._index: dict[tuple[str, int], list[AccessRecord]] = {}
        self._seen: set[tuple] = set()

    # -- epochs ---------------------------------------------------------------

    def advance_epoch(self) -> int:
        """Start a new synchronization epoch (call at barriers)."""
        self.epoch += 1
        return self.epoch

    # -- queries ----------------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True iff no finding has been recorded."""
        return not self.findings

    def findings_of(self, kind: str) -> list[Finding]:
        """All findings of one kind."""
        return [f for f in self.findings if f.kind == kind]

    def report(self) -> list[str]:
        """Formatted report rows (see also ``trace.report.conflict_report``)."""
        from ..trace.report import conflict_report

        return conflict_report(self)

    # -- hooks (called by the fs layers) -----------------------------------------

    def note_access(
        self,
        file: "ParallelFile",
        process: int,
        op: str,
        block: int,
        records: int,
        start: int | None = None,
    ) -> None:
        """Record one traced access and check it against the index.

        ``start`` is the first global record touched; when the caller only
        knows the block (block-granular ops), the whole block's record
        range is used — which is exact, since block ops transfer the whole
        block.
        """
        if records <= 0:
            return
        bs = file.attrs.block_spec
        rs = file.attrs.record_size
        if start is None:
            start = bs.first_record(block)
        record = AccessRecord(
            time=file.env.now,
            file=file.name,
            epoch=self.epoch,
            process=process,
            op=op,
            lo=start * rs,
            hi=(start + records) * rs,
            block=block,
        )
        self.records.append(record)
        self._check_boundary(file, record)
        self._check_overlap(record)
        self._index.setdefault((record.file, record.epoch), []).append(record)

    def note_view(
        self,
        file: "ParallelFile",
        process: int,
        view_org: FileOrganization,
    ) -> None:
        """Record the organization a handle presents; flag mismatches."""
        actual = file.attrs.organization
        if view_org is actual:
            return
        key = ("view-mismatch", file.name, process, view_org)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                kind="view-mismatch",
                file=file.name,
                detail=(
                    f"{actual.value} file opened with a {view_org.value} "
                    "internal view"
                ),
                time=file.env.now,
                processes=(process,),
            )
        )

    # -- checks -----------------------------------------------------------------

    def _check_boundary(self, file: "ParallelFile", rec: AccessRecord) -> None:
        """Flag accesses to blocks owned by a different process."""
        org_map = file.map
        if rec.process == GLOBAL_PROCESS or not org_map.is_static:
            return
        try:
            owner = org_map.owner_of_block(rec.block)
        except Exception:  # dynamic/unowned despite is_static claim
            return
        if owner == rec.process:
            return
        key = ("partition-boundary", rec.file, rec.epoch, rec.process, rec.block)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(
                kind="partition-boundary",
                file=rec.file,
                detail=(
                    f"{rec.op} of block {rec.block} owned by process "
                    f"{owner}"
                ),
                time=rec.time,
                processes=(rec.process, owner),
            )
        )

    def _check_overlap(self, rec: AccessRecord) -> None:
        """Flag same-epoch byte-range overlaps involving a write."""
        for prior in self._index.get((rec.file, rec.epoch), ()):
            if prior.process == rec.process:
                continue
            if not prior.overlaps(rec.lo, rec.hi):
                continue
            if prior.op != "write" and rec.op != "write":
                continue
            kind = (
                "write-write-overlap"
                if prior.op == "write" and rec.op == "write"
                else "read-write-overlap"
            )
            pair = tuple(sorted((prior.process, rec.process)))
            key = (kind, rec.file, rec.epoch, pair, rec.block)
            if key in self._seen:
                continue
            self._seen.add(key)
            lo, hi = max(prior.lo, rec.lo), min(prior.hi, rec.hi)
            self.findings.append(
                Finding(
                    kind=kind,
                    file=rec.file,
                    detail=(
                        f"bytes [{lo}, {hi}) touched by both processes in "
                        f"epoch {rec.epoch} without synchronization"
                    ),
                    time=rec.time,
                    processes=pair,
                )
            )
