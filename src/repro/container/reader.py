"""The container reader: self-describing open, checksummed section reads.

``ContainerReader.open`` needs nothing but the file name: the file
header gives the section count, walking the section headers rebuilds the
table of contents, and the reserved ``repro/attrs`` section carries the
backing file's own attributes (organization, layout, block size), so a
reader can introspect a container written by a different process count,
a different organization, or a migrated copy — M readers on a container
written by N writers is just ``pfs.open(name, n_processes=M)``.

Every read verifies the section CRC against the recomputed payload
checksum; a mismatch raises :class:`~repro.container.codec.ChecksumError`
(use :mod:`repro.container.verify` for a non-raising whole-file scan).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..collective import CollectiveIO
from .codec import (
    ATTRS_SECTION_ID,
    FILE_HEADER_BYTES,
    FileHeader,
    SectionExtent,
    decode_attrs_payload,
    read_section,
    verify_payload,
    walk_toc,
)
from .writer import fan_out, payload_indices, run_plan

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.pfs import ParallelFile, ParallelFileSystem

__all__ = ["ContainerReader"]


class ContainerReader:
    """Reads one container. Build with the :meth:`open` generator:

    .. code-block:: python

        reader = yield from ContainerReader.open(pfs, "run.cnt", readers=4)
        temps = yield from reader.read_array("state/temperature")

    ``toc`` maps section id to :class:`~repro.container.codec.SectionExtent`
    in file order; ``described_attrs`` is the decoded self-description.
    """

    def __init__(
        self,
        file: "ParallelFile",
        header: FileHeader,
        toc: dict[str, SectionExtent],
        crcs: dict[str, int],
        described_attrs: dict,
    ):
        self.file = file
        self.header = header
        self.toc = toc
        self.crcs = crcs
        self.described_attrs = described_attrs

    # -- construction -----------------------------------------------------

    @classmethod
    def open(cls, pfs: "ParallelFileSystem", name: str, *, readers: int = 1):
        """Generator: open ``name``, walk the headers, decode the
        self-description. Returns a ready :class:`ContainerReader`."""
        if readers < 1:
            raise ValueError("readers must be >= 1")
        file = pfs.open(name, n_processes=readers)
        header, toc, crcs = yield from run_plan(file, walk_toc(file.n_records))
        attrs = yield from run_plan(
            file, read_section(toc[ATTRS_SECTION_ID], crcs[ATTRS_SECTION_ID])
        )
        return cls(file, header, toc, crcs, decode_attrs_payload(attrs))

    # -- introspection -----------------------------------------------------

    @property
    def n_readers(self) -> int:
        return self.file.map.n_processes

    @property
    def section_ids(self) -> list[str]:
        return list(self.toc)

    def describe(self) -> dict:
        """The container at a glance (used by the verify CLI too)."""
        return {
            "user_string": self.header.user_string,
            "version": self.header.version,
            "sections": [
                {
                    "id": e.decl.section_id,
                    "kind": e.decl.kind,
                    "count": e.decl.count,
                    "elem_size": e.decl.elem_size,
                    "payload_off": e.payload_off,
                    "payload_len": e.payload_len,
                }
                for e in self.toc.values()
            ],
            "attrs": dict(self.described_attrs),
        }

    def _extent(self, section_id: str, kind: str | None = None) -> SectionExtent:
        try:
            ext = self.toc[section_id]
        except KeyError:
            raise KeyError(
                f"no section {section_id!r}; container has "
                f"{sorted(self.toc)}"
            ) from None
        if kind is not None and ext.decl.kind != kind:
            raise ValueError(
                f"section {section_id!r} has kind {ext.decl.kind}, "
                f"not {kind}"
            )
        return ext

    # -- reads -------------------------------------------------------------

    def _read_checked(self, section_id: str):
        """Generator: one section's checksum-verified payload bytes, read
        serially."""
        return run_plan(
            self.file, read_section(self.toc[section_id], self.crcs[section_id])
        )

    def read_inline(self, section_id: str):
        """Generator: the 32-byte inline payload, trailing spaces kept."""
        self._extent(section_id, "I")
        return self._read_checked(section_id)

    def read_block(self, section_id: str):
        """Generator: a block section's bytes."""
        self._extent(section_id, "B")
        return self._read_checked(section_id)

    def read_array(
        self,
        section_id: str,
        *,
        mode: str = "collective",
        exchange_rate: float = 10e6,
        exchange_latency: float = 1e-4,
    ):
        """Generator: an array section's payload bytes, checksum-verified.

        With one reader (or ``mode="serial"``) the payload is one
        contiguous read. With M readers, ``mode="collective"`` runs a
        two-phase :class:`~repro.collective.CollectiveIO` read where each
        reader pulls a balanced share, and ``mode="view"`` fans out M
        simulated processes over :class:`~repro.datatype.ContiguousView`
        domains. All modes return the identical full payload.
        """
        ext = self._extent(section_id, "A")
        off, nbytes = ext.payload_off, ext.payload_len
        p = self.n_readers
        if p == 1 or mode == "serial" or nbytes == 0:
            return (yield from self._read_checked(section_id))
        if mode == "view":
            payload = yield from self._read_view(off, nbytes, p)
        elif mode == "collective":
            payload = yield from self._read_collective(
                off, nbytes, p, exchange_rate, exchange_latency
            )
        else:
            raise ValueError(f"unknown array read mode {mode!r}")
        return verify_payload(ext, self.crcs[section_id], payload.tobytes())

    def _read_view(self, off: int, nbytes: int, p: int):
        from ..datatype import ContiguousView

        out = np.empty(nbytes, dtype=np.uint8)

        def worker(lo: int, hi: int):
            rows = yield self.file.read_view(ContiguousView(off + lo, hi - lo))
            out[lo:hi] = np.ascontiguousarray(rows, dtype=np.uint8).reshape(-1)

        yield from fan_out(self.file.env, nbytes, p, worker)
        return out

    def _read_collective(
        self,
        off: int,
        nbytes: int,
        p: int,
        exchange_rate: float,
        exchange_latency: float,
    ):
        coll = CollectiveIO(
            self.file,
            exchange_rate,
            exchange_latency,
            allow_dynamic=not self.file.map.is_static,
        )
        wanted = payload_indices(self.file, off, nbytes)
        if self.file.map.is_static:
            # map gaps inside the payload fall to process 0 so coverage
            # is exact (e.g. a SequentialMap's non-reader processes)
            covered = [w for w in wanted.values() if len(w)]
            missing = np.setdiff1d(
                np.arange(off, off + nbytes, dtype=np.int64),
                np.concatenate(covered) if covered else [],
            )
            if len(missing):
                wanted[0] = np.sort(np.concatenate([wanted[0], missing]))
        result = yield from coll.read_at(off, nbytes, wanted)
        out = np.empty(nbytes, dtype=np.uint8)
        for q, rows in result.items():
            if len(wanted[q]):
                out[wanted[q] - off] = np.ascontiguousarray(
                    rows, dtype=np.uint8
                ).reshape(-1)
        return out

    # -- convenience -------------------------------------------------------

    def expected_total_bytes(self) -> int:
        """File size implied by the table of contents (for verify)."""
        if not self.toc:
            return FILE_HEADER_BYTES
        return next(reversed(self.toc.values())).end
