"""The container writer: serial-equivalent sections over a parallel file.

A container lives *inside* one :class:`~repro.fs.pfs.ParallelFile` with
1-byte records: the container byte stream is the file's global record
stream, so every organization, layout, data plane (I/O nodes,
resilience, QoS) and access path the file system has composes with it
unchanged.

Serial equivalence falls out of three decisions:

* the full section plan is declared up front, so every header, payload
  and pad byte has a fixed offset (:func:`~repro.container.codec.plan_layout`)
  before any process writes anything;
* the physical shape of the file is pinned at create time by
  ``layout_processes`` (recorded in the self-description section) and
  never re-derived from the number of live writers — N writers *open*
  the same file with ``n_processes=N``, which moves only the access
  mapping, never the bytes;
* metadata (file header, section headers, pads) is written by the
  coordinating process, while array payloads go down the PR 6 paths —
  two-phase :class:`~repro.collective.CollectiveIO` writes or
  per-process :class:`~repro.datatype.ContiguousView` list-I/O — whose
  write sets are disjoint and cover the payload exactly.

Any N therefore produces the same media bytes as one serial writer, and
``sha256(media)`` is the equivalence oracle (benchmark X3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..collective import CollectiveIO, balanced_indices
from ..core.organizations import FileCategory, FileOrganization
from .codec import (
    ATTRS_SECTION_ID,
    INLINE_BYTES,
    ContainerLayout,
    SectionDecl,
    SectionExtent,
    block_section,
    encode_attrs_payload,
    encode_file_header,
    encode_section_header,
    pad_bytes,
    plan_layout,
    section_crc,
    write_section,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.pfs import ParallelFile, ParallelFileSystem

__all__ = [
    "ContainerWriter",
    "attrs_decl",
    "container_decls",
    "byte_rows",
    "fan_out",
    "payload_indices",
    "run_plan",
]


def attrs_decl() -> SectionDecl:
    """The reserved self-description section (JSON of the file attributes)."""
    from .codec import ATTRS_PAYLOAD_BYTES

    return block_section(ATTRS_SECTION_ID, ATTRS_PAYLOAD_BYTES)


def container_decls(user_sections: Sequence[SectionDecl]) -> list[SectionDecl]:
    """The full declaration list: the reserved attrs section, then the
    user's sections in order."""
    for d in user_sections:
        if d.section_id == ATTRS_SECTION_ID:
            raise ValueError(
                f"section id {ATTRS_SECTION_ID!r} is reserved for the "
                "self-description section"
            )
    return [attrs_decl(), *user_sections]


def byte_rows(raw: bytes | np.ndarray) -> np.ndarray:
    """Bytes as (n, 1) uint8 record rows for a 1-byte-record file."""
    arr = (
        np.frombuffer(raw, dtype=np.uint8)
        if isinstance(raw, (bytes, bytearray))
        else np.ascontiguousarray(raw, dtype=np.uint8).reshape(-1)
    )
    return arr.reshape(-1, 1)


def run_plan(file: "ParallelFile", plan):
    """Generator: execute a sans-I/O container plan on a simulated file.

    ``plan`` yields ``("read", offset, nbytes)`` intents, each answered
    with the bytes read, and ``("write", offset, data)`` intents over the
    container's 1-byte records (:func:`~repro.container.codec.walk_toc`,
    :func:`~repro.container.codec.read_section`, a dataset's sync plan).
    Returns the plan's value. When an I/O fails, the plan is closed before
    the error propagates, so its cleanup runs first.
    """
    reply = None
    try:
        while True:
            op, offset, arg = plan.send(reply)
            if op == "read":
                rows = yield file.read_records(offset, arg)
                reply = rows.tobytes()
            else:
                reply = yield file.write_records(offset, byte_rows(arg))
    except StopIteration as done:
        return done.value
    finally:
        plan.close()


class ContainerWriter:
    """Writes one container, section by declared section.

    All I/O methods are generators, driven with ``yield from`` inside a
    simulated process. Sections must be written in declaration order
    (their offsets are fixed by the plan); :meth:`begin` writes the file
    header and the self-description section first.
    """

    def __init__(
        self,
        file: "ParallelFile",
        layout: ContainerLayout,
        user_string: str = "",
    ):
        self.file = file
        self.layout = layout
        self.user_string = user_string
        self._next = 0          # index of the next expected section
        self._began = False

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        pfs: "ParallelFileSystem",
        name: str,
        sections: Sequence[SectionDecl],
        *,
        org: FileOrganization | str = "S",
        writers: int = 1,
        layout_processes: int = 1,
        user_string: str = "",
        records_per_block: int = 64,
        **create_kw: Any,
    ) -> "ContainerWriter":
        """Create the backing parallel file and a writer over it.

        ``layout_processes`` pins the file's physical shape (it is the
        ``n_processes`` the catalog and any clustered layout see);
        ``writers`` is how many processes will drive the array payloads
        and only affects the access mapping. Keeping the two independent
        is what makes N-writer output byte-identical to serial output.
        """
        if writers < 1:
            raise ValueError("writers must be >= 1")
        decls = container_decls(sections)
        layout = plan_layout(decls)
        pfs.create(
            name,
            org,
            n_records=layout.total_bytes,
            record_size=1,
            records_per_block=records_per_block,
            n_processes=layout_processes,
            dtype="uint8",
            category=FileCategory.STANDARD,
            **create_kw,
        )
        # reopen with the live writer count: same bytes, different mapping
        file = pfs.open(name, n_processes=writers)
        return cls(file, layout, user_string=user_string)

    @property
    def n_writers(self) -> int:
        return self.file.map.n_processes

    @property
    def done(self) -> bool:
        return self._began and self._next >= len(self.layout.sections)

    # -- the serial metadata path ------------------------------------------

    def begin(self):
        """Generator: write the file header and self-description section."""
        if self._began:
            raise RuntimeError("begin() already called")
        header = encode_file_header(
            self.user_string, len(self.layout.sections)
        )
        yield self.file.write_records(0, byte_rows(header))
        self._began = True
        payload = encode_attrs_payload(self.file.attrs.to_dict())
        yield from self._write_serial(self.layout.sections[0], payload)
        self._next = 1

    def _expect(self, kind: str, section_id: str) -> SectionExtent:
        if not self._began:
            raise RuntimeError("call begin() before writing sections")
        if self._next >= len(self.layout.sections):
            raise RuntimeError("all declared sections already written")
        ext = self.layout.sections[self._next]
        if ext.decl.section_id != section_id or ext.decl.kind != kind:
            raise ValueError(
                f"out-of-order write: expected section "
                f"{ext.decl.section_id!r} (kind {ext.decl.kind}), got "
                f"{section_id!r} (kind {kind}) — sections are written in "
                "declaration order"
            )
        return ext

    def _write_serial(self, ext: SectionExtent, payload: bytes):
        """Generator: header + payload + pad, one writer."""
        return run_plan(self.file, write_section(ext, payload))

    def write_inline(self, section_id: str, payload: bytes):
        """Generator: write an inline section (<= 32 bytes, space-padded)."""
        ext = self._expect("I", section_id)
        if len(payload) > INLINE_BYTES:
            raise ValueError(
                f"inline payload {len(payload)} bytes exceeds {INLINE_BYTES}"
            )
        yield from self._write_serial(ext, bytes(payload).ljust(INLINE_BYTES))
        self._next += 1

    def write_block(self, section_id: str, payload: bytes | np.ndarray):
        """Generator: write a block section (declared length required)."""
        ext = self._expect("B", section_id)
        raw = byte_rows(payload).tobytes()
        if len(raw) != ext.payload_len:
            raise ValueError(
                f"block {section_id!r} declared {ext.payload_len} bytes, "
                f"got {len(raw)}"
            )
        yield from self._write_serial(ext, raw)
        self._next += 1

    # -- the parallel array path -------------------------------------------

    def write_array(
        self,
        section_id: str,
        values: np.ndarray | bytes,
        *,
        mode: str = "collective",
        exchange_rate: float = 10e6,
        exchange_latency: float = 1e-4,
    ):
        """Generator: write an array section with the configured writers.

        ``values`` holds the full array (``count`` x ``elem_size`` bytes).
        The coordinating process writes the header and pad; the payload
        goes down one of the PR 6 parallel paths:

        * ``mode="collective"`` — a two-phase
          :class:`~repro.collective.CollectiveIO` write: static
          organizations partition the payload bytes by the organization
          map, dynamic ones (SS/GDA) by an explicit
          :func:`~repro.collective.balanced_indices` split;
        * ``mode="view"`` — one simulated process per writer, each
          writing its balanced contiguous domain through a
          :class:`~repro.datatype.ContiguousView` (list I/O);
        * ``mode="serial"`` — the coordinator writes the payload alone.

        All three leave identical media bytes; they differ only in
        simulated timing.
        """
        ext = self._expect("A", section_id)
        raw = byte_rows(values).reshape(-1)
        if raw.size != ext.payload_len:
            raise ValueError(
                f"array {section_id!r} declared "
                f"{ext.decl.count} x {ext.decl.elem_size} = "
                f"{ext.payload_len} bytes, got {raw.size}"
            )
        crc = section_crc(raw.tobytes(), ext.decl.count, ext.decl.elem_size)
        yield self.file.write_records(
            ext.header_off, byte_rows(encode_section_header(ext.decl, crc))
        )
        if raw.size:
            yield from self._write_payload(
                ext, raw, mode, exchange_rate, exchange_latency
            )
        yield self.file.write_records(
            ext.pad_off, byte_rows(pad_bytes(ext.payload_len))
        )
        self._next += 1

    def _write_payload(
        self,
        ext: SectionExtent,
        raw: np.ndarray,
        mode: str,
        exchange_rate: float,
        exchange_latency: float,
    ):
        off, nbytes = ext.payload_off, ext.payload_len
        p = self.n_writers
        if p == 1 or mode == "serial":
            yield self.file.write_records(off, raw.reshape(-1, 1))
            return
        if mode == "view":
            from ..datatype import ContiguousView

            def worker(lo: int, hi: int):
                view = ContiguousView(off + lo, hi - lo)
                yield self.file.write_view(raw[lo:hi].reshape(-1, 1), view)

            yield from fan_out(self.file.env, nbytes, p, worker)
            return
        if mode != "collective":
            raise ValueError(f"unknown array write mode {mode!r}")
        coll = CollectiveIO(
            self.file,
            exchange_rate,
            exchange_latency,
            allow_dynamic=not self.file.map.is_static,
        )
        indices = payload_indices(self.file, off, nbytes)
        per_process = {
            q: raw[indices[q] - off].reshape(-1, 1) for q in range(p)
        }
        yield from coll.write_at(
            off, nbytes, per_process,
            None if self.file.map.is_static else indices,
        )


def fan_out(env, nbytes: int, p: int, worker):
    """Generator: ``worker(lo, hi)`` as one simulated process per non-empty
    balanced share of ``[0, nbytes)`` among ``p`` processes; waits for all
    (the ``mode="view"`` payload paths)."""
    procs = [
        env.process(worker(int(idx[0]), int(idx[-1]) + 1))
        for idx in balanced_indices(0, nbytes, p).values()
        if len(idx)
    ]
    if procs:
        yield env.all_of(procs)


def payload_indices(
    file: "ParallelFile", off: int, nbytes: int
) -> dict[int, np.ndarray]:
    """Per-process byte ownership of ``[off, off + nbytes)``.

    Static organizations use the organization map (clipped to the
    payload); dynamic ones get a balanced contiguous split — the same
    rule readers apply, so writer and reader shares always agree.
    """
    m = file.map
    if not m.is_static:
        return balanced_indices(off, nbytes, m.n_processes)
    end = off + nbytes
    out: dict[int, np.ndarray] = {}
    for q in range(m.n_processes):
        recs = m.records_of(q)
        out[q] = recs[(recs >= off) & (recs < end)]
    return out
