"""Container migration: change the backing organization, keep the bytes.

A container's payload geometry is organization-independent (offsets come
from :func:`~repro.container.codec.plan_layout` alone), so migrating a
container between organizations is a byte copy —
:func:`repro.fs.convert.convert_file` through the global view — plus one
in-place rewrite of the reserved ``repro/attrs`` section so the
self-description matches the new backing file. The attrs payload is
fixed at 512 bytes precisely so this rewrite never moves an offset.

A PS-written container is therefore IS-readable (or S-, PDA-, …) after
``migrate_container``: every user section's bytes, checksums and
offsets are untouched, and :func:`repro.container.verify.scan_container`
stays clean across the move.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.organizations import FileOrganization
from ..fs.convert import convert_file
from .codec import (
    ATTRS_PAYLOAD_BYTES,
    ATTRS_SECTION_ID,
    FILE_HEADER_BYTES,
    block_section,
    encode_attrs_payload,
    encode_section_header,
    section_crc,
    write_at,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.pfs import ParallelFile, ParallelFileSystem

__all__ = ["migrate_container"]


def migrate_container(
    pfs: "ParallelFileSystem",
    src: "ParallelFile",
    new_name: str,
    dst_org: FileOrganization | str,
    *,
    n_processes: int | None = None,
    chunk_records: int = 4096,
    layout: str | None = None,
    **org_params: Any,
):
    """Generator: copy container ``src`` into organization ``dst_org``.

    Runs inside a simulated process. Returns the new
    :class:`~repro.fs.pfs.ParallelFile`; open it with
    :meth:`~repro.container.ContainerReader.open` as usual. Inherits
    :func:`~repro.fs.convert.convert_file`'s catalog-level atomicity: an
    interrupted migration leaves no half-written destination behind.
    """
    dst = yield from convert_file(
        pfs,
        src,
        new_name,
        dst_org,
        n_processes=n_processes,
        chunk_records=chunk_records,
        layout=layout,
        **org_params,
    )
    try:
        yield from _rewrite_attrs(dst)
    except BaseException:
        if pfs.exists(new_name):
            pfs.delete(new_name)
        raise
    return dst


def _rewrite_attrs(dst: "ParallelFile"):
    """Generator: refresh the self-description section of ``dst`` in place.

    The attrs section is always the first section (header at byte 128),
    with a fixed 512-byte payload; only its payload and header checksum
    change — every other byte of the container is already correct.
    """
    decl = block_section(ATTRS_SECTION_ID, ATTRS_PAYLOAD_BYTES)
    payload = encode_attrs_payload(dst.attrs.to_dict())
    crc = section_crc(payload, decl.count, decl.elem_size)
    header = encode_section_header(decl, crc)
    yield from dst.run_plan(write_at(FILE_HEADER_BYTES, header + payload))
