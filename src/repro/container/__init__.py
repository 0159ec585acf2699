"""``repro.container`` — a self-describing, serial-equivalent container
format over the simulated parallel file system.

The paper's "standard file" requirement, made executable: a container
written by N parallel processes is byte-for-byte the container one
serial writer produces, on every file organization, so files outlive
the partitioning that created them. Four layers:

* :mod:`~repro.container.codec` — pure byte codecs (headers, padding,
  checksums, layout planning); unit-testable without an engine.
* :mod:`~repro.container.writer` / :mod:`~repro.container.reader` —
  the simulated N-writer / M-reader APIs over ``ParallelFile`` views
  and collective I/O.
* :mod:`~repro.container.verify` — fsck: media scan, live-data-plane
  scan (degraded-mode aware), and the host-file CLI
  (``python -m repro.container``).
* :mod:`~repro.container.convert` — organization migration with the
  self-description kept honest.

See ``docs/FORMAT.md`` for the byte-level specification.
"""

from .codec import (
    ATTRS_SECTION_ID,
    ChecksumError,
    ContainerFormatError,
    ContainerLayout,
    FileHeader,
    SectionDecl,
    SectionExtent,
    array_section,
    block_section,
    inline_section,
    plan_layout,
)
from .convert import migrate_container
from .reader import ContainerReader
from .verify import ContainerReport, VerifyFinding, fsck, scan_bytes, scan_container
from .writer import ContainerWriter

__all__ = [
    "ATTRS_SECTION_ID",
    "ChecksumError",
    "ContainerFormatError",
    "ContainerLayout",
    "ContainerReader",
    "ContainerReport",
    "ContainerWriter",
    "FileHeader",
    "SectionDecl",
    "SectionExtent",
    "VerifyFinding",
    "array_section",
    "block_section",
    "fsck",
    "inline_section",
    "migrate_container",
    "plan_layout",
    "scan_bytes",
    "scan_container",
]
