"""fsck for containers: structural scan, checksum recomputation, CLI.

Three entry points at three layers:

* :func:`scan_bytes` — pure function over a byte string. Walks the file
  header, every section header, payload and pad, recomputes every
  checksum, and returns a :class:`ContainerReport` of structured
  findings (it never raises on corrupt input — corruption is the
  expected input here).
* :func:`scan_container` — zero-time media scan of a simulated
  container via ``volume.peek``: the byte-level truth, unaffected by
  caches, resilience, or degraded devices.
* :func:`fsck` — a simulated process that reads the container through
  the live data plane (I/O nodes, resilience, QoS — whatever is
  attached). On a file system with a resilience layer this is the
  degraded-mode check: with a failed device, fsck's reads run through
  parity reconstruction, and the report records how much of the scan
  was served degraded.

``python -m repro.container <file>`` runs :func:`scan_bytes`
over a host file (e.g. a committed fixture) and exits nonzero when the
report has findings — CI keeps one good and one corrupt fixture and
asserts both behaviours.

Findings interoperate with the sanitizer:
:meth:`ContainerReport.to_sanitize_findings` converts to
:class:`repro.sanitize.Finding` rows so container damage shows up in
the same report stream as access conflicts
(:func:`repro.trace.report.container_report` renders either form).
"""

from __future__ import annotations

import sys
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .codec import (
    FILE_HEADER_BYTES,
    MAGIC,
    SECTION_HEADER_BYTES,
    ContainerFormatError,
    SectionExtent,
    _dec_crc,
    _dec_int,
    decode_section_header,
    pad_bytes,
    section_crc,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.pfs import ParallelFile

__all__ = [
    "VerifyFinding",
    "ContainerReport",
    "scan_bytes",
    "scan_container",
    "fsck",
    "cross_check",
    "main",
]

#: finding kinds, roughly ordered from "not a container" to "cosmetic"
KIND_BAD_MAGIC = "bad-magic"
KIND_BAD_VERSION = "bad-version"
KIND_HEADER_CHECKSUM = "header-checksum"
KIND_BAD_HEADER = "bad-file-header"
KIND_BAD_SECTION_HEADER = "bad-section-header"
KIND_SECTION_CHECKSUM = "section-checksum"
KIND_BAD_PADDING = "bad-padding"
KIND_TRUNCATED = "truncated"
KIND_TRAILING = "trailing-bytes"
#: catalog-vs-media cross-check kinds (see :func:`cross_check`)
KIND_CATALOG_SIZE = "catalog-size-mismatch"
KIND_CATALOG_BOUNDS = "catalog-extent-bounds"
KIND_CATALOG_OVERLAP = "catalog-extent-overlap"
KIND_CATALOG_REGISTRY = "catalog-registry-mismatch"
#: dataset self-description kinds (see :func:`_check_dataset_sections`)
KIND_DATASET_SCHEMA = "dataset-bad-schema"
KIND_DATASET_MISSING = "dataset-missing-variable"
KIND_DATASET_SHAPE = "dataset-variable-shape"
KIND_DATASET_ORPHAN = "dataset-orphan-variable"


@dataclass(frozen=True)
class VerifyFinding:
    """One defect located in the container byte stream."""

    kind: str
    section: str        #: section id, or "" for file-level findings
    offset: int         #: byte offset of the damaged region
    detail: str

    def row(self) -> str:
        """One formatted report line."""
        where = self.section or "<file>"
        return f"@{self.offset:>10d}  {self.kind:<20s} {where:<24s} {self.detail}"


@dataclass
class ContainerReport:
    """What a scan saw: the sections it could map and the defects found."""

    name: str
    total_bytes: int
    findings: list[VerifyFinding] = field(default_factory=list)
    #: sections whose headers parsed (even if their payloads failed)
    sections: list[SectionExtent] = field(default_factory=list)
    #: ids of sections whose payload checksums verified
    verified: list[str] = field(default_factory=list)
    #: resilience counter deltas over the scan (fsck only)
    resilience: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_sanitize_findings(self, time: float = 0.0):
        """Container defects as sanitizer findings, one per defect."""
        from ..sanitize import Finding

        return [
            Finding(
                kind=f"container-{f.kind}",
                file=self.name,
                detail=(
                    f"[{f.section or 'file'}] @byte {f.offset}: {f.detail}"
                ),
                time=time,
                processes=(),
            )
            for f in self.findings
        ]


def _note(report: ContainerReport, kind: str, section: str, offset: int,
          detail: str) -> None:
    report.findings.append(VerifyFinding(kind, section, offset, detail))


def scan_bytes(buf: bytes, name: str = "<bytes>") -> ContainerReport:
    """Walk ``buf`` as a container and report every defect found.

    Never raises on damaged input; structural damage that makes later
    sections unmappable stops the walk with a finding explaining why.
    """
    buf = bytes(buf)
    report = ContainerReport(name=name, total_bytes=len(buf))

    # -- file header, field by field so one defect doesn't mask the rest
    if len(buf) < FILE_HEADER_BYTES:
        _note(report, KIND_TRUNCATED, "", len(buf),
              f"file header needs {FILE_HEADER_BYTES} bytes, have {len(buf)}")
        return report
    hdr = buf[:FILE_HEADER_BYTES]
    if hdr[:16] != MAGIC:
        _note(report, KIND_BAD_MAGIC, "", 0, f"magic is {hdr[:16]!r}")
        return report  # not a container: nothing else is trustworthy
    version = hdr[16:24].decode("ascii", errors="replace").strip()
    if not version.startswith("01."):
        _note(report, KIND_BAD_VERSION, "", 16,
              f"unsupported version {version!r}")
    try:
        stored = _dec_crc(hdr[100:108], "file header")
    except ContainerFormatError as exc:
        stored = None
        _note(report, KIND_BAD_HEADER, "", 100, str(exc))
    actual = zlib.crc32(hdr[:100]) & 0xFFFFFFFF
    if stored is not None and stored != actual:
        _note(report, KIND_HEADER_CHECKSUM, "", 100,
              f"stored {stored:08x}, computed {actual:08x}")
    if hdr[87:88] != b"\n" or hdr[127:128] != b"\n":
        _note(report, KIND_BAD_HEADER, "", 87,
              "header field terminators damaged")
    try:
        section_count = _dec_int(hdr[88:100], "section count")
    except ContainerFormatError as exc:
        _note(report, KIND_BAD_HEADER, "", 88, str(exc))
        return report  # cannot walk sections without a count

    # -- section walk
    off = FILE_HEADER_BYTES
    for i in range(section_count):
        if off + SECTION_HEADER_BYTES > len(buf):
            _note(report, KIND_TRUNCATED, "", off,
                  f"section {i}: header runs past end of file")
            return report
        try:
            shdr = decode_section_header(buf[off:off + SECTION_HEADER_BYTES])
        except ContainerFormatError as exc:
            _note(report, KIND_BAD_SECTION_HEADER, "", off,
                  f"section {i}: {exc}")
            return report  # cannot size the payload: walk ends here
        ext = SectionExtent(decl=shdr.decl, header_off=off)
        report.sections.append(ext)
        sid = shdr.decl.section_id
        if ext.end > len(buf):
            _note(report, KIND_TRUNCATED, sid, ext.payload_off,
                  f"payload + pad need {ext.end - off} bytes from {off}, "
                  f"file ends at {len(buf)}")
            return report
        payload = buf[ext.payload_off:ext.pad_off]
        got = section_crc(payload, shdr.decl.count, shdr.decl.elem_size)
        if got != shdr.crc:
            _note(report, KIND_SECTION_CHECKSUM, sid, ext.payload_off,
                  f"stored {shdr.crc:08x}, computed {got:08x} over "
                  f"{len(payload)} payload bytes")
        else:
            report.verified.append(sid)
        if buf[ext.pad_off:ext.end] != pad_bytes(ext.payload_len):
            _note(report, KIND_BAD_PADDING, sid, ext.pad_off,
                  f"{ext.pad_len}-byte pad is not spaces + newline")
        off = ext.end

    if off < len(buf):
        _note(report, KIND_TRAILING, "", off,
              f"{len(buf) - off} bytes past the last section")

    _check_dataset_sections(report, buf)
    return report


def _check_dataset_sections(report: ContainerReport, buf: bytes) -> None:
    """Dataset self-description consistency (containers that carry a
    ``repro/dataset`` schema section).

    Cross-checks the parsed schema against the mapped sections: every
    declared variable needs a ``var/<name>`` section whose element count
    and size match the schema's dimensions and dtype
    (``dataset-missing-variable`` / ``dataset-variable-shape``), every
    ``var/*`` section must be declared (``dataset-orphan-variable``),
    and an unparseable schema payload is ``dataset-bad-schema``. Only a
    *verified* schema section is parsed: a corrupt payload already has a
    checksum finding, and garbage JSON would just duplicate it.
    """
    # lazy import: repro.dataset imports this package back
    from ..dataset.core import DATASET_SECTION_ID, VAR_PREFIX
    from ..dataset.model import DatasetSchema

    toc = {e.decl.section_id: e for e in report.sections}
    ext = toc.get(DATASET_SECTION_ID)
    var_sections = {
        sid: e for sid, e in toc.items() if sid.startswith(VAR_PREFIX)
    }
    if ext is None:
        if var_sections:
            for sid, e in var_sections.items():
                _note(report, KIND_DATASET_ORPHAN, sid, e.header_off,
                      f"no {DATASET_SECTION_ID!r} schema declares this "
                      "variable section")
        return
    if DATASET_SECTION_ID not in report.verified:
        return  # payload already has a checksum finding
    from ..core.errors import ReproError

    payload = buf[ext.payload_off:ext.pad_off]
    try:
        schema = DatasetSchema.from_json(payload)
    except ReproError as exc:
        _note(report, KIND_DATASET_SCHEMA, DATASET_SECTION_ID,
              ext.payload_off, str(exc))
        return
    for vname in schema.variables:
        sid = VAR_PREFIX + vname
        var_ext = var_sections.pop(sid, None)
        if var_ext is None:
            _note(report, KIND_DATASET_MISSING, sid, 0,
                  f"schema declares variable {vname!r}; container has no "
                  f"{sid!r} section")
            continue
        count = schema.size(vname)
        elem = schema.variable(vname).itemsize
        decl = var_ext.decl
        if decl.count != count or decl.elem_size != elem:
            _note(report, KIND_DATASET_SHAPE, sid, var_ext.header_off,
                  f"schema declares {count} x {elem} bytes "
                  f"(dims {list(schema.variable(vname).dims)}), section "
                  f"holds {decl.count} x {decl.elem_size}")
    for sid, e in var_sections.items():
        _note(report, KIND_DATASET_ORPHAN, sid, e.header_off,
              f"section not declared by the {DATASET_SECTION_ID!r} schema")


def _media_bytes(file: "ParallelFile") -> bytes:
    """The container's raw media bytes via the zero-time peek path."""
    rows = file.volume.peek(
        file.entry.extent, file.layout, 0, file.attrs.file_bytes
    )
    return np.ascontiguousarray(rows, dtype=np.uint8).tobytes()


def scan_container(file: "ParallelFile") -> ContainerReport:
    """Zero-time media scan of a simulated container (bypasses the data
    plane entirely — this is what is physically on the devices)."""
    return scan_bytes(_media_bytes(file), name=file.name)


def fsck(file: "ParallelFile", chunk_records: int = 1 << 16):
    """Generator: scan the container through the live data plane.

    Reads the whole file with ordinary ``read_records`` calls in
    ``chunk_records`` chunks — through I/O nodes, QoS, and the
    resilience layer if attached — then runs the same structural scan as
    :func:`scan_bytes`. When a resilience layer is attached, the report's
    ``resilience`` dict holds the counter deltas the scan itself caused:
    a scan over a failed device shows ``degraded_reads > 0`` with a clean
    report if parity reconstruction recovered every byte.
    """
    rv = getattr(file.pfs, "resilience", None)
    before = rv.stats.counters() if rv is not None else None
    chunks: list[bytes] = []
    total = file.n_records
    off = 0
    while off < total:
        n = min(chunk_records, total - off)
        rows = yield file.read_records(off, n)
        chunks.append(np.ascontiguousarray(rows, dtype=np.uint8).tobytes())
        off += n
    report = scan_bytes(b"".join(chunks), name=file.name)
    if before is not None:
        after = rv.stats.counters()
        report.resilience = {
            k: after[k] - before[k] for k in after if after[k] != before[k]
        }
    return report


def cross_check(pfs) -> ContainerReport:
    """fsck the *catalog* against the media: every directory entry must
    be backed by a sane on-device allocation.

    For every catalog entry (plain :class:`~repro.fs.catalog.Catalog` or
    the sharded facade — anything with ``entries()``):

    * the extent's device ranges must hold at least ``attrs.file_bytes``
      (allocation is block-granular, so over-allocation is legal;
      under-allocation is ``catalog-size-mismatch``);
    * every per-device range must lie inside that device's capacity
      (``catalog-extent-bounds``);
    * no two entries may claim intersecting ranges of one device —
      a namespace double-owner made visible on media
      (``catalog-extent-overlap``);
    * when the sharded metastore fronts the namespace, its extent
      registry must agree with the live entry (owner name and byte
      count, ``catalog-registry-mismatch``).

    The crash-point harness runs this after every injected crash +
    recovery, so "recovered" is asserted at the media layer too, not
    just by the namespace diff.
    """
    report = ContainerReport(name="<catalog>", total_bytes=0)
    claims: dict[int, list[tuple[int, int, str]]] = {}
    for name, entry in pfs.catalog.entries():
        ext = entry.extent
        if ext is None:
            continue
        total = 0
        for dev, (base, size) in enumerate(zip(ext.bases, ext.sizes)):
            if base is None or size == 0:
                continue
            total += size
            cap = pfs.volume.devices[dev].capacity_bytes
            if base < 0 or base + size > cap:
                _note(report, KIND_CATALOG_BOUNDS, name, base,
                      f"device {dev} range [{base}, {base + size}) outside "
                      f"capacity {cap}")
            for lo, hi, other in claims.get(dev, ()):
                if base < hi and lo < base + size:
                    _note(report, KIND_CATALOG_OVERLAP, name, max(base, lo),
                          f"device {dev} range [{base}, {base + size}) "
                          f"intersects {other!r}'s [{lo}, {hi})")
            claims.setdefault(dev, []).append((base, base + size, name))
        # allocation is block-granular, so the extent may legally be
        # larger than the file; smaller means data cannot all be on media
        if total < entry.attrs.file_bytes:
            _note(report, KIND_CATALOG_SIZE, name, 0,
                  f"extent holds {total} bytes, attributes declare "
                  f"{entry.attrs.file_bytes}")
        report.total_bytes += total
    service = getattr(pfs, "metastore", None)
    if service is not None:
        registry = {
            rec.owner: rec
            for shard in service.shards
            for rec in shard.extents.values()
        }
        for name, entry in pfs.catalog.entries():
            rec = registry.get(name)
            if rec is None:
                _note(report, KIND_CATALOG_REGISTRY, name, 0,
                      "no extent-registry record owns this entry")
            elif rec.nbytes != entry.attrs.file_bytes:
                _note(report, KIND_CATALOG_REGISTRY, name, 0,
                      f"registry says {rec.nbytes} bytes, attributes "
                      f"declare {entry.attrs.file_bytes}")
    return report


# -- host-file CLI -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.container <file> [...]`` — scan host
    files, print a report, exit 0 only if every file is clean."""
    args = list(sys.argv[1:] if argv is None else argv)
    quiet = "-q" in args
    paths = [a for a in args if a != "-q"]
    if not paths:
        print("usage: python -m repro.container [-q] <file> [file ...]",
              file=sys.stderr)
        return 2
    from ..trace.report import container_report

    status = 0
    for path in paths:
        try:
            with open(path, "rb") as fh:
                buf = fh.read()
        except OSError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 2
            continue
        report = scan_bytes(buf, name=path)
        if not quiet:
            print(container_report(report))
        if not report.clean:
            status = 1
    return status

