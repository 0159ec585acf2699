"""Pure codecs for the ``repro.container`` on-disk format.

Everything in this module is arithmetic over ``bytes`` — no engine, no
file system — so the format can be unit-tested (and fuzzed) in isolation,
and the same functions serve the simulated writer/reader, the byte-level
verifier, and the ``python -m repro.container`` CLI.

The format is scda-flavoured (Griesbach & Burstedde, PAPERS.md): a fixed
ASCII-friendly file header followed by typed sections, each with a padded
section header and a deterministically padded payload. *Determinism is
the point*: every field width, pad length, and pad byte is a pure
function of the declared section shapes, so a container written by N
processes is byte-identical to the serially written container — the
paper's "standard file / global view" requirement made checkable with a
single sha256.

Layout (all integers ASCII decimal, right-aligned, space-padded; all
checksums crc32 as 8 lowercase hex digits)::

    file header (128 bytes)
    ------------------------
    [  0: 16)  magic  b"repro.container\\n"
    [ 16: 24)  format version, e.g. b"01.00   "
    [ 24: 88)  user string: <= 63 bytes, space-padded, byte 87 = b"\\n"
    [ 88:100)  section count (12-digit field)
    [100:108)  crc32 over header bytes [0:100)
    [108:127)  reserved (spaces)
    [127]      b"\\n"

    section header (64 bytes)
    -------------------------
    [  0]      kind: b"I" (inline) | b"B" (block) | b"A" (array)
    [  1]      b" "
    [  2: 34)  section id: <= 31 bytes, space-padded
    [ 34: 46)  element count (12-digit field)
    [ 46: 54)  element size (8-digit field)
    [ 54: 62)  crc32 over payload bytes + count field + size field
    [ 62]      b" "
    [ 63]      b"\\n"

    payload padding
    ---------------
    A payload of L bytes is followed by k pad bytes, where
    k = 32 - (L % 32), bumped by 32 whenever k < 2, so the padded
    payload is a multiple of 32 bytes and the pad is always at least
    ``b" \\n"``. Pad bytes are k-1 spaces then one b"\\n".

Section kinds fix the (count, elem_size) pair: inline sections are one
32-byte element (short user metadata, always available without a second
seek); block sections are ``nbytes`` 1-byte elements (opaque blobs);
array sections are ``count`` fixed-size elements — the payloads the
parallel N-writer/M-reader paths move.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.metadata import FileAttributes

__all__ = [
    "MAGIC",
    "VERSION",
    "FILE_HEADER_BYTES",
    "SECTION_HEADER_BYTES",
    "SECTION_ID_BYTES",
    "USER_STRING_BYTES",
    "PAYLOAD_ALIGN",
    "INLINE_BYTES",
    "ATTRS_SECTION_ID",
    "ATTRS_PAYLOAD_BYTES",
    "ContainerFormatError",
    "ChecksumError",
    "FileHeader",
    "SectionDecl",
    "SectionHeader",
    "SectionExtent",
    "ContainerLayout",
    "inline_section",
    "block_section",
    "array_section",
    "pad_len",
    "pad_bytes",
    "padded_payload_len",
    "section_crc",
    "encode_file_header",
    "decode_file_header",
    "encode_section_header",
    "decode_section_header",
    "plan_layout",
    "walk_toc",
    "write_section",
    "verify_payload",
    "read_section",
    "encode_attrs_payload",
    "decode_attrs_payload",
]

MAGIC = b"repro.container\n"            # 16 bytes
VERSION = b"01.00   "                   # 8 bytes, ASCII, space-padded

FILE_HEADER_BYTES = 128
SECTION_HEADER_BYTES = 64
SECTION_ID_BYTES = 32
USER_STRING_BYTES = 64                  # 63 content bytes + trailing newline
COUNT_FIELD = 12
SIZE_FIELD = 8
CRC_FIELD = 8
PAYLOAD_ALIGN = 32
MIN_PAD = 2
INLINE_BYTES = 32

#: reserved self-description section: JSON of ``FileAttributes.to_dict``
ATTRS_SECTION_ID = "repro/attrs"
ATTRS_PAYLOAD_BYTES = 512

KINDS = (b"I", b"B", b"A")


class ContainerFormatError(Exception):
    """The bytes do not form a valid container structure."""


class ChecksumError(ContainerFormatError):
    """A stored checksum does not match the recomputed one."""


# -- padding -----------------------------------------------------------------


def pad_len(payload_len: int) -> int:
    """Deterministic pad length after a ``payload_len``-byte payload."""
    if payload_len < 0:
        raise ValueError("payload length must be >= 0")
    k = PAYLOAD_ALIGN - (payload_len % PAYLOAD_ALIGN)
    if k < MIN_PAD:
        k += PAYLOAD_ALIGN
    return k


def pad_bytes(payload_len: int) -> bytes:
    """The pad run itself: spaces terminated by one newline."""
    k = pad_len(payload_len)
    return b" " * (k - 1) + b"\n"


def padded_payload_len(payload_len: int) -> int:
    """Payload length rounded up by the padding rule (multiple of 32)."""
    return payload_len + pad_len(payload_len)


# -- integer / string fields -------------------------------------------------


def _enc_int(value: int, width: int, label: str) -> bytes:
    if value < 0:
        raise ValueError(f"{label} must be >= 0")
    field = str(int(value)).rjust(width).encode("ascii")
    if len(field) != width:
        raise ValueError(f"{label} {value} does not fit in {width} digits")
    return field


def _dec_int(field: bytes, label: str) -> int:
    text = field.decode("ascii", errors="replace").strip()
    if not text.isdigit():
        raise ContainerFormatError(f"unparseable {label} field {field!r}")
    return int(text)


def _enc_str(value: str, width: int, label: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > width:
        raise ValueError(f"{label} longer than {width} bytes: {value!r}")
    return raw.ljust(width)


# -- checksums ---------------------------------------------------------------


def section_crc(payload: bytes, count: int, elem_size: int) -> int:
    """crc32 over the payload bytes plus the encoded count/size fields.

    Folding the shape fields in means a corrupted count (which would shift
    every later section) is caught by the same check as a corrupted
    payload byte.
    """
    crc = zlib.crc32(payload)
    crc = zlib.crc32(_enc_int(count, COUNT_FIELD, "count"), crc)
    crc = zlib.crc32(_enc_int(elem_size, SIZE_FIELD, "elem_size"), crc)
    return crc & 0xFFFFFFFF


def _enc_crc(crc: int) -> bytes:
    return f"{crc & 0xFFFFFFFF:08x}".encode("ascii")


def _dec_crc(field: bytes, label: str) -> int:
    try:
        return int(field.decode("ascii"), 16)
    except ValueError:
        raise ContainerFormatError(
            f"unparseable {label} checksum field {field!r}"
        ) from None


# -- file header -------------------------------------------------------------


@dataclass(frozen=True)
class FileHeader:
    """Decoded file header."""

    user_string: str
    section_count: int
    version: str = VERSION.decode("ascii").strip()


def encode_file_header(user_string: str, section_count: int) -> bytes:
    """The 128-byte file header."""
    body = (
        MAGIC
        + VERSION
        + _enc_str(user_string, USER_STRING_BYTES - 1, "user string")
        + b"\n"
        + _enc_int(section_count, COUNT_FIELD, "section count")
    )
    assert len(body) == 100
    out = body + _enc_crc(zlib.crc32(body)) + b" " * 19 + b"\n"
    assert len(out) == FILE_HEADER_BYTES
    return out


def decode_file_header(buf: bytes) -> FileHeader:
    """Parse and fully validate a file header (raises on any defect)."""
    if len(buf) < FILE_HEADER_BYTES:
        raise ContainerFormatError(
            f"file header truncated: {len(buf)} < {FILE_HEADER_BYTES} bytes"
        )
    buf = bytes(buf[:FILE_HEADER_BYTES])
    if buf[:16] != MAGIC:
        raise ContainerFormatError(f"bad magic {buf[:16]!r}")
    version = buf[16:24].decode("ascii", errors="replace").strip()
    if not version.startswith("01."):
        raise ContainerFormatError(f"unsupported format version {version!r}")
    stored = _dec_crc(buf[100:108], "file header")
    actual = zlib.crc32(buf[:100]) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(
            f"file header checksum mismatch: stored {stored:08x}, "
            f"computed {actual:08x}"
        )
    if buf[87:88] != b"\n" or buf[127:128] != b"\n":
        raise ContainerFormatError("file header field terminators damaged")
    user = buf[24:87].decode("utf-8", errors="replace").rstrip()
    count = _dec_int(buf[88:100], "section count")
    return FileHeader(user_string=user, section_count=count, version=version)


# -- section declarations and headers -----------------------------------------


@dataclass(frozen=True)
class SectionDecl:
    """Declared shape of one section (fixed before any byte is written)."""

    kind: str          # 'I' | 'B' | 'A'
    section_id: str
    count: int
    elem_size: int

    def __post_init__(self) -> None:
        if self.kind not in ("I", "B", "A"):
            raise ValueError(f"unknown section kind {self.kind!r}")
        if not self.section_id:
            raise ValueError("section id must be non-empty")
        if len(self.section_id.encode("utf-8")) > SECTION_ID_BYTES - 1:
            raise ValueError(
                f"section id longer than {SECTION_ID_BYTES - 1} bytes: "
                f"{self.section_id!r}"
            )
        if self.count < 0 or self.elem_size < 1:
            raise ValueError("count must be >= 0 and elem_size >= 1")
        if self.kind == "I" and (self.count, self.elem_size) != (1, INLINE_BYTES):
            raise ValueError(
                f"inline sections are exactly 1 x {INLINE_BYTES} bytes"
            )
        if self.kind == "B" and self.elem_size != 1:
            raise ValueError("block sections have 1-byte elements")

    @property
    def payload_len(self) -> int:
        return self.count * self.elem_size


def inline_section(section_id: str) -> SectionDecl:
    """Declare an inline section (one 32-byte element)."""
    return SectionDecl("I", section_id, 1, INLINE_BYTES)


def block_section(section_id: str, nbytes: int) -> SectionDecl:
    """Declare a block section (``nbytes`` opaque bytes)."""
    return SectionDecl("B", section_id, nbytes, 1)


def array_section(section_id: str, count: int, elem_size: int) -> SectionDecl:
    """Declare an array section (``count`` elements of ``elem_size`` bytes)."""
    return SectionDecl("A", section_id, count, elem_size)


@dataclass(frozen=True)
class SectionHeader:
    """Decoded section header: the declaration plus its stored checksum."""

    decl: SectionDecl
    crc: int


def encode_section_header(decl: SectionDecl, crc: int) -> bytes:
    """The 64-byte section header for ``decl`` with payload checksum ``crc``."""
    out = (
        decl.kind.encode("ascii")
        + b" "
        + _enc_str(decl.section_id, SECTION_ID_BYTES, "section id")
        + _enc_int(decl.count, COUNT_FIELD, "count")
        + _enc_int(decl.elem_size, SIZE_FIELD, "elem_size")
        + _enc_crc(crc)
        + b" \n"
    )
    assert len(out) == SECTION_HEADER_BYTES
    return out


def decode_section_header(buf: bytes) -> SectionHeader:
    """Parse one section header (raises :class:`ContainerFormatError`)."""
    if len(buf) < SECTION_HEADER_BYTES:
        raise ContainerFormatError(
            f"section header truncated: {len(buf)} < {SECTION_HEADER_BYTES}"
        )
    buf = bytes(buf[:SECTION_HEADER_BYTES])
    kind = buf[0:1]
    if kind not in KINDS:
        raise ContainerFormatError(f"unknown section kind {kind!r}")
    if buf[1:2] != b" " or buf[62:64] != b" \n":
        raise ContainerFormatError("section header separators damaged")
    section_id = buf[2 : 2 + SECTION_ID_BYTES].decode(
        "utf-8", errors="replace"
    ).rstrip()
    count = _dec_int(buf[34:46], "count")
    elem_size = _dec_int(buf[46:54], "elem_size")
    crc = _dec_crc(buf[54:62], "section")
    decl = SectionDecl(kind.decode("ascii"), section_id, count, elem_size)
    return SectionHeader(decl=decl, crc=crc)


# -- layout planning -----------------------------------------------------------


@dataclass(frozen=True)
class SectionExtent:
    """Byte geometry of one section within the container stream."""

    decl: SectionDecl
    header_off: int

    @property
    def payload_off(self) -> int:
        return self.header_off + SECTION_HEADER_BYTES

    @property
    def payload_len(self) -> int:
        return self.decl.payload_len

    @property
    def pad_off(self) -> int:
        return self.payload_off + self.payload_len

    @property
    def pad_len(self) -> int:
        return pad_len(self.payload_len)

    @property
    def end(self) -> int:
        return self.pad_off + self.pad_len


@dataclass(frozen=True)
class ContainerLayout:
    """Offsets of every declared section, plus the total container size."""

    sections: tuple[SectionExtent, ...]

    @property
    def total_bytes(self) -> int:
        return (
            self.sections[-1].end if self.sections else FILE_HEADER_BYTES
        )

    def find(self, section_id: str) -> SectionExtent:
        """The extent of ``section_id`` (KeyError if not declared)."""
        for ext in self.sections:
            if ext.decl.section_id == section_id:
                return ext
        raise KeyError(section_id)


def plan_layout(decls: Iterable[SectionDecl]) -> ContainerLayout:
    """Compute every section's byte extent from the declarations alone.

    This is the partition-independence anchor: offsets depend only on the
    declared shapes, never on who writes the bytes.
    """
    sections: list[SectionExtent] = []
    seen: set[str] = set()
    off = FILE_HEADER_BYTES
    for decl in decls:
        if decl.section_id in seen:
            raise ValueError(f"duplicate section id {decl.section_id!r}")
        seen.add(decl.section_id)
        ext = SectionExtent(decl=decl, header_off=off)
        sections.append(ext)
        off = ext.end
    return ContainerLayout(sections=tuple(sections))


# -- sans-I/O plans --------------------------------------------------------------
#
# Generators of I/O *intents*, so one definition serves every backend: each
# yields ``("read", offset, nbytes)`` (sent back the bytes read) or
# ``("write", offset, data)``; ``repro.container.writer.run_plan`` does the
# I/O in simulated time, plain calls do it for the live dataset.


def walk_toc(total_bytes: int):
    """Generator plan: rebuild the table of contents of a container of
    ``total_bytes`` bytes by walking its section headers.

    Returns ``(header, toc, crcs)``: the file header, section id →
    :class:`SectionExtent` in file order, and section id → stored crc.
    Raises :class:`ContainerFormatError` on a header or payload running
    past the end of the file, or a section id that appears twice.
    """
    header = decode_file_header((yield "read", 0, FILE_HEADER_BYTES))
    toc: dict[str, SectionExtent] = {}
    crcs: dict[str, int] = {}
    off = FILE_HEADER_BYTES
    for i in range(header.section_count):
        if off + SECTION_HEADER_BYTES > total_bytes:
            raise ContainerFormatError(
                f"section {i}: header at {off} runs past end of file "
                f"({total_bytes} bytes)"
            )
        shdr = decode_section_header((yield "read", off, SECTION_HEADER_BYTES))
        sid = shdr.decl.section_id
        ext = SectionExtent(shdr.decl, off)
        if ext.end > total_bytes:
            raise ContainerFormatError(
                f"section {sid!r}: payload runs past end of file"
            )
        if sid in toc:
            raise ContainerFormatError(f"duplicate section id {sid!r}")
        toc[sid] = ext
        crcs[sid] = shdr.crc
        off = ext.end
    return header, toc, crcs


def verify_payload(ext: SectionExtent, crc: int, payload: bytes) -> bytes:
    """``payload`` if its checksum matches the stored ``crc``; raises
    :class:`ChecksumError` otherwise."""
    got = section_crc(payload, ext.decl.count, ext.decl.elem_size)
    if got != crc:
        raise ChecksumError(
            f"section {ext.decl.section_id!r}: payload crc {got:08x} != "
            f"header crc {crc:08x}"
        )
    return payload


def write_section(ext: SectionExtent, payload: bytes | None):
    """Generator plan: one section written serially — header, payload, pad
    — returning its crc. ``None`` stands for a payload of zero bytes already
    on media (a preallocated file): checksummed, not written."""
    raw = bytes(ext.payload_len) if payload is None else payload
    crc = section_crc(raw, ext.decl.count, ext.decl.elem_size)
    yield "write", ext.header_off, encode_section_header(ext.decl, crc)
    if payload:
        yield "write", ext.payload_off, payload
    yield "write", ext.pad_off, pad_bytes(ext.payload_len)
    return crc


def read_section(ext: SectionExtent, crc: int):
    """Generator plan: the checksum-verified payload bytes of one section
    (one read intent; none for an empty payload)."""
    payload = (yield "read", ext.payload_off, ext.payload_len) if ext.payload_len else b""
    return verify_payload(ext, crc, payload)


# -- the reserved self-description payload -------------------------------------


def encode_attrs_payload(attrs_dict: dict) -> bytes:
    """Canonical JSON of a file-attribute dict, space-padded to 512 bytes."""
    raw = json.dumps(attrs_dict, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    if len(raw) > ATTRS_PAYLOAD_BYTES:
        raise ValueError(
            f"attribute payload {len(raw)} bytes exceeds the fixed "
            f"{ATTRS_PAYLOAD_BYTES}-byte self-description section"
        )
    return raw.ljust(ATTRS_PAYLOAD_BYTES)


def decode_attrs_payload(payload: bytes) -> dict:
    """Parse the self-description section back into a plain dict."""
    try:
        return json.loads(bytes(payload).rstrip().decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ContainerFormatError(
            f"unparseable self-description payload: {exc}"
        ) from None
