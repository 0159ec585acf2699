"""Regenerate the committed container fixtures (pure codec, no engine).

Run from the repo root::

    PYTHONPATH=src python tests/container/make_fixtures.py

Produces ``tests/container/fixtures/good.cnt`` (a valid two-section
container) and ``corrupt.cnt`` (the same bytes with one payload byte
flipped). CI feeds both to ``python -m repro.container`` and
asserts exit 0 / nonzero respectively. The builder is deterministic, so
regenerating never churns the committed binaries.
"""

from pathlib import Path

from repro.container.codec import (
    array_section,
    block_section,
    encode_file_header,
    encode_section_header,
    pad_bytes,
    plan_layout,
    section_crc,
)

FIXTURES = Path(__file__).parent / "fixtures"


def build_good() -> bytes:
    decls = [
        block_section("notes", 45),
        array_section("table", 100, 8),
    ]
    payloads = {
        "notes": b"fixture container for the verify CLI\n".ljust(45),
        "table": bytes((i * 7 + 3) % 256 for i in range(800)),
    }
    layout = plan_layout(decls)
    out = bytearray(encode_file_header("verify-cli fixture", len(decls)))
    for ext in layout.sections:
        payload = payloads[ext.decl.section_id]
        assert len(payload) == ext.payload_len
        crc = section_crc(payload, ext.decl.count, ext.decl.elem_size)
        out += encode_section_header(ext.decl, crc)
        out += payload
        out += pad_bytes(ext.payload_len)
    assert len(out) == layout.total_bytes
    return bytes(out)


def build_corrupt(good: bytes) -> bytes:
    # flip one byte inside the "table" payload
    buf = bytearray(good)
    buf[-200] ^= 0xFF
    return bytes(buf)


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    good = build_good()
    (FIXTURES / "good.cnt").write_bytes(good)
    (FIXTURES / "corrupt.cnt").write_bytes(build_corrupt(good))
    print(f"wrote {FIXTURES}/good.cnt ({len(good)} bytes) and corrupt.cnt")


if __name__ == "__main__":
    main()
