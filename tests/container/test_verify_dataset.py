"""fsck coverage for the dataset self-description section: the four
``dataset-*`` finding kinds and their interaction with checksum checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.codec import (
    block_section,
    encode_file_header,
    encode_section_header,
    pad_bytes,
    plan_layout,
    section_crc,
)
from repro.container.verify import (
    KIND_DATASET_MISSING,
    KIND_DATASET_ORPHAN,
    KIND_DATASET_SCHEMA,
    KIND_DATASET_SHAPE,
    KIND_SECTION_CHECKSUM,
    scan_bytes,
)
from repro.dataset import DatasetSchema, LiveDataset
from repro.live import LiveParallelFileSystem


@pytest.fixture
def lfs(tmp_path):
    return LiveParallelFileSystem(tmp_path / "pfs")


@pytest.fixture
def schema():
    return DatasetSchema.build({"x": 8}, {"v": ("<i4", ("x",))})


def dataset_bytes(lfs, schema, **kw):
    with LiveDataset.create(lfs, "ds", schema, **kw) as lds:
        path = lds.file.path
    return bytearray(path.read_bytes())


def raw_container(sections):
    """Assemble container bytes from (section_id, payload) pairs."""
    decls = [block_section(sid, len(p)) for sid, p in sections]
    layout = plan_layout(decls)
    buf = bytearray(layout.total_bytes)
    buf[:128] = encode_file_header("test", len(decls))
    for ext, (sid, payload) in zip(layout.sections, sections):
        crc = section_crc(payload, ext.decl.count, ext.decl.elem_size)
        buf[ext.header_off:ext.payload_off] = encode_section_header(
            ext.decl, crc
        )
        buf[ext.payload_off:ext.pad_off] = payload
        buf[ext.pad_off:ext.end] = pad_bytes(ext.payload_len)
    return bytes(buf)


def kinds(report):
    return sorted({f.kind for f in report.findings})


class TestCleanDataset:
    def test_live_dataset_scans_clean(self, lfs, schema):
        buf = dataset_bytes(
            lfs, schema, data={"v": np.arange(8, dtype="<i4")}
        )
        report = scan_bytes(bytes(buf))
        assert report.clean, [str(f) for f in report.findings]

    def test_non_dataset_container_unaffected(self):
        report = scan_bytes(raw_container([("blob", b"x" * 40)]))
        assert report.clean


class TestShapeMismatch:
    def test_tampered_var_count_is_flagged(self, lfs, schema):
        buf = dataset_bytes(lfs, schema)
        # find the var/v section header and corrupt its count field
        off = bytes(buf).find(b"var/v")
        assert off > 0
        hdr_off = off - 2  # 'A ' kind prefix precedes the id
        # count field: kind(1) + sp(1) + id(32) = 34 bytes into the header
        count_off = hdr_off + 34
        buf[count_off:count_off + 12] = b"%12d" % 7
        report = scan_bytes(bytes(buf))
        found = kinds(report)
        assert KIND_DATASET_SHAPE in found
        assert KIND_SECTION_CHECKSUM in found  # count feeds the crc too
        shape = [f for f in report.findings if f.kind == KIND_DATASET_SHAPE]
        assert "holds 7 x 4" in shape[0].detail
        assert shape[0].section == "var/v"


class TestMissingAndOrphan:
    def test_missing_variable_section(self, schema):
        report = scan_bytes(
            raw_container([("repro/dataset", schema.to_json().encode())])
        )
        missing = [f for f in report.findings
                   if f.kind == KIND_DATASET_MISSING]
        assert [f.section for f in missing] == ["var/v"]

    def test_orphan_with_schema(self, schema):
        report = scan_bytes(raw_container([
            ("repro/dataset", schema.to_json().encode()),
            ("var/v", b"\x00" * 32),   # declared: fine (block kind differs
                                       # from array, so shape flags it)
            ("var/ghost", b"\x00" * 8),
        ]))
        orphans = [f for f in report.findings
                   if f.kind == KIND_DATASET_ORPHAN]
        assert [f.section for f in orphans] == ["var/ghost"]

    def test_orphan_without_schema(self):
        report = scan_bytes(raw_container([("var/stray", b"\x00" * 8)]))
        orphans = [f for f in report.findings
                   if f.kind == KIND_DATASET_ORPHAN]
        assert [f.section for f in orphans] == ["var/stray"]
        assert "no 'repro/dataset'" in orphans[0].detail


class TestBadSchema:
    def test_valid_crc_invalid_json_is_bad_schema(self):
        report = scan_bytes(
            raw_container([("repro/dataset", b"{definitely not json")])
        )
        assert kinds(report) == [KIND_DATASET_SCHEMA]

    @pytest.mark.parametrize("payload", [
        b"\xff\xfe not utf-8",
        b'{"dimensions": {"x": "a"}}',
        b'{"dimensions": {"x": 1e400}}',
    ], ids=["not-utf8", "extent-not-int", "extent-infinite"])
    def test_valid_crc_hostile_schema_is_bad_schema(self, payload):
        report = scan_bytes(raw_container([("repro/dataset", payload)]))
        assert kinds(report) == [KIND_DATASET_SCHEMA]

    def test_corrupt_payload_is_checksum_not_schema(self, lfs, schema):
        buf = dataset_bytes(lfs, schema)
        off = bytes(buf).find(b'{"attrs"')  # schema payload start
        assert off > 0
        buf[off] = ord("!")
        report = scan_bytes(bytes(buf))
        found = kinds(report)
        assert KIND_SECTION_CHECKSUM in found
        assert KIND_DATASET_SCHEMA not in found

    def test_to_sanitize_findings_carries_dataset_kinds(self, schema):
        report = scan_bytes(
            raw_container([("repro/dataset", schema.to_json().encode())])
        )
        rows = report.to_sanitize_findings()
        assert any(KIND_DATASET_MISSING in str(r) for r in rows)


SCHEMA_KEYS = st.sampled_from(["dimensions", "variables", "attrs", "dtype", "dims", "x", "v"])
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(SCHEMA_KEYS | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(payload=st.binary(min_size=1, max_size=256)
       | JSON_DOCS.map(lambda doc: json.dumps(doc).encode()))
def test_scan_bytes_reports_on_any_checksummed_schema(payload):
    """A schema payload with a valid checksum is parsed: whatever it holds,
    the scan ends in findings, never a raise."""
    buf = raw_container([("repro/dataset", payload)])
    assert scan_bytes(buf).total_bytes == len(buf)
