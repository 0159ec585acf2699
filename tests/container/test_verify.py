"""The byte-level scanner and the host-file CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.container import scan_bytes
from repro.container.codec import (
    FILE_HEADER_BYTES,
    SECTION_HEADER_BYTES,
)
from repro.container.verify import main as verify_main

from .make_fixtures import build_corrupt, build_good

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def good():
    return build_good()


def kinds(report):
    return [f.kind for f in report.findings]


# -- structural findings, one corruption class at a time ----------------------


def test_clean_scan(good):
    rep = scan_bytes(good, name="good")
    assert rep.clean
    assert rep.verified == ["notes", "table"]
    assert len(rep.sections) == 2


def test_not_a_container(good):
    rep = scan_bytes(b"definitely not one" + good[18:])
    assert kinds(rep) == ["bad-magic"]
    assert not rep.sections  # walk never starts


def test_unsupported_version(good):
    buf = bytearray(good)
    buf[16:24] = b"99.00   "
    rep = scan_bytes(bytes(buf))
    # version finding plus the header checksum the edit invalidated
    assert "bad-version" in kinds(rep)
    assert "header-checksum" in kinds(rep)


def test_file_header_checksum(good):
    buf = bytearray(good)
    buf[30] ^= 0x01  # user-string byte
    assert kinds(scan_bytes(bytes(buf))) == ["header-checksum"]


def test_section_payload_checksum_attribution(good):
    corrupt = build_corrupt(good)
    rep = scan_bytes(corrupt)
    assert kinds(rep) == ["section-checksum"]
    assert rep.findings[0].section == "table"
    assert rep.verified == ["notes"]


def test_damaged_section_header_stops_the_walk(good):
    buf = bytearray(good)
    buf[FILE_HEADER_BYTES] = ord("Q")  # first section's kind byte
    rep = scan_bytes(bytes(buf))
    assert kinds(rep) == ["bad-section-header"]
    assert not rep.sections


def test_bad_padding(good):
    rep0 = scan_bytes(good)
    pad_addr = rep0.sections[0].pad_off
    buf = bytearray(good)
    buf[pad_addr] = ord("X")
    rep = scan_bytes(bytes(buf))
    assert kinds(rep) == ["bad-padding"]
    assert rep.findings[0].section == "notes"


def test_truncated_file(good):
    rep = scan_bytes(good[:-100])
    assert "truncated" in kinds(rep)
    rep = scan_bytes(good[:FILE_HEADER_BYTES + 10])
    assert "truncated" in kinds(rep)
    rep = scan_bytes(good[:40])
    assert kinds(rep) == ["truncated"]


def test_trailing_bytes(good):
    rep = scan_bytes(good + b"junk")
    assert kinds(rep) == ["trailing-bytes"]


def test_corrupt_count_field_is_caught_by_section_crc(good):
    # the count field is folded into the section checksum, so a shifted
    # count cannot silently remap later sections
    off = FILE_HEADER_BYTES + 34 + 10  # inside section 0's count field
    buf = bytearray(good)
    buf[off] = ord("9")
    rep = scan_bytes(bytes(buf))
    assert "section-checksum" in kinds(rep)


def test_sanitize_interop(good):
    rep = scan_bytes(build_corrupt(good), name="c")
    findings = rep.to_sanitize_findings(time=2.0)
    assert len(findings) == 1
    assert findings[0].kind == "container-section-checksum"
    assert findings[0].file == "c"
    assert "table" in findings[0].detail
    assert findings[0].row()  # renders like any sanitizer finding


# -- the CLI ------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, good, capsys):
    good_path = tmp_path / "good.cnt"
    bad_path = tmp_path / "bad.cnt"
    good_path.write_bytes(good)
    bad_path.write_bytes(build_corrupt(good))
    assert verify_main([str(good_path)]) == 0
    assert verify_main([str(bad_path)]) == 1
    assert verify_main([str(good_path), str(bad_path)]) == 1
    assert verify_main([]) == 2
    assert verify_main([str(tmp_path / "missing.cnt")]) == 2
    out = capsys.readouterr().out
    assert "CLEAN" in out
    assert "section-checksum" in out


def test_cli_quiet(tmp_path, good, capsys):
    p = tmp_path / "g.cnt"
    p.write_bytes(good)
    assert verify_main(["-q", str(p)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fixture, code", [("good.cnt", 0), ("corrupt.cnt", 1)])
def test_module_cli_runs_warning_free(fixture, code):
    """``python -m repro.container`` under ``-W error``: exit 1 is a finding
    printed on stdout, not a crash (a traceback also exits 1)."""
    src = str(Path(__file__).parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.container",
         str(FIXTURES / fixture)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (code, "")
    assert ("CLEAN" if code == 0 else "1 finding(s)") in proc.stdout


def test_committed_fixtures_match_the_builder(good):
    """The committed CI fixtures are exactly what the builder makes."""
    assert (FIXTURES / "good.cnt").read_bytes() == good
    assert (FIXTURES / "corrupt.cnt").read_bytes() == build_corrupt(good)
