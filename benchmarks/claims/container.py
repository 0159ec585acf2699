"""X3 (extension) — serial-equivalent container format.

The paper's §2 requirement that parallel files "appear conventional"
turned into a measurable property: an ``repro.container`` file written
by N cooperating processes must be *byte-identical on media* to the
container one serial writer produces, for every file organization — so
the on-disk artifact is independent of the partitioning that made it.

Three result blocks:

1. **identity matrix** — for each organization and each N in {1,2,4,8},
   sha256 of the raw device extents vs the serial (N=1) digest, plus the
   simulated write time (the parallel speedup rides along for free);
2. **N-writer/M-reader matrix** — a container written by N is read back
   by M in {1,2,4,8} readers; every cell must return the exact payload
   (reported as the count of matching cells), with simulated read times;
3. **corruption check** — one payload byte is flipped on media; the
   verifier must attribute exactly that section (and nothing else).

Quick mode shrinks the payload and the N/M grid.
"""

import numpy as np

from repro import Environment, build_parallel_fs
from repro.container import (
    ContainerReader,
    ContainerWriter,
    array_section,
    inline_section,
    scan_container,
)
from repro.devices import FAST_1989, DiskGeometry
from repro.perf import ORGS

from .common import media_digest, run

GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=512)
N_DEVICES = 4
ELEM = 8
LAYOUT_PROCESSES = 4


def params(quick: bool):
    """(payload elements, writer and reader counts)."""
    return (4096, (1, 2, 4)) if quick else (65536, (1, 2, 4, 8))


def payload_for(count: int) -> np.ndarray:
    rng = np.random.default_rng(1989)
    return rng.integers(0, 256, size=count * ELEM, dtype=np.uint8)


def sections_for(count: int):
    return [
        inline_section("meta/run"),
        array_section("data/payload", count, ELEM),
    ]


def write_container(org: str, writers: int, count: int):
    """One full container write; returns (env, pfs, file, sim_seconds)."""
    env = Environment()
    pfs = build_parallel_fs(env, N_DEVICES, timing=FAST_1989, geometry=GEO)
    payload = payload_for(count)

    def driver():
        w = ContainerWriter.create(
            pfs, "x3", sections_for(count), org=org, writers=writers,
            layout_processes=LAYOUT_PROCESSES, user_string="bench X3",
        )
        yield from w.begin()
        yield from w.write_inline("meta/run", b"x3")
        yield from w.write_array("data/payload", payload)
        return w.file

    start = env.now
    f = run(env, driver())
    return env, pfs, f, env.now - start


def read_container(env, pfs, readers: int, count: int):
    """One full read of the payload section; returns (ok, sim_seconds)."""
    expected = payload_for(count).tobytes()

    def driver():
        r = yield from ContainerReader.open(pfs, "x3", readers=readers)
        return (yield from r.read_array("data/payload"))

    start = env.now
    data = run(env, driver())
    return data == expected, env.now - start


def identity_rows(count: int, nm):
    """Block 1: per (org, N writers) the media digest, its identity to the
    serial (N=1) container, and the simulated write time."""
    rows = []
    for org in ORGS:
        for n in nm:
            _, _, f, sim_s = write_container(org, n, count)
            digest = media_digest(f)
            if n == 1:
                serial = digest
            rows.append({
                "org": org, "writers": n, "sha256": digest[:16],
                "identical_to_serial": digest == serial, "write_ms": sim_s * 1e3,
            })
    return rows


def reader_rows(count: int, nm):
    """Block 2: containers written by N, read back by M."""
    rows = []
    for n in nm:
        env, pfs, _, _ = write_container("IS", n, count)
        for m in nm:
            ok, sim_s = read_container(env, pfs, m, count)
            rows.append({"writers": n, "readers": m, "payload_ok": ok,
                         "read_ms": sim_s * 1e3})
    return rows


def corruption_check(count: int):
    """Block 3: flip one media byte, expect exactly one attributed finding;
    returns (row, attributed)."""
    _, _, f, _ = write_container("PS", 4, count)
    rep0 = scan_container(f)
    ext = next(
        e for e in rep0.sections if e.decl.section_id == "data/payload"
    )
    target = ext.payload_off + (ext.payload_len // 2)
    row = f.volume.peek(f.entry.extent, f.layout, target, 1)
    f.volume.poke(
        f.entry.extent, f.layout, target,
        np.array([[row.ravel()[0] ^ 0xFF]], dtype=np.uint8),
    )
    rep = scan_container(f)
    attributed = (
        [x.kind for x in rep.findings] == ["section-checksum"]
        and rep.findings[0].section == "data/payload"
    )
    return {
        "clean_before": rep0.clean,
        "flipped_offset": int(target),
        "findings": [
            {"kind": x.kind, "section": x.section, "offset": x.offset}
            for x in rep.findings
        ],
    }, attributed


def x3_container_format(quick: bool) -> dict:
    """Rows: per (org, N writers) the media digest prefix, identity to
    the serial container and the simulated write time; per (N writers,
    M readers) payload equality and read time; then the corruption
    check's flipped offset and findings."""
    count, nm = params(quick)
    identity = identity_rows(count, nm)
    readers = reader_rows(count, nm)
    corruption, attributed = corruption_check(count)
    return {"rows": identity + readers + [corruption], "checks": {
        "every_writer_count_matches_serial_bytes":
            all(r["identical_to_serial"] for r in identity),
        "every_reader_count_returns_payload": all(r["payload_ok"] for r in readers),
        "flipped_byte_attributed_to_its_section": attributed,
    }}
