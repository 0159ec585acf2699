"""The goldens' six-organization load: the cost ledger's ``OrgDriver``, so a
change to it moves both pins (``docs/PERF.md``, "The perf helpers")."""

import hashlib

import numpy as np

from benchmarks.ledger.simload import (
    N_PROCESSES, RECORD_SIZE, RECORDS_PER_BLOCK, OrgDriver, media_bytes, same_records,
)
from repro.core import FileOrganization

ORGS = tuple(o.value for o in FileOrganization)


def records(n_records: int, salt: int) -> np.ndarray:
    """Deterministic random records: salt 0 is seeded, salt 1 written."""
    rng = np.random.default_rng([n_records, salt])
    return rng.integers(0, 256, size=(n_records, RECORD_SIZE), dtype=np.uint8)


def extent_top(f) -> int:
    """One past the highest device byte of the file's extent."""
    ext = f.entry.extent
    return max(b + n for b, n in zip(ext.bases, ext.sizes) if b is not None)


def group_xors(group, top: int) -> list[np.ndarray]:
    """Per check drive, the XOR of its group's data drives up to ``top``."""
    w = group.width
    return [np.bitwise_xor.reduce([d.peek(0, top) for d in group.data_devices[k * w:k * w + w]])
            for k in range(len(group.check_devices))]


def seed(pfs, f, raw: np.ndarray) -> None:
    """Fill the file's media in zero simulated time, every check drive
    holding the XOR of its group's data drives (a copy at width 1)."""
    f.volume.poke(f.entry.extent, f.layout, 0, raw)
    group = pfs.resilience.group if pfs.resilience is not None else None
    if group is not None:
        for check, xor in zip(group.check_devices, group_xors(group, extent_top(f))):
            check.poke(0, xor)


def controllers(pfs) -> list:
    """Every controller of a stack: data drives, check drives, idle spares."""
    rv = pfs.resilience
    if rv is None:
        return list(pfs.volume.devices)
    checks = [] if rv.group is None else rv.group.check_devices
    spares = [] if rv.rebuilder is None else rv.rebuilder.spares
    return [*pfs.volume.devices, *checks, *spares]


def run_org(env, pfs, org: str, n_records: int = 480) -> OrgDriver:
    """Create and seed ``org``'s file, then run the read side and the write
    side to completion."""
    f = pfs.create(f"perf_{org}", org, n_records=n_records, record_size=RECORD_SIZE,
                   records_per_block=RECORDS_PER_BLOCK, n_processes=N_PROCESSES)
    seed(pfs, f, records(n_records, 0).reshape(-1))
    drv = OrgDriver(env, f, n_records, records(n_records, 1))
    env.run(env.all_of(drv.spawn_read()))
    env.run(env.all_of(drv.spawn_write()))
    env.run()
    return drv


def problems(pfs, drv: OrgDriver) -> list[str]:
    """The ledger's delivery checks, then the redundancy invariant up to the
    top of the file's extent: every check drive is the XOR of its group's
    data drives (a mirror equals its data drive)."""
    f, out = drv.file, []
    if not same_records(drv.tape.read, records(drv.n_records, 0)):
        out.append("read side did not deliver the seeded records")
    if not same_records(media_bytes(f).reshape(-1, RECORD_SIZE), drv.new):
        out.append("media does not hold the written records")
    group = pfs.resilience.group if pfs.resilience is not None else None
    if group is not None:
        top = extent_top(f)
        out += [f"{check.name} is not the XOR of its group's data drives"
                for check, xor in zip(group.check_devices, group_xors(group, top))
                if not np.array_equal(check.peek(0, top), xor)]
    return out


def digest(env, pfs, file) -> str:
    """Hash of the outcome: the clock, the statistics of every controller
    (data drives, check drives, spares) and the file's media. The event
    counters are pinned apart from it (``test_determinism.py``), so a change
    that only schedules fewer events shows as integer diffs under unmoved
    hashes."""
    h = hashlib.sha256()
    h.update(repr(float(env.now)).encode())
    for d in controllers(pfs):
        lat = d.latency
        h.update(repr((d.name, d.writes_applied, lat.count, float(lat.total),
                       d.transient_errors)).encode())
    h.update(file.name.encode() + media_bytes(file).tobytes())
    return h.hexdigest()
