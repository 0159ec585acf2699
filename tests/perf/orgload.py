"""The goldens' six-organization load: the cost ledger's ``OrgDriver``, so a
change to it moves both pins (``docs/PERF.md``, "The perf helpers")."""

import hashlib

import numpy as np

from benchmarks.ledger.simload import (
    N_PROCESSES, RECORD_SIZE, RECORDS_PER_BLOCK, OrgDriver, all_controllers,
    media_bytes, same_records, seed_media,
)
from repro.core import FileOrganization

ORGS = tuple(o.value for o in FileOrganization)


def records(n_records: int, salt: int) -> np.ndarray:
    """Deterministic random records: salt 0 is seeded, salt 1 written."""
    rng = np.random.default_rng([n_records, salt])
    return rng.integers(0, 256, size=(n_records, RECORD_SIZE), dtype=np.uint8)


def run_org(env, pfs, org: str, n_records: int = 480) -> OrgDriver:
    """Create and seed ``org``'s file, then run the read side and the write
    side to completion."""
    f = pfs.create(f"perf_{org}", org, n_records=n_records, record_size=RECORD_SIZE,
                   records_per_block=RECORDS_PER_BLOCK, n_processes=N_PROCESSES)
    seed_media(pfs, f, records(n_records, 0).reshape(-1))
    drv = OrgDriver(env, f, n_records, records(n_records, 1))
    env.run(env.all_of(drv.spawn_read()))
    env.run(env.all_of(drv.spawn_write()))
    env.run()
    return drv


def problems(pfs, drv: OrgDriver) -> list[str]:
    """The ledger's delivery checks, then the redundancy invariant up to the
    top of the file's extent: check drive = XOR of the data drives, mirrors
    equal."""
    f, out = drv.file, []
    if not same_records(drv.tape.read, records(drv.n_records, 0)):
        out.append("read side did not deliver the seeded records")
    if not same_records(media_bytes(f).reshape(-1, RECORD_SIZE), drv.new):
        out.append("media does not hold the written records")
    ext = f.entry.extent
    top = max(b + n for b, n in zip(ext.bases, ext.sizes) if b is not None)
    group = pfs.resilience.group if pfs.resilience is not None else None
    if group is not None:
        check = np.bitwise_xor.reduce([d.peek(0, top) for d in group.data_devices])
        if not np.array_equal(group.parity_device.peek(0, top), check):
            out.append("check drive is not the XOR of the data drives")
    out += [f"{d.name}: mirrors differ" for d in pfs.volume.devices if hasattr(d, "primary")
            and not np.array_equal(d.primary.peek(0, top), d.shadow.peek(0, top))]
    return out


def digest(env, pfs, file) -> str:
    """Hash of the clock, event-id and step counters, the statistics of every
    controller (check drive, spares, both mirrors) and the file's media."""
    h = hashlib.sha256()
    h.update(repr((float(env.now), env._eid, env.steps)).encode())
    for c in all_controllers(pfs):
        for d in (c.primary, c.shadow) if hasattr(c, "primary") else (c,):
            lat = d.latency
            h.update(repr((d.name, d.writes_applied, lat.count, float(lat.total),
                           d.transient_errors)).encode())
    h.update(file.name.encode() + media_bytes(file).tobytes())
    return h.hexdigest()
