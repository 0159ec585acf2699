"""E9 — §5's protection strategies, exercised against real failures:

* **parity** (Kim [3]): "can handle ... complete failure of a single
  drive. ... However, this method does not appear to be applicable to
  situations in which the disks are being accessed independently, as in
  the PS and IS organizations."
* **shadowing**: "perform exactly the same I/O operations on each disk
  and its 'shadow' ... The drawback is that this approach is very
  expensive in terms of hardware."
* **backup rollback**: "it is not sufficient to restore just that disk
  from backups. Since each drive contains a slice of every file, all of
  the disks will have to be rolled back to the same point in time."

Every scenario is a ``build_parallel_fs`` stack. Parity and shadowing are
one redundancy code, a parity group, at two widths: ``protection="parity"``
puts one check drive on all n data drives, ``protection="shadow"`` one on
each (the XOR of one drive is a copy). Each scenario injects a drive
failure mid-run and reports whether the data survived, what it cost in
drives, and (for RMW parity — the ablation) what it costs per small write.
"""

import numpy as np

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry
from repro.fs import BackupManager, verify_file
from repro.resilience import ResilienceConfig
from repro.storage import StaleParityError

from .common import run

GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)
RECORD = 4096


def stack(n, protection=None, mode="rmw", spares=0):
    env = Environment()
    cfg = None
    if protection is not None:
        cfg = ResilienceConfig(protection=protection, parity_mode=mode, spares=spares)
    return env, build_parallel_fs(env, n, geometry=GEO, resilience=cfg)


def ps_file(pfs, n):
    """One 4 KiB record per process, each partition on its own drive."""
    return pfs.create("partitioned", "PS", n_records=n, record_size=RECORD,
                      n_processes=n)


def records(n, fill):
    return np.full((n, RECORD), fill, dtype=np.uint8)


def device_reads(pfs) -> int:
    """Requests served so far that applied no write: the stack's reads."""
    rv = pfs.resilience
    drives = [*pfs.volume.devices, *rv.group.check_devices]
    return sum(d.latency.count - d.writes_applied for d in drives)


def scenario_parity_striped():
    """Synchronized (striped) writes + parity: single failure recovered."""
    env, pfs = stack(3, "parity", mode="synchronized")
    f = pfs.create("striped", "S", n_records=3, record_size=RECORD, stripe_unit=RECORD)
    stripe = np.arange(1, 4, dtype=np.uint8)[:, None].repeat(RECORD, axis=1)

    def body():
        yield f.write_records(0, stripe)  # one row: data and parity together
        pfs.volume.devices[1].fail()
        rebuilt = yield f.read_records(0, 3)
        return np.array_equal(rebuilt, stripe)

    return run(env, body())


def scenario_parity_independent():
    """PS/IS-style independent writes + parity: recovery refused (stale)."""
    env, pfs = stack(3, "parity", mode="synchronized")
    f = ps_file(pfs, 3)

    def body():
        yield f.write_records(0, records(3, ord("a")))
        # two processes write their own partitions independently
        yield from f.internal_view(0).write_next(records(1, ord("0")))
        yield from f.internal_view(2).write_next(records(1, ord("2")))
        pfs.volume.devices[2].fail()
        try:
            yield f.read_records(0, 3)
            return True
        except StaleParityError:
            return False

    return run(env, body())


def timed_independent_write(pfs, env, f, payload):
    """Simulated seconds of process 2's write of its one record."""

    def body():
        yield f.write_records(0, records(3, ord("a")))
        t0 = env.now
        yield from f.internal_view(2).write_next(payload)
        return env.now - t0

    return run(env, body())


def scenario_parity_rmw():
    """The ablation: RMW parity covers independent writes, at a cost."""
    payload = records(1, ord("P"))
    env, pfs = stack(3, "parity", mode="rmw")
    f = ps_file(pfs, 3)
    outcome = {"write_cost": timed_independent_write(pfs, env, f, payload)}

    def body():
        pfs.volume.devices[2].fail()
        rebuilt = yield f.read_records(2, 1)
        return np.array_equal(rebuilt, payload)

    outcome["recovered"] = run(env, body())
    # baseline: the same write on the same drives without protection
    env2, bare = stack(3)
    outcome["bare_cost"] = timed_independent_write(bare, env2, ps_file(bare, 3), payload)
    return outcome


def scenario_shadow():
    """Shadowing covers any organization's single failure, at 2x drives."""
    env, pfs = stack(2, "shadow")
    f = pfs.create("mirrored", "PS", n_records=32, record_size=16,
                   dtype="float64", records_per_block=4, n_processes=2)
    data = np.random.default_rng(0).random((32, 2))
    outcome = {}

    def body():
        # independent PS writes — the case parity could not cover
        reads = device_reads(pfs)
        for q in range(2):
            h = f.internal_view(q)
            yield from h.write_next(data[f.map.records_of(q)])
        outcome["write_reads"] = device_reads(pfs) - reads
        pfs.volume.devices[0].fail()
        out = yield from f.global_view().read()
        outcome["recovered"] = np.array_equal(out, data)

    run(env, body())
    group = pfs.resilience.group
    outcome["drives_per_data_drive"] = (
        len(group.data_devices) + len(group.check_devices)
    ) / len(group.data_devices)
    return outcome


def scenario_backup_rollback():
    """Backups: single-disk restore corrupts; full rollback loses recent
    writes but restores consistency."""
    env, pfs = stack(4)
    devs = pfs.volume.devices
    f = pfs.create("striped", "S", n_records=64, record_size=16,
                   dtype="float64", records_per_block=4, stripe_unit=64)
    old = np.random.default_rng(1).random((64, 2))
    new = np.random.default_rng(2).random((64, 2))
    mgr = BackupManager(env, pfs.volume)
    outcome = {}

    def body():
        yield from f.global_view().write(old)
        bset = yield from mgr.take()
        v = f.global_view()
        v.seek(0)
        yield from v.write(new)          # post-backup writes
        devs[1].fail()
        # wrong: restore only the failed disk
        yield from mgr.restore_device(bset, 1)
        outcome["single_restore_old"] = verify_file(f, old)
        outcome["single_restore_new"] = verify_file(f, new)
        # right: roll everything back
        yield from mgr.restore_all(bset)
        outcome["full_rollback_old"] = verify_file(f, old)
        outcome["full_rollback_new"] = verify_file(f, new)

    run(env, body())
    return outcome


def timed_rebuild(protection, n, victim):
    """Simulated seconds for the hot-spare rebuilder to restore member
    ``victim`` of a group on equal drives."""
    env, pfs = stack(n, protection, spares=1)
    rv = pfs.resilience
    rv.group.drive(victim).fail()

    def body():
        t0 = env.now
        yield rv.rebuilder.start(victim)
        return env.now - t0

    return run(env, body())


def scenario_recovery_times():
    """Simulated time to complete each single-drive recovery path,
    same device class and capacity throughout."""
    times = {
        # width 3: each chunk reads the two surviving data drives and the
        # check drive, then writes the spare
        "parity rebuild": timed_rebuild("parity", 3, victim=1),
        # width 1: each chunk reads the mirror, then writes the spare
        "shadow resilver": timed_rebuild("shadow", 1, victim=0),
    }

    # backup rollback: every device rewritten from the backup set
    env, pfs = stack(4)
    mgr = BackupManager(env, pfs.volume)

    def backup_run():
        bset = yield from mgr.take()
        pfs.volume.devices[1].fail()
        t0 = env.now
        yield from mgr.restore_all(bset)
        times["backup full rollback"] = env.now - t0

    run(env, backup_run())
    return times


def e9_protection(quick: bool) -> dict:
    """One row per scheme: whether it covers striped and independent
    (PS/IS) writes, its extra devices, and — for the RMW parity ablation —
    the small-write cost relative to a bare write. Every outcome is
    measured by fault injection."""
    recovered_striped = scenario_parity_striped()
    recovered_indep = scenario_parity_independent()
    rmw = scenario_parity_rmw()
    shadow = scenario_shadow()
    bk = scenario_backup_rollback()
    rows = [
        {"scheme": "parity (sync)", "covers_striped": recovered_striped,
         "covers_independent": recovered_indep, "extra_devices": "1 per group"},
        {"scheme": "parity (RMW ablation)", "covers_striped": True,
         "covers_independent": rmw["recovered"], "extra_devices": "1 per group",
         "write_cost_ms": rmw["write_cost"] * 1e3, "bare_write_ms": rmw["bare_cost"] * 1e3,
         "write_cost_ratio": rmw["write_cost"] / rmw["bare_cost"]},
        {"scheme": "shadow", "covers_striped": True,
         "covers_independent": shadow["recovered"], "extra_devices": "1 per device",
         "independent_write_reads": shadow["write_reads"]},
        {"scheme": "backup+rollback", **bk},
    ]
    return {"rows": rows, "checks": {
        "parity_recovers_striped": recovered_striped,  # Kim's scheme works for striping
        "parity_refuses_independent": not recovered_indep,  # §5: "not applicable" to PS/IS
        "rmw_parity_recovers_independent": rmw["recovered"],  # the ablation covers PS/IS...
        # ...but a small write becomes 4 transfers in 3 serial phases (read
        # old data, read old parity, write both): 3x latency (and 4x
        # transfer traffic) versus the bare write. Issuing the two reads
        # together would make it 2 phases, and this check must move with it
        "rmw_write_costs_3x": rmw["write_cost"] >= 2.9 * rmw["bare_cost"],
        "shadow_recovers_independent": shadow["recovered"],  # shadowing covers everything
        "shadow_doubles_devices": shadow["drives_per_data_drive"] == 2,  # at 100% overhead
        # at width 1 every write is a whole row: data and copy, no reads
        "shadow_independent_writes_read_nothing": shadow["write_reads"] == 0,
        "single_disk_restore_matches_neither":
            not bk["single_restore_old"] and not bk["single_restore_new"],
        "full_rollback_restores_backup_point":
            bk["full_rollback_old"] and not bk["full_rollback_new"],
    }}


def e9_recovery_times(quick: bool) -> dict:
    """One row per single-drive recovery path: simulated seconds to
    recover on equal 1989 Winchester drives."""
    times = scenario_recovery_times()
    return {"rows": [{"path": k, "seconds": t} for k, t in times.items()], "checks": {
        # a shadow resilver copies one drive's worth of data; the parity
        # rebuild must also read every surviving member, so it cannot be
        # faster than the resilver on equal hardware
        "parity_rebuild_not_faster_than_resilver":
            times["parity rebuild"] >= times["shadow resilver"] * 0.9,
        # full rollback rewrites every device but in parallel: same order of
        # magnitude as one device copy
        "rollback_within_4x_resilver":
            times["backup full rollback"] < times["shadow resilver"] * 4,
        "every_path_takes_time": all(t > 0 for t in times.values()),
    }}
