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

Each scenario injects a drive failure mid-run and reports whether the
data survived, what it cost in devices, and (for RMW parity — the
ablation) what it costs per small write.
"""

import numpy as np

from repro import Environment
from repro.devices import (
    WREN_1989,
    DeviceController,
    DiskGeometry,
    DiskModel,
    ShadowPair,
)
from repro.fs import BackupManager, ParallelFileSystem, verify_file
from repro.storage import ParityGroup, StaleParityError, Volume

from .common import run

GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)


def make_devices(env, n, prefix="d"):
    return [
        DeviceController(env, DiskModel(GEO, WREN_1989), name=f"{prefix}{i}")
        for i in range(n)
    ]


def parity_group(mode):
    """Three data drives and a check drive under one parity group."""
    env = Environment()
    data_devs = make_devices(env, 3)
    group = ParityGroup(env, data_devs, make_devices(env, 1, "p")[0], mode=mode)
    return env, data_devs, group


def scenario_parity_striped():
    """Synchronized (striped) writes + parity: single failure recovered."""
    env, data_devs, group = parity_group("synchronized")
    stripe = [bytes([i + 1]) * 4096 for i in range(3)]

    def body():
        yield group.write_stripe(0, stripe)
        data_devs[1].fail()
        rebuilt = yield group.reconstruct(1, 0, 4096)
        return bytes(rebuilt) == stripe[1]

    return run(env, body()), 1  # one extra device


def scenario_parity_independent():
    """PS/IS-style independent writes + parity: recovery refused (stale)."""
    env, data_devs, group = parity_group("synchronized")

    def body():
        yield group.write_stripe(0, [b"a" * 4096] * 3)
        # two processes write their own partitions independently
        yield group.write(0, 0, b"P0-data!" * 512)
        yield group.write(2, 0, b"P2-data!" * 512)
        data_devs[2].fail()
        try:
            yield group.reconstruct(2, 0, 4096)
            return True
        except StaleParityError:
            return False

    return run(env, body()), 1


def scenario_parity_rmw():
    """The ablation: RMW parity covers independent writes, at a cost."""
    env, data_devs, group = parity_group("rmw")
    payload = b"P2-data!" * 512
    outcome = {}

    def body():
        yield group.write_stripe(0, [b"a" * 4096] * 3)
        t0 = env.now
        yield group.write(2, 0, payload)
        outcome["write_cost"] = env.now - t0
        data_devs[2].fail()
        rebuilt = yield group.reconstruct(2, 0, 4096)
        outcome["recovered"] = bytes(rebuilt) == payload

    run(env, body())

    # baseline: the same write without parity maintenance
    env2 = Environment()
    dev = make_devices(env2, 1)[0]
    env2.run(dev.write(0, payload))
    outcome["bare_cost"] = env2.now
    return outcome


def scenario_shadow():
    """Shadowing covers any organization's single failure, at 2x devices."""
    env = Environment()
    pairs = [
        ShadowPair(env, *make_devices(env, 2, f"pair{i}_")) for i in range(2)
    ]
    vol = Volume(env, pairs)
    pfs = ParallelFileSystem(env, vol)
    f = pfs.create("mirrored", "PS", n_records=32, record_size=16,
                   dtype="float64", records_per_block=4, n_processes=2)
    data = np.random.default_rng(0).random((32, 2))

    def body():
        # independent PS writes — the case parity could not cover
        for q in range(2):
            h = f.internal_view(q)
            yield from h.write_next(data[f.map.records_of(q)])
        pairs[0].primary.fail()
        out = yield from f.global_view().read()
        return np.array_equal(out, data)

    return run(env, body()), 2  # one extra device per data device


def scenario_backup_rollback():
    """Backups: single-disk restore corrupts; full rollback loses recent
    writes but restores consistency."""
    env = Environment()
    devs = make_devices(env, 4)
    vol = Volume(env, devs)
    pfs = ParallelFileSystem(env, vol)
    f = pfs.create("striped", "S", n_records=64, record_size=16,
                   dtype="float64", records_per_block=4, stripe_unit=64)
    old = np.random.default_rng(1).random((64, 2))
    new = np.random.default_rng(2).random((64, 2))
    mgr = BackupManager(env, vol)
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


def scenario_recovery_times():
    """Simulated time to complete each single-drive recovery path,
    same device class and capacity throughout."""
    times = {}

    # parity rebuild: read all survivors + check disk, write replacement
    env, data_devs, group = parity_group("synchronized")
    cap = data_devs[0].capacity_bytes
    stripe = [bytes(cap), bytes(cap), bytes(cap)]

    def parity_run():
        yield group.write_stripe(0, stripe)
        data_devs[1].fail()
        t0 = env.now
        yield group.rebuild_device(1)
        times["parity rebuild"] = env.now - t0

    run(env, parity_run())

    # shadow resilver: stream survivor -> replacement
    env = Environment()
    pair = ShadowPair(env, *make_devices(env, 2, "m"))

    def shadow_run():
        yield pair.write(0, bytes(pair.capacity_bytes))
        pair.primary.fail()
        t0 = env.now
        yield from pair.resilver_timed(chunk_bytes=1 << 16)
        times["shadow resilver"] = env.now - t0

    run(env, shadow_run())

    # backup rollback: every device rewritten from the backup set
    env = Environment()
    devs = make_devices(env, 4)
    vol = Volume(env, devs)
    mgr = BackupManager(env, vol)

    def backup_run():
        bset = yield from mgr.take()
        devs[1].fail()
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
    recovered_striped, _ = scenario_parity_striped()
    recovered_indep, _ = scenario_parity_independent()
    rmw = scenario_parity_rmw()
    recovered_shadow, shadow_extra = scenario_shadow()
    bk = scenario_backup_rollback()
    rows = [
        {"scheme": "parity (sync)", "covers_striped": recovered_striped,
         "covers_independent": recovered_indep, "extra_devices": "1 per group"},
        {"scheme": "parity (RMW ablation)", "covers_striped": True,
         "covers_independent": rmw["recovered"], "extra_devices": "1 per group",
         "write_cost_ms": rmw["write_cost"] * 1e3, "bare_write_ms": rmw["bare_cost"] * 1e3,
         "write_cost_ratio": rmw["write_cost"] / rmw["bare_cost"]},
        {"scheme": "shadow", "covers_striped": True,
         "covers_independent": recovered_shadow, "extra_devices": "1 per device"},
        {"scheme": "backup+rollback", **bk},
    ]
    return {"rows": rows, "checks": {
        "parity_recovers_striped": recovered_striped,  # Kim's scheme works for striping
        "parity_refuses_independent": not recovered_indep,  # §5: "not applicable" to PS/IS
        "rmw_parity_recovers_independent": rmw["recovered"],  # the ablation covers PS/IS...
        # ...but a small write becomes 4 transfers in 2 serial phases: ~2x
        # latency (and 4x transfer traffic) versus the bare write
        "rmw_write_costs_2x": rmw["write_cost"] >= 1.9 * rmw["bare_cost"],
        "shadow_recovers_independent": recovered_shadow,  # shadowing covers everything
        "shadow_doubles_devices": shadow_extra == 2,  # at 100% device overhead
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
        # a shadow resilver streams one device's worth of data; the parity
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
