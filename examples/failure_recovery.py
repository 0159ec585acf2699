"""Failure and recovery walkthrough (§5's reliability problem area).

Injects a drive failure into three protected configurations and shows
what each can and cannot recover:

1. parity group, synchronized striped writes  -> full recovery;
2. parity group, independent PS-style writes  -> recovery refused
   (stale parity — the paper's "does not appear to be applicable");
3. shadowed volume, independent writes        -> full recovery at 2x
   hardware;
4. backups: single-disk restore vs full rollback.

Parity and shadowing are one code, a parity group: ``protection="parity"``
gives one check drive to all the data drives, ``protection="shadow"`` one
to each, and the XOR of one drive is a copy.

Run:  python examples/failure_recovery.py
"""

import numpy as np

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry
from repro.fs import BackupManager, verify_file
from repro.resilience import ResilienceConfig
from repro.storage import StaleParityError

GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)


def protected(env, n, protection, mode="synchronized"):
    cfg = ResilienceConfig(protection=protection, parity_mode=mode, spares=0)
    return build_parallel_fs(env, n, geometry=GEO, resilience=cfg)


def parity_scenarios() -> None:
    stripe = np.arange(1, 4, dtype=np.uint8)[:, None].repeat(4096, axis=1)
    for independent in (False, True):
        env = Environment()
        pfs = protected(env, 3, "parity")
        disks = pfs.volume.devices
        f = pfs.create("state", "PS", n_records=3, record_size=4096, n_processes=3)

        def run():
            # synchronized striped write: every drive at once, parity maintained
            yield f.write_records(0, stripe)
            if not independent:
                disks[1].fail()
                rebuilt = yield f.read_records(0, 3)
                print(f"1. striped + parity: drive {disks[1].name} failed, reconstructed "
                      f"{'OK' if np.array_equal(rebuilt, stripe) else 'WRONG'}")
                return
            # independent (PS-style) write by process 2: parity NOT maintained
            yield from f.internal_view(2).write_next(np.full((1, 4096), 90, dtype=np.uint8))
            disks[2].fail()
            try:
                yield f.read_records(2, 1)
                print("2. independent + parity: recovered (unexpected!)")
            except StaleParityError as e:
                print(f"2. independent + parity: recovery REFUSED — {e}")

        env.run(env.process(run()))


def shadow_scenario() -> None:
    env = Environment()
    pfs = protected(env, 2, "shadow")
    f = pfs.create("state", "PS", n_records=32, record_size=16,
                   dtype="float64", records_per_block=4, n_processes=2)
    data = np.random.default_rng(0).random((32, 2))
    group = pfs.resilience.group

    def run():
        for q in range(2):
            h = f.internal_view(q)
            yield from h.write_next(data[f.map.records_of(q)])
        pfs.volume.devices[0].fail()
        out = yield from f.global_view().read()
        ok = np.array_equal(out, data)
        drives = len(group.data_devices) + len(group.check_devices)
        print(f"3. shadowed volume: drive disk0 failed mid-PS-workload, "
              f"file {'intact' if ok else 'CORRUPT'} "
              f"(cost: {drives} drives for {len(group.data_devices)} drives of data)")

    env.run(env.process(run()))


def backup_scenario() -> None:
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    devs = pfs.volume.devices
    f = pfs.create("db", "S", n_records=64, record_size=16, dtype="float64",
                   records_per_block=4, stripe_unit=64)
    old = np.random.default_rng(1).random((64, 2))
    new = np.random.default_rng(2).random((64, 2))
    mgr = BackupManager(env, pfs.volume)

    def run():
        yield from f.global_view().write(old)
        bset = yield from mgr.take()
        v = f.global_view()
        v.seek(0)
        yield from v.write(new)
        devs[1].fail()
        yield from mgr.restore_device(bset, 1)
        print(f"4a. single-disk restore: old intact={verify_file(f, old)}, "
              f"new intact={verify_file(f, new)}  <- neither: corrupt mix")
        yield from mgr.restore_all(bset)
        print(f"4b. full rollback:       old intact={verify_file(f, old)}, "
              f"new intact={verify_file(f, new)}  <- consistent, but "
              "post-backup writes lost")

    env.run(env.process(run()))


def main() -> None:
    parity_scenarios()
    shadow_scenario()
    backup_scenario()


if __name__ == "__main__":
    main()
