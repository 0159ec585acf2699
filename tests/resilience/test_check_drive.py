"""Regression: a check drive's death degrades the group; it fails no write,
and the rebuilder restores the drive.

A check drive is off the data path. A write that loses it landed on the
data drives, so the write stands and the group is stale over its range;
the failure is noted like a data drive's, and the hot-spare rebuilder
writes the XOR of the data drives to a spare.
"""

import numpy as np

from repro import build_parallel_fs
from repro.resilience import ResilienceConfig
from repro.sim import Environment

N_RECORDS = 64
RECORD_SIZE = 512


def records():
    n = N_RECORDS * RECORD_SIZE
    return (np.arange(n) % 251).astype(np.uint8).reshape(N_RECORDS, RECORD_SIZE)


def parity_stack(env, **over):
    cfg = ResilienceConfig(protection="parity", **{"spares": 0, **over})
    pfs = build_parallel_fs(env, 4, resilience=cfg)
    f = pfs.create("s", "S", n_records=N_RECORDS, record_size=RECORD_SIZE,
                   records_per_block=1, n_processes=4)
    return pfs, f


def test_check_drive_dying_under_a_write_does_not_fail_it():
    env = Environment()
    pfs, f = parity_stack(env)
    check = pfs.resilience.group.parity_device

    def killer():
        yield env.timeout(0.003)  # while the row writes are in flight
        check.fail()

    def run():
        env.process(killer())
        yield f.write_records(0, records())
        data = yield f.read_records(0, N_RECORDS)
        return data

    assert np.array_equal(env.run(env.process(run())), records())
    rv = pfs.resilience
    assert list(rv.failed_at) == [4]  # the check drive, member n_data + 0
    assert rv.group.stale_units > 0  # the rows it missed are unprotected


def test_failed_check_drive_is_rebuilt_and_the_group_fresh_again():
    env = Environment()
    pfs, f = parity_stack(env, spares=1, auto_rebuild=True)
    rv = pfs.resilience
    dead = rv.group.parity_device

    def run():
        yield f.write_records(0, records())
        dead.fail()
        yield f.write_records(0, records()[::-1])  # every write now goes stale

    env.run(env.process(run()))
    env.run()  # the background rebuild
    group = rv.group
    assert rv.stats.rebuilds_completed == 1
    assert group.parity_device is not dead and not group.parity_device.failed
    cap = dead.capacity_bytes
    xor = np.bitwise_xor.reduce([d.peek(0, cap) for d in pfs.volume.devices])
    assert np.array_equal(group.parity_device.peek(0, cap), xor)
    assert group.stale_units == 0
    assert rv.failed_at == {}
