"""Unit tests for the hot-spare rebuilder: one procedure for every member
of a parity group, at width n (parity) and width 1 (a mirror)."""

import numpy as np
import pytest

from repro import build_parallel_fs
from repro.devices import WREN_1989, DeviceController, DiskGeometry, DiskModel
from repro.resilience import HotSpareRebuilder, ResilienceConfig
from repro.sanitize import attach
from repro.sim import Environment
from repro.storage.parity import StaleParityError
from tests.resilience.groups import GroupStack

GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=8)  # 32 KiB
CAP = 512 * 8 * 8


def make_disk(env, name):
    return DeviceController(env, DiskModel(GEO, WREN_1989), name=name)


def make_parity_rv(env, n=3, mode="rmw"):
    """A three-drive parity stack with consistent, distinct contents."""
    stack = GroupStack(env, n, "parity", geometry=GEO, parity_mode=mode, parity_unit=4096)
    contents = stack.fill()
    return stack.rv, stack.data, contents


def test_can_rebuild_gating():
    env = Environment()
    rv, devices, _ = make_parity_rv(env)
    rb = HotSpareRebuilder(rv, [])
    assert not rb.can_rebuild(0)  # no spare
    rb = HotSpareRebuilder(rv, [make_disk(env, "sp")])
    assert not rb.can_rebuild(0)  # device is healthy
    devices[0].fail()
    assert rb.can_rebuild(0)
    with pytest.raises(RuntimeError):
        HotSpareRebuilder(rv, []).start(0)  # failed device but no spare


def test_rebuilder_validation():
    env = Environment()
    rv, _, _ = make_parity_rv(env)
    with pytest.raises(ValueError):
        HotSpareRebuilder(rv, [], chunk_bytes=0)
    with pytest.raises(ValueError):
        HotSpareRebuilder(rv, [], throttle=-1)


def test_parity_rebuild_restores_the_dead_device():
    env = Environment()
    san = attach(env)
    rv, devices, contents = make_parity_rv(env)
    spare = make_disk(env, "spare")
    rb = HotSpareRebuilder(rv, [spare], chunk_bytes=8192)
    rv.rebuilder = rb
    dead = devices[1]
    dead.fail()
    rv.failed_at[1] = env.now
    rb.start(1)
    assert rb.active == [1]
    env.run()
    assert rv.volume.devices[1] is spare
    assert rv.group.data_devices[1] is spare
    assert np.array_equal(spare.peek(0, CAP), contents[1])
    assert rb.active == []
    assert rv.stats.rebuilds_started == 1
    assert rv.stats.rebuilds_completed == 1
    assert rv.stats.rebuild_bytes >= CAP
    assert len(rv.stats.rebuild_times) == 1
    assert rv.stats.mttr_seconds == pytest.approx(rv.stats.rebuild_times[0])
    assert 1 not in rv.failed_at
    san.assert_clean()  # the rebuild verify reported ok


def test_parity_rebuild_replays_the_degraded_write_journal():
    env = Environment()
    rv, devices, contents = make_parity_rv(env)
    spare = make_disk(env, "spare")
    rb = HotSpareRebuilder(rv, [spare], chunk_bytes=8192)
    devices[2].fail()
    # degraded writes that arrived while the device was down
    patch = np.full(100, 77, dtype=np.uint8)
    rv.journal.record(2, 500, patch, env.now)
    rv.journal.record(2, 20000, patch, env.now)
    rb.start(2)
    env.run()
    expected = contents[2].copy()
    expected[500:600] = 77
    expected[20000:20100] = 77
    assert np.array_equal(spare.peek(0, CAP), expected)
    assert rv.stats.replayed_writes == 2
    assert rv.journal.pending(2) == 0  # cleared after the swap
    assert rv.journal.replayed == 2


def test_stale_parity_aborts_the_rebuild_and_returns_the_spare():
    env = Environment()
    rv, devices, _ = make_parity_rv(env, mode="synchronized")
    spare = make_disk(env, "spare")
    rb = HotSpareRebuilder(rv, [spare], chunk_bytes=8192)
    devices[0].fail()
    # an independent write on another member poisoned a shared unit
    rv.group.mark_stale(2, 8192, 4096)
    rb.start(0)
    env.run()
    assert rv.stats.rebuilds_started == 1
    assert rv.stats.rebuilds_completed == 0
    assert len(rb.failures) == 1
    index, exc = rb.failures[0]
    assert index == 0 and isinstance(exc, StaleParityError)
    assert rb.spares == [spare]  # the spare went back to the pool
    assert rv.volume.devices[0] is devices[0]  # no swap happened


def test_throttle_trades_repair_time_for_foreground_bandwidth():
    def mttr(throttle):
        env = Environment()
        rv, devices, _ = make_parity_rv(env)
        rb = HotSpareRebuilder(
            rv, [make_disk(env, "spare")], chunk_bytes=8192, throttle=throttle
        )
        devices[0].fail()
        rv.failed_at[0] = env.now
        rb.start(0)
        env.run()
        assert rv.stats.rebuilds_completed == 1
        return rv.stats.rebuild_times[0]

    flat_out = mttr(0.0)
    throttled = mttr(3.0)
    assert throttled > flat_out * 2  # ~4x, modulo non-chunk time


def test_shadow_rebuild_swaps_the_spare_into_the_pair():
    for victim in ("data", "check"):
        env = Environment()
        san = attach(env)
        pair = GroupStack(env, geometry=GEO)
        gold = pair.fill(3)[0]
        primary, shadow = pair.data[0], pair.check(0)
        rv = pair.rv
        spare = make_disk(env, "spare")
        rb = HotSpareRebuilder(rv, [spare], chunk_bytes=8192)
        index = 0 if victim == "data" else 1

        def scenario():
            (primary if victim == "data" else shadow).fail()
            rv.failed_at[index] = env.now
            assert rb.can_rebuild(index)
            rb.start(index)
            # a write lands while the rebuild is copying: the catch-up must
            # replay it (the journal, or the mirror's stale units)
            yield env.timeout(0.001)
            yield pair.write(0, 1000, np.full(50, 200, dtype=np.uint8))

        env.run(env.process(scenario()))
        env.run()
        if victim == "data":
            assert pair.data[0] is spare and pair.check(0) is shadow
        else:
            assert pair.data[0] is primary and pair.check(0) is spare
        expected = gold.copy()
        expected[1000:1050] = 200
        assert np.array_equal(spare.peek(0, CAP), expected)
        assert pair.redundant()
        assert rv.stats.rebuilds_completed == 1
        san.assert_clean()


def test_failed_check_drive_is_rebuilt_from_the_data_drives():
    env = Environment()
    rv, devices, contents = make_parity_rv(env)
    check = rv.group.check_devices[0]
    spare = make_disk(env, "spare")
    rv.rebuilder = HotSpareRebuilder(rv, [spare], chunk_bytes=8192)
    check.fail()
    assert rv.rebuilder.can_rebuild(3)
    rv.rebuilder.start(3)
    env.run()
    assert rv.group.check_devices[0] is spare
    assert np.array_equal(spare.peek(0, CAP), np.bitwise_xor.reduce(contents))
    assert rv.stats.rebuilds_completed == 1


def test_start_without_a_reason_raises():
    env = Environment()
    rv, devices, _ = make_parity_rv(env)
    rb = HotSpareRebuilder(rv, [make_disk(env, "spare")])
    with pytest.raises(RuntimeError):
        rb.start(0)  # device 0 is healthy


def test_a_replayed_write_the_check_data_missed_is_not_reconstructed_from_it():
    """An independent write to a dead drive reaches the journal, not the
    check drive. Once the rebuild replays it onto the spare, the check data
    no longer covers that range: a later reconstruction over it refuses
    instead of returning bytes that were never written."""
    env = Environment()
    cfg = ResilienceConfig(protection="parity", spares=1)
    pfs = build_parallel_fs(env, 4, geometry=GEO, resilience=cfg)
    f = pfs.create("ps", "PS", n_records=4, record_size=4096, n_processes=4)
    rv = pfs.resilience

    def run():
        yield f.write_records(0, np.full((4, 4096), 1, dtype=np.uint8))  # one row
        pfs.volume.devices[1].fail()
        yield from f.internal_view(1).write_next(np.full((1, 4096), 9, dtype=np.uint8))
        yield rv.rebuilder.start(1)
        pfs.volume.devices[0].fail()
        try:
            data = yield f.read_records(0, 1)
        except StaleParityError:
            return "refused"
        return "read back the old record" if (data == 1).all() else "fabricated"

    assert env.run(env.process(run())) == "refused"
    assert pfs.volume.devices[1].peek(0, 4096).tolist() == [9] * 4096  # replayed
