"""Unit tests for the hot-spare rebuilder (parity and shadow sources)."""

import numpy as np
import pytest

from repro.devices import (
    WREN_1989,
    DeviceController,
    DiskGeometry,
    DiskModel,
    ShadowPair,
)
from repro.resilience import (
    HotSpareRebuilder,
    ResilienceConfig,
    ResilientVolume,
)
from repro.sanitize import attach
from repro.sim import Environment
from repro.storage import Volume
from repro.storage.parity import ParityGroup, StaleParityError

GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=8)  # 32 KiB
CAP = 512 * 8 * 8


def make_disk(env, name):
    return DeviceController(env, DiskModel(GEO, WREN_1989), name=name)


def fill(dev, seed):
    data = (np.arange(dev.capacity_bytes, dtype=np.uint64) * seed % 251).astype(
        np.uint8
    )
    dev.poke(0, data)
    return data


def make_parity_rv(env, n=3, mode="rmw"):
    """Volume + consistent parity group + resilient wrapper."""
    devices = [make_disk(env, f"d{i}") for i in range(n)]
    parity = make_disk(env, "par")
    contents = [fill(d, i + 2) for i, d in enumerate(devices)]
    xor = np.zeros(CAP, dtype=np.uint8)
    for c in contents:
        np.bitwise_xor(xor, c, out=xor)
    parity.poke(0, xor)
    volume = Volume(env, devices)
    group = ParityGroup(env, devices, parity, mode=mode, parity_unit=4096)
    cfg = ResilienceConfig(parity_mode=mode, spares=0)
    rv = ResilientVolume(volume, group=group, config=cfg)
    return rv, devices, contents


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
    env = Environment()
    san = attach(env)
    primary = make_disk(env, "p")
    shadow = make_disk(env, "s")
    gold = fill(primary, 3)
    shadow.poke(0, gold)
    pair = ShadowPair(env, primary, shadow)
    volume = Volume(env, [pair])
    cfg = ResilienceConfig(protection="shadow", spares=0)
    rv = ResilientVolume(volume, config=cfg)
    spare = make_disk(env, "spare")
    rb = HotSpareRebuilder(rv, [spare], chunk_bytes=8192)

    def scenario():
        primary.fail()
        rv.failed_at[0] = env.now
        assert rb.can_rebuild(0)
        rb.start(0)
        # a write lands while the rebuild is copying: the catch-up loop
        # must replay it from the pair's dirty log
        yield env.timeout(0.001)
        yield pair.write(1000, np.full(50, 200, dtype=np.uint8))

    env.run(env.process(scenario()))
    env.run()
    assert pair.primary is spare and pair.shadow is shadow
    assert not pair.degraded
    expected = gold.copy()
    expected[1000:1050] = 200
    assert np.array_equal(spare.peek(0, CAP), expected)
    assert np.array_equal(shadow.peek(0, CAP), expected)
    assert pair.dirty_ranges() == []
    assert rv.stats.rebuilds_completed == 1
    san.assert_clean()


def test_start_without_a_reason_raises():
    env = Environment()
    rv, devices, _ = make_parity_rv(env)
    rb = HotSpareRebuilder(rv, [make_disk(env, "spare")])
    with pytest.raises(RuntimeError):
        rb.start(0)  # device 0 is healthy
