"""Regression: a one-sided data/parity write must poison parity, not lurk.

When one leg of a data/parity write pair exhausts its transient retries
(never touching media) while the counterpart lands, the check data no
longer XORs to on-media bytes — on *any* member, since reconstruction is
cross-device. The resilient volume must mark the range stale for every
member so a later degraded read or rebuild raises ``StaleParityError``
instead of silently fabricating wrong bytes.
"""

import numpy as np
import pytest

from repro import build_parallel_fs
from repro.devices import DiskGeometry
from repro.resilience import ResilienceConfig, RetryError, RetryPolicy
from repro.sim import Environment
from repro.storage import StripedLayout
from repro.storage.parity import StaleParityError

GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=8)  # 32 KiB
UNIT = 4096


def fill(dev, seed):
    data = (np.arange(dev.capacity_bytes, dtype=np.uint64) * seed % 251).astype(
        np.uint8
    )
    dev.poke(0, data)
    return data


def make_rv(env, mode="rmw"):
    """3 data devices + parity, consistent contents, 2-attempt retries."""
    cfg = ResilienceConfig(
        parity_mode=mode,
        parity_unit=UNIT,
        spares=0,
        retry=RetryPolicy(max_attempts=2, base_delay=1e-4, jitter=0.0),
    )
    pfs = build_parallel_fs(env, 3, geometry=GEO, resilience=cfg)
    rv = pfs.resilience
    group = rv.group
    devices = pfs.volume.devices
    parity = group.parity_device
    contents = [fill(d, i + 2) for i, d in enumerate(devices)]
    parity.poke(0, np.bitwise_xor.reduce(contents))
    layout = StripedLayout(3, UNIT)
    extent = pfs.volume.allocate(layout, 3 * UNIT)
    return rv, devices, parity, group, layout, extent, contents


def sabotage_writes(dev, n):
    """Make ``dev``'s next write — and its retries — glitch ``n`` times.

    The transient budget is granted on the first write *call*, so earlier
    reads on the same device (the RMW read phase) are unaffected: exactly
    the one-sided failure window where the counterpart write lands.
    """
    orig = dev.write
    armed = [True]

    def patched(offset, data):
        if armed[0]:
            armed[0] = False
            dev.transient_error_budget += n
        return orig(offset, data)

    dev.write = patched


def test_row_parity_retry_exhaustion_poisons_the_stripe():
    """Full-stripe write: data lands, parity write gives up -> stale."""
    env = Environment()
    rv, devices, parity, group, layout, extent, _ = make_rv(env)
    sabotage_writes(parity, 2)
    with pytest.raises(RetryError):
        env.run(rv.write(extent, layout, [(0, 3 * UNIT)], np.full(3 * UNIT, 7, np.uint8)))
    assert not group.reconstruct_safe(0, extent.base(0), UNIT)
    devices[1].fail()
    with pytest.raises(StaleParityError):
        env.run(rv.read(extent, layout, [(UNIT, UNIT)]))  # file unit 1 -> d1


def test_row_data_retry_exhaustion_poisons_other_members_too():
    """Full-stripe write: parity (XOR of *new* chunks) lands, one data
    write gives up -> reconstruction of ANY member over the row is unsafe."""
    env = Environment()
    rv, devices, parity, group, layout, extent, _ = make_rv(env)
    sabotage_writes(devices[0], 2)
    with pytest.raises(RetryError):
        env.run(rv.write(extent, layout, [(0, 3 * UNIT)], np.full(3 * UNIT, 9, np.uint8)))
    assert not group.reconstruct_safe(0, extent.base(0), UNIT)
    devices[1].fail()  # a member whose own write DID land
    with pytest.raises(StaleParityError):
        env.run(rv.read(extent, layout, [(UNIT, UNIT)]))


def test_rmw_parity_retry_exhaustion_poisons_the_range():
    """Independent RMW write: new data lands, parity update gives up."""
    env = Environment()
    rv, devices, parity, group, layout, extent, _ = make_rv(env, mode="rmw")
    sabotage_writes(parity, 2)
    with pytest.raises(RetryError):
        env.run(rv.write(extent, layout, [(0, UNIT)], np.full(UNIT, 5, np.uint8)))
    assert not group.reconstruct_safe(0, extent.base(0), UNIT)
    devices[0].fail()
    with pytest.raises(StaleParityError):
        env.run(rv.read(extent, layout, [(0, UNIT)]))


def test_rmw_data_retry_exhaustion_poisons_the_range():
    """Independent RMW write: new parity lands, data write gives up."""
    env = Environment()
    rv, devices, parity, group, layout, extent, _ = make_rv(env, mode="rmw")
    sabotage_writes(devices[0], 2)
    with pytest.raises(RetryError):
        env.run(rv.write(extent, layout, [(0, UNIT)], np.full(UNIT, 5, np.uint8)))
    assert not group.reconstruct_safe(0, extent.base(0), UNIT)
    devices[1].fail()  # cross-device: the poisoned unit covers d1 too
    with pytest.raises(StaleParityError):
        env.run(rv.read(extent, layout, [(UNIT, UNIT)]))


def test_both_legs_transient_leaves_media_consistent():
    """Precision check: when NEITHER leg touched media the pair still
    XORs — the range must stay reconstructable with the old contents."""
    env = Environment()
    rv, devices, parity, group, layout, extent, contents = make_rv(env, mode="rmw")
    sabotage_writes(parity, 2)
    sabotage_writes(devices[0], 2)
    with pytest.raises(RetryError):
        env.run(rv.write(extent, layout, [(0, UNIT)], np.full(UNIT, 5, np.uint8)))
    base = extent.base(0)
    assert group.reconstruct_safe(0, base, UNIT)  # nothing reached media
    devices[0].fail()
    data = env.run(rv.read(extent, layout, [(0, UNIT)]))
    assert np.array_equal(data, contents[0][base : base + UNIT])
