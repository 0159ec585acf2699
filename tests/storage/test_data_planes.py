"""Contract every data plane shares: payloads are sized in bytes, and no
request may leave the file's allocation.

``Volume``, ``MediatedVolume`` and ``ResilientVolume`` all plan through
:func:`repro.storage.layout.plan_batch` and size payloads through
:func:`repro.devices.as_payload`; both regressions below were reproduced
on all three before the fix.
"""

import numpy as np
import pytest

from repro.devices import WREN_1989, DeviceController, DiskGeometry, DiskModel
from repro.ionode import IONodeCluster, MediatedVolume
from repro.resilience import ResilienceConfig, ResilientVolume
from repro.sim import Environment
from repro.storage import StripedLayout, Volume

PLANES = ["direct", "mediated", "resilient", "resilient+batch"]


def make_plane(env, kind, n_devices=2):
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)
    devices = [
        DeviceController(env, DiskModel(geo, WREN_1989), name=f"d{i}")
        for i in range(n_devices)
    ]
    volume = Volume(env, devices)
    if kind == "direct":
        return volume
    if kind == "mediated":
        return MediatedVolume(volume, IONodeCluster.build(env, devices, 1))
    plane = ResilientVolume(volume, config=ResilienceConfig(protection=None, spares=0))
    plane.coalesce = kind.endswith("batch")
    return plane


def two_files(plane):
    """Two 256-byte striped files, back to back on both devices."""
    layout = StripedLayout(2, 64)
    a = plane.allocate(layout, 256)
    b = plane.allocate(layout, 256)
    return layout, a, b


# -- payloads are sized by bytes, not rows ---------------------------------------


@pytest.mark.parametrize("kind", PLANES)
def test_two_dimensional_payload_lands_like_its_ravel(kind):
    env = Environment()
    plane = make_plane(env, kind)
    layout, a, _ = two_files(plane)
    payload = (np.arange(32, dtype=np.uint8) + 1).reshape(4, 8)

    assert env.run(plane.write(a, layout, 16, payload)) == 32
    np.testing.assert_array_equal(plane.peek(a, layout, 16, 32), payload.ravel())
    env.run(plane.write_many(a, layout, [(64, 8), (160, 24)], payload))
    np.testing.assert_array_equal(plane.peek(a, layout, 64, 8), payload.ravel()[:8])
    np.testing.assert_array_equal(plane.peek(a, layout, 160, 24), payload.ravel()[8:])
    plane.poke(a, layout, 200, payload)
    np.testing.assert_array_equal(plane.peek(a, layout, 200, 32), payload.ravel())
    # untouched neighbours stay zero
    assert not plane.peek(a, layout, 0, 16).any()


def test_device_survives_a_two_dimensional_payload():
    # pre-fix the payload was queued as 4 bytes, the copy of 32 bytes into a
    # 4-byte slot raised inside the service loop, and the device never
    # served again
    env = Environment()
    dev = DeviceController(env, DiskModel(), name="d0")
    payload = (np.arange(32, dtype=np.uint8) + 1).reshape(4, 8)
    assert env.run(dev.write(100, payload)) == 32
    np.testing.assert_array_equal(dev.peek(100, 32), payload.ravel())
    np.testing.assert_array_equal(env.run(dev.read(100, 32)), payload.ravel())
    dev.poke(300, payload)
    np.testing.assert_array_equal(dev.peek(300, 32), payload.ravel())


# -- no I/O past the file's allocation ----------------------------------------------


@pytest.mark.parametrize("kind", PLANES)
def test_io_past_the_allocation_is_rejected(kind):
    env = Environment()
    plane = make_plane(env, kind)
    layout, a, b = two_files(plane)
    marker = np.full(256, 0xB5, dtype=np.uint8)
    env.run(plane.write(b, layout, 0, marker))
    spill = np.full(128, 0xEE, dtype=np.uint8)

    # pre-fix this overwrote the first 64 bytes of b on each device
    with pytest.raises(ValueError, match="allocation"):
        env.run(plane.write(a, layout, 256, spill))
    with pytest.raises(ValueError, match="allocation"):
        env.run(plane.read(a, layout, 192, 128))
    with pytest.raises(ValueError, match="allocation"):
        env.run(plane.write_many(a, layout, [(0, 64), (224, 64)], spill))
    with pytest.raises(ValueError, match="allocation"):
        env.run(plane.read_many(a, layout, [(0, 64), (224, 64)]))
    with pytest.raises(ValueError, match="allocation"):
        plane.poke(a, layout, 200, spill)
    with pytest.raises(ValueError, match="allocation"):
        plane.peek(a, layout, 200, 128)

    # nothing of the rejected submissions reached either file
    np.testing.assert_array_equal(plane.peek(b, layout, 0, 256), marker)
    assert not plane.peek(a, layout, 0, 256).any()
    # and the plane still serves I/O that fits, up to the last byte
    env.run(plane.write(a, layout, 128, spill))
    np.testing.assert_array_equal(env.run(plane.read(a, layout, 128, 128)), spill)
