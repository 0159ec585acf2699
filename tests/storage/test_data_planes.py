"""Contract every data plane shares: the two-method protocol, payloads
sized in bytes, and no request leaving the file's allocation.

``Volume``, ``MediatedVolume`` and ``ResilientVolume`` each define
``read(extent, layout, ranges)`` and ``write(extent, layout, ranges,
data)``, plan through :func:`repro.storage.layout.plan_batch` with the
volume's one ``coalesce`` flag, and size payloads through
:func:`repro.devices.as_payload`; both regressions below were reproduced
on all three before the fix.
"""

import numpy as np
import pytest

from repro import build_parallel_fs
from repro.devices import WREN_1989, DeviceController, DiskGeometry, DiskModel
from repro.ionode import IONodeCluster, IONodeConfig, MediatedVolume
from repro.resilience import ResilienceConfig, ResilientVolume
from repro.sim import Environment
from repro.storage import StripedLayout, Volume
from repro.storage.layout import plan_batch

PLANES = ["direct", "mediated", "resilient", "resilient+batch"]


def make_plane(env, kind, n_devices=2):
    """The volume and the plane of ``kind`` over it."""
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)
    devices = [
        DeviceController(env, DiskModel(geo, WREN_1989), name=f"d{i}")
        for i in range(n_devices)
    ]
    volume = Volume(env, devices)
    volume.coalesce = kind.endswith("batch")
    if kind == "direct":
        return volume, volume
    if kind == "mediated":
        return volume, MediatedVolume(
            volume, IONodeCluster.build(env, devices, IONodeConfig(nodes=1))
        )
    return volume, ResilientVolume(volume, config=ResilienceConfig(protection=None, spares=0))


def two_files(volume):
    """Two 256-byte striped files, back to back on both devices."""
    layout = StripedLayout(2, 64)
    a = volume.allocate(layout, 256)
    b = volume.allocate(layout, 256)
    return layout, a, b


@pytest.mark.parametrize("kind", PLANES)
def test_every_plane_defines_the_two_io_methods(kind):
    _, plane = make_plane(Environment(), kind)
    io = {"read", "write", "read_many", "write_many"}
    assert {name for name in io if hasattr(plane, name)} == {"read", "write"}
    assert not hasattr(plane, "coalesce") or isinstance(plane, Volume)


# -- payloads are sized by bytes, not rows ---------------------------------------


@pytest.mark.parametrize("kind", PLANES)
def test_two_dimensional_payload_lands_like_its_ravel(kind):
    env = Environment()
    volume, plane = make_plane(env, kind)
    layout, a, _ = two_files(volume)
    payload = (np.arange(32, dtype=np.uint8) + 1).reshape(4, 8)

    assert env.run(plane.write(a, layout, [(16, 32)], payload)) == 32
    np.testing.assert_array_equal(volume.peek(a, layout, 16, 32), payload.ravel())
    assert env.run(plane.write(a, layout, [(64, 8), (160, 24)], payload)) == 32
    np.testing.assert_array_equal(volume.peek(a, layout, 64, 8), payload.ravel()[:8])
    np.testing.assert_array_equal(volume.peek(a, layout, 160, 24), payload.ravel()[8:])
    np.testing.assert_array_equal(
        env.run(plane.read(a, layout, [(64, 8), (160, 24)])), payload.ravel()
    )
    volume.poke(a, layout, 200, payload)
    np.testing.assert_array_equal(volume.peek(a, layout, 200, 32), payload.ravel())
    # untouched neighbours stay zero
    assert not volume.peek(a, layout, 0, 16).any()


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
    volume, plane = make_plane(env, kind)
    layout, a, b = two_files(volume)
    marker = np.full(256, 0xB5, dtype=np.uint8)
    env.run(plane.write(b, layout, [(0, 256)], marker))
    spill = np.full(128, 0xEE, dtype=np.uint8)

    # pre-fix this overwrote the first 64 bytes of b on each device
    with pytest.raises(ValueError, match="allocation"):
        env.run(plane.write(a, layout, [(256, 128)], spill))
    with pytest.raises(ValueError, match="allocation"):
        env.run(plane.read(a, layout, [(192, 128)]))
    with pytest.raises(ValueError, match="allocation"):
        env.run(plane.write(a, layout, [(0, 64), (224, 64)], spill))
    with pytest.raises(ValueError, match="allocation"):
        env.run(plane.read(a, layout, [(0, 64), (224, 64)]))
    with pytest.raises(ValueError, match="allocation"):
        volume.poke(a, layout, 200, spill)
    with pytest.raises(ValueError, match="allocation"):
        volume.peek(a, layout, 200, 128)

    # nothing of the rejected submissions reached either file
    np.testing.assert_array_equal(volume.peek(b, layout, 0, 256), marker)
    assert not volume.peek(a, layout, 0, 256).any()
    # and the plane still serves I/O that fits, up to the last byte
    env.run(plane.write(a, layout, [(128, 128)], spill))
    np.testing.assert_array_equal(env.run(plane.read(a, layout, [(128, 128)])), spill)


@pytest.mark.parametrize("kind", PLANES)
def test_payload_size_must_match_the_ranges(kind):
    env = Environment()
    volume, plane = make_plane(env, kind)
    layout, a, _ = two_files(volume)
    with pytest.raises(ValueError, match="ranges cover 96 bytes, data has 64"):
        env.run(plane.write(a, layout, [(0, 32), (64, 64)], np.ones(64, np.uint8)))
    assert not volume.peek(a, layout, 0, 256).any()


# -- one batching flag ---------------------------------------------------------------


def test_one_set_batching_reaches_every_layer():
    """On an io_nodes + resilience stack, setting ``volume.coalesce``
    reaches the volume, the I/O nodes and the resilience layer: a
    two-range striped gather ships and issues exactly the coalesced
    plan's requests (one per device), not one per stripe unit; cleared
    again, the same gather ships one item per stripe unit."""
    env = Environment()
    pfs = build_parallel_fs(
        env, 4, io_nodes=2, resilience=ResilienceConfig(protection=None, spares=0)
    )
    pfs.volume.coalesce = True
    f = pfs.create("f", "S", n_records=16, record_size=512, stripe_unit=512)
    runs = [(0, 4), (4, 4)]
    ranges = [(0, 2048), (2048, 2048)]
    coalesced = len(plan_batch(f.layout, ranges, coalesce=True).requests)
    per_unit = len(plan_batch(f.layout, ranges, coalesce=False).requests)
    assert coalesced == 4 < per_unit

    def requests():
        return sum(d.disk.total_requests for d in pfs.volume.devices)

    def items():
        return sum(n.items_in for n in pfs.io_cluster.nodes)

    before = requests()
    env.run(f.read_gather(runs))
    assert requests() - before == coalesced
    assert items() == coalesced

    pfs.volume.coalesce = False
    before = items()
    env.run(f.read_gather(runs))
    assert items() - before == per_unit
