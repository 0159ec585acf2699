"""Unit tests for device->node routing and the mediated volume facade."""

import numpy as np
import pytest

from repro.devices import WREN_1989, DeviceController, DiskGeometry, DiskModel
from repro.ionode import (
    DeviceRouter,
    Interconnect,
    IONodeCluster,
    IONodeConfig,
    MediatedVolume,
)
from repro.sim import Environment
from repro.storage import Volume


def make_volume(env, n_devices=4):
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)
    devices = [
        DeviceController(env, DiskModel(geo, WREN_1989), name=f"d{i}")
        for i in range(n_devices)
    ]
    return Volume(env, devices)


# -- DeviceRouter -------------------------------------------------------------


def test_router_validation():
    with pytest.raises(ValueError):
        DeviceRouter(4, 0)
    with pytest.raises(ValueError):
        DeviceRouter(4, 5)


def test_contiguous_policy_bands():
    r = DeviceRouter(5, 2)
    assert [r.node_of(d) for d in range(5)] == [0, 0, 0, 1, 1]
    assert r.devices_of(0) == [0, 1, 2]
    assert r.devices_of(1) == [3, 4]


def test_every_device_owned_by_exactly_one_node():
    r = DeviceRouter(7, 3)
    owned = [d for n in range(3) for d in r.devices_of(n)]
    assert sorted(owned) == list(range(7))


# -- IONodeCluster ------------------------------------------------------------


def test_cluster_build_partitions_devices():
    env = Environment()
    vol = make_volume(env, 4)
    cluster = IONodeCluster.build(env, vol.devices, IONodeConfig(nodes=2))
    assert len(cluster.nodes) == 2
    assert set(cluster.nodes[0].devices) == {0, 1}
    assert set(cluster.nodes[1].devices) == {2, 3}
    assert cluster.node_of(3) is cluster.nodes[1]


def test_cluster_node_count_mismatch_rejected():
    env = Environment()
    vol = make_volume(env, 4)
    router = DeviceRouter(4, 2)
    nodes = IONodeCluster.build(env, vol.devices, IONodeConfig(nodes=1)).nodes
    with pytest.raises(ValueError):
        IONodeCluster(env, nodes, router)


def test_cluster_forwards_node_kwargs():
    env = Environment()
    vol = make_volume(env, 2)
    cluster = IONodeCluster.build(
        env, vol.devices, IONodeConfig(nodes=2, cache_blocks=8, queue_depth=3)
    )
    assert all(n.cache is not None for n in cluster.nodes)
    assert all(n.queue_depth == 3 for n in cluster.nodes)


# -- MediatedVolume -----------------------------------------------------------


def test_mediated_volume_width_mismatch_rejected():
    env = Environment()
    vol = make_volume(env, 4)
    narrow = make_volume(env, 2)
    cluster = IONodeCluster.build(env, narrow.devices, IONodeConfig(nodes=1))
    with pytest.raises(ValueError):
        MediatedVolume(vol, cluster)


def test_mediated_volume_delegates_management_plane():
    env = Environment()
    vol = make_volume(env, 4)
    mv = MediatedVolume(
        vol, IONodeCluster.build(env, vol.devices, IONodeConfig(nodes=2))
    )
    assert mv.env is env
    assert mv.volume is vol  # allocation and inspection stay on the volume


def test_poke_invalidates_node_cache():
    from repro.storage.layout import StripedLayout

    env = Environment()
    vol = make_volume(env, 2)
    cluster = IONodeCluster.build(
        env, vol.devices, IONodeConfig(nodes=1, cache_blocks=8, cache_block_bytes=512)
    )
    mv = MediatedVolume(vol, cluster)
    layout = StripedLayout(2, 512)
    extent = vol.allocate(layout, 2048)

    def run():
        yield mv.write(extent, layout, [(0, 512)], np.ones(512, np.uint8))
        yield mv.read(extent, layout, [(0, 512)])  # populate the cache

    env.run(env.process(run()))
    assert len(cluster.nodes[0].cache) > 0
    mv.poke(extent, layout, 0, np.zeros(512, np.uint8))
    assert len(cluster.nodes[0].cache) == 0

    def check():
        data = yield mv.read(extent, layout, [(0, 512)])
        return data

    assert np.array_equal(env.run(env.process(check())), np.zeros(512, np.uint8))


def test_interconnect_costs():
    ic = Interconnect(latency=1e-3, bandwidth=1e6, request_bytes=0)
    assert ic.request_cost() == pytest.approx(1e-3)
    assert ic.transfer_cost(1000) == pytest.approx(1e-3 + 1e-3)
    with pytest.raises(ValueError):
        Interconnect(latency=-1)
    with pytest.raises(ValueError):
        Interconnect(bandwidth=0)
