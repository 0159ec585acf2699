"""The stack builder: every layer in its one order, wired to the others."""

import pytest

from repro.fs import build_parallel_fs
from repro.ionode import IONodeConfig, MediatedVolume
from repro.qos import QoSConfig, QoSDevicePolicy, TenantStore
from repro.resilience import ResilienceConfig, ResilientVolume
from repro.sim import Environment
from repro.storage import Volume

from .conftest import GEO


def full_stack(env, protection="parity"):
    return build_parallel_fs(
        env,
        4,
        geometry=GEO,
        scheduling="sstf",
        io_nodes=2,
        resilience=ResilienceConfig(protection=protection, spares=1),
        qos=QoSConfig(),
        batch_io=True,
    )


def test_full_stack_composes_every_layer():
    pfs = full_stack(Environment())
    rv = pfs.resilience
    assert pfs.data_plane is rv
    assert isinstance(rv.inner, MediatedVolume)
    assert rv.inner.cluster is pfs.io_cluster and rv.inner.volume is pfs.volume
    assert pfs.io_cluster.failover is not None
    assert rv.failover is pfs.io_cluster.failover
    assert all(isinstance(d.policy, QoSDevicePolicy) for d in pfs.volume.devices)
    assert all(isinstance(n.inbox, TenantStore) for n in pfs.io_cluster.nodes)
    # QoS schedules the data drives only: the check drive and the spare
    # keep the policy they were built with
    assert rv.group.parity_device.policy.name == "sstf"
    assert [s.policy.name for s in rv.rebuilder.spares] == ["sstf"]
    assert pfs.volume.coalesce
    assert pfs.qos is not None


@pytest.mark.parametrize("protection,width", [("parity", 4), ("shadow", 1)])
def test_protection_is_one_parity_group_of_derived_width(protection, width):
    pfs = full_stack(Environment(), protection=protection)
    rv = pfs.resilience
    group = rv.group
    assert group.width == width
    assert group.data_devices == pfs.volume.devices
    assert len(group.check_devices) == 4 // width
    names = ["parity"] if width == 4 else [f"parity{k}" for k in range(4)]
    assert [c.name for c in group.check_devices] == names
    for k, check in enumerate(group.check_devices):
        # off the data path and unscheduled by QoS; it reports its own death
        assert check.policy.name == "sstf"
        assert all(check not in n.devices.values() for n in pfs.io_cluster.nodes)
        check.fail()
        assert 4 + k in rv.failed_at


def test_data_plane_follows_the_layers_present():
    bare = build_parallel_fs(Environment(), 4)
    assert isinstance(bare.data_plane, Volume) and bare.data_plane is bare.volume
    assert bare.io_cluster is None and bare.resilience is None and bare.qos is None
    assert not bare.volume.coalesce

    nodes = build_parallel_fs(Environment(), 4, io_nodes=2)
    assert isinstance(nodes.data_plane, MediatedVolume)
    assert nodes.data_plane.cluster is nodes.io_cluster
    # no resilience layer, so no failover manager
    assert nodes.io_cluster.failover is None

    direct = build_parallel_fs(
        Environment(), 4, resilience=ResilienceConfig(protection=None, spares=0)
    )
    assert isinstance(direct.data_plane, ResilientVolume)
    assert direct.data_plane.inner is direct.volume
    assert direct.resilience.rebuilder is None


def test_int_io_nodes_is_shorthand_for_a_config():
    by_int = build_parallel_fs(Environment(), 4, io_nodes=2)
    by_config = build_parallel_fs(Environment(), 4, io_nodes=IONodeConfig(nodes=2))
    for a, b in zip(by_int.io_cluster.nodes, by_config.io_cluster.nodes):
        assert set(a.devices) == set(b.devices)
        assert (a.queue_depth, a.batch_limit) == (b.queue_depth, b.batch_limit)


def test_node_config_reaches_every_node():
    cfg = IONodeConfig(
        nodes=2, queue_depth=3, batch_limit=5, cache_blocks=8, cache_block_bytes=512,
    )
    pfs = build_parallel_fs(Environment(), 4, io_nodes=cfg)
    cluster = pfs.io_cluster
    assert [cluster.router.node_of(d) for d in range(4)] == [0, 0, 1, 1]
    for node in cluster.nodes:
        assert (node.queue_depth, node.batch_limit) == (3, 5)
        assert node.cache is not None


@pytest.mark.parametrize(
    "config",
    [
        IONodeConfig(nodes=0),
        IONodeConfig(nodes=5),
        IONodeConfig(nodes=2, queue_depth=0),
    ],
    ids=["no-nodes", "more-nodes-than-drives", "zero-queue"],
)
def test_bad_node_config_is_rejected_at_build(config):
    with pytest.raises(ValueError):
        build_parallel_fs(Environment(), 4, io_nodes=config)
