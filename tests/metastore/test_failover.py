"""Shard failover through the resilience layer's node-failure hook."""

import pytest

from repro.metastore import MetadataClient, MetadataService
from repro.metastore.harness import make_entry
from repro.resilience import FailoverManager, ResilienceConfig
from repro.sim import Environment

from ..fs.conftest import build_stack


def make_stack(env, n_nodes=2, n_shards=4):
    pfs = build_stack(env, io_nodes=n_nodes)
    cluster = pfs.io_cluster
    manager = FailoverManager(env, cluster)
    svc = MetadataService(n_shards=n_shards)
    for i in range(8):
        svc.create(f"file{i}", make_entry(f"file{i}"))
    svc.bind_failover(manager)
    return pfs, cluster, manager, svc


class TestShardFailover:
    def test_bind_assigns_round_robin_homes(self):
        env = Environment()
        _, _, _, svc = make_stack(env, n_nodes=2, n_shards=4)
        assert [s.home_node for s in svc.shards] == [0, 1, 0, 1]

    def test_node_death_rehomes_its_shards(self):
        env = Environment()
        _, _, manager, svc = make_stack(env, n_nodes=2, n_shards=4)
        manager.fail_node(0)
        # every shard now lives on the survivor
        assert all(s.home_node == 1 for s in svc.shards)
        # only the shards that moved count as failovers
        moved = [s for s in svc.shards if s.failovers == 1]
        assert len(moved) == 2
        assert svc.shard_failovers == 2
        assert svc.check_invariants() == []

    def test_failover_bumps_epochs_and_invalidates_leases(self):
        env = Environment()
        _, _, manager, svc = make_stack(env, n_nodes=2, n_shards=4)
        cli = MetadataClient(svc)
        for i in range(8):
            cli.lookup(f"file{i}")
        hits0 = cli.hits
        manager.fail_node(0)
        for i in range(8):
            cli.lookup(f"file{i}")
        # every lease minted against a moved shard was invalidated
        assert cli.invalidations > 0
        # leases on unmoved shards survive (their epoch did not change)
        assert cli.hits > hits0

    def test_failover_replays_interrupted_transaction(self):
        from repro.metastore.crash import InjectedCrash

        env = Environment()
        _, _, manager, svc = make_stack(env, n_nodes=2, n_shards=4)
        svc.injector.reset()
        svc.injector.arm(2)
        with pytest.raises(InjectedCrash):
            svc.create("wounded", make_entry("wounded"))
        # the node hosting the torn shard dies; failover replays journals
        manager.fail_node(0)
        assert "wounded" in svc
        assert svc.recoveries == 1
        assert svc.check_invariants() == []

    def test_unbound_service_is_untouched_by_node_death(self):
        env = Environment()
        pfs = build_stack(env, io_nodes=2)
        manager = FailoverManager(env, pfs.io_cluster)
        svc = MetadataService(n_shards=2)
        svc.create("a", make_entry("a"))
        manager.fail_node(0)
        assert svc.shard_failovers == 0

    def test_attach_metastore_binds_the_stack_failover(self):
        """On a stack with a node-failover manager, ``attach_metastore``
        binds the service to it: a node death re-homes the shards without
        a manual ``bind_failover``."""
        env = Environment()
        pfs = build_stack(
            env, io_nodes=2, resilience=ResilienceConfig(protection=None, spares=0)
        )
        svc = pfs.attach_metastore(shards=4)
        for i in range(4):
            pfs.create(f"f{i}", "S", n_records=8, record_size=16)
        pfs.io_cluster.failover.fail_node(0)
        assert svc.shard_failovers > 0
        assert svc.check_invariants() == []
