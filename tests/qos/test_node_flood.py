"""Flood tests: many clients against a bounded I/O-node inbox.

Satellite of the QoS PR — proves the admission bound holds under
saturation: every client completes, blocked-at-admission time is
accounted separately from queued time, tenants are billed for the
backpressure they absorb, and a crash mid-flood salvages every pending
request (QoS-scheduled inboxes included).
"""

import numpy as np
import pytest

from repro.devices import WREN_1989, DeviceController, DiskGeometry, DiskModel
from repro.ionode import IONode
from repro.qos import QoSConfig, QoSManager
from repro.sim import Environment

N_CLIENTS = 12


def make_node(env, **kwargs):
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)
    devices = {0: DeviceController(env, DiskModel(geo, WREN_1989), name="d0")}
    return IONode(env, "ion0", devices, **kwargs)


def flood(env, node, n_clients, done):
    def one(i):
        req = node.submit("read", [(0, (i % 8) * 512, 512)])
        yield req.admitted
        yield req.event
        done.append(i)

    for i in range(n_clients):
        env.process(one(i))


def test_flood_against_depth_one_inbox_all_complete():
    env = Environment()
    node = make_node(env, queue_depth=1, batch_limit=1)
    done = []
    flood(env, node, N_CLIENTS, done)
    env.run()
    assert sorted(done) == list(range(N_CLIENTS))
    assert node.accepted == node.completed == N_CLIENTS
    node.assert_drained()


def test_admission_blocking_is_accounted():
    env = Environment()
    node = make_node(env, queue_depth=1, batch_limit=1)
    done = []
    flood(env, node, N_CLIENTS, done)
    env.run()
    # every admission is observed; all but the first few had to wait
    assert node.admission_stat.count == N_CLIENTS
    assert node.admission_stat.max > 0.0
    assert node.admission_stat.percentile(95) > 0.0
    # blocked-at-admission and queued-in-inbox are separate clocks
    assert node.wait_stat.count == N_CLIENTS


def test_flooding_tenant_is_billed_for_backpressure():
    env = Environment()
    mgr = QoSManager(env, QoSConfig())
    node = make_node(env, queue_depth=1, batch_limit=1, qos=mgr)
    greedy = mgr.tenant("greedy")
    done = []

    def one(i):
        req = node.submit("read", [(0, (i % 8) * 512, 512)])
        yield req.admitted
        yield req.event
        done.append(i)

    for i in range(N_CLIENTS):
        mgr.spawn(greedy, one(i), name=f"client-{i}")
    env.run()
    assert len(done) == N_CLIENTS
    assert greedy.blocked.count == N_CLIENTS
    assert greedy.blocked.total > 0.0  # admission stalls were billed
    assert greedy.queued.count == N_CLIENTS
    assert greedy.service.count > 0
    node.assert_drained()


@pytest.mark.parametrize("with_qos", [False, True])
def test_crash_during_flood_salvages_every_pending_request(with_qos):
    env = Environment()
    mgr = QoSManager(env, QoSConfig()) if with_qos else None
    node = make_node(env, queue_depth=2, batch_limit=1, qos=mgr)
    statuses = []

    def one(i):
        req = node.submit("read", [(0, (i % 8) * 512, 512)])
        yield req.admitted
        statuses.append(req)

    for i in range(N_CLIENTS):
        env.process(one(i))

    salvaged = []

    def crasher():
        yield env.timeout(0.004)  # mid-flood: some served, some queued
        salvaged.extend(node.crash())

    env.process(crasher())
    env.run()
    # everything the node accepted is either completed or salvaged
    assert node.accepted == node.completed + node.migrated
    assert len(salvaged) == node.migrated
    assert node.migrated > 0, "crash must land while requests are pending"
    # salvaged requests carry everything a failover replay needs
    for req in salvaged:
        assert req.items and req.kind == "read"
    node.assert_drained()
