"""Integration: the QoS layer composed with every organization and layer.

The acceptance bar from the ISSUE — for each of the six organizations,
tenants run a full write/read workload through qos + io_nodes +
resilience together; every byte arrives, the starvation and token-bucket
invariants hold (sanitizer-checked), failover replay preserves tenant
tags, and the reports render.
"""

import numpy as np
import pytest

from repro import QoSConfig, build_parallel_fs
from repro.devices import DiskGeometry
from repro.fs import verify_file
from repro.resilience import NodeFaultInjector, ResilienceConfig
from repro.sanitize import attach
from repro.sim import Environment
from repro.trace import device_table, ionode_report, qos_report

ORGS = ["S", "PS", "IS", "SS", "GDA", "PDA"]

N_RECORDS = 240
RECORD_SIZE = 32
RECORDS_PER_BLOCK = 6
N_PROCESSES = 4
GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=32)


def pattern(seed=0):
    return (
        (np.arange(N_RECORDS * RECORD_SIZE, dtype=np.uint64) + seed) % 251
    ).astype(np.uint8).reshape(N_RECORDS, RECORD_SIZE)


def build(env, io_nodes=2, resilience=True, **qos_over):
    cfg = (
        ResilienceConfig(protection="parity", spares=1, auto_rebuild=True)
        if resilience else None
    )
    return build_parallel_fs(
        env, 4, geometry=GEO, io_nodes=io_nodes,
        resilience=cfg, qos=QoSConfig(**qos_over),
    )


def make_file(pfs, org, name):
    return pfs.create(
        name,
        org,
        n_records=N_RECORDS,
        record_size=RECORD_SIZE,
        records_per_block=RECORDS_PER_BLOCK,
        n_processes=N_PROCESSES,
    )


def tenant_workload(f, seed):
    def run():
        yield f.write_records(0, pattern(seed))
        data = yield f.read_records(0, N_RECORDS)
        assert np.array_equal(data, pattern(seed))

    return run()


@pytest.mark.parametrize("org", ORGS)
def test_full_stack_two_tenants_every_org(org):
    """qos + io_nodes + resilience, two tenants, all six organizations."""
    env = Environment()
    san = attach(env)
    pfs = build(env)
    mgr = pfs.qos
    gold = mgr.tenant("gold", weight=3.0)
    bronze = mgr.tenant("bronze", weight=1.0)
    fg = make_file(pfs, org, f"gold_{org}")
    fb = make_file(pfs, org, f"bronze_{org}")

    mgr.spawn(gold, tenant_workload(fg, 1), name="gold-wl")
    mgr.spawn(bronze, tenant_workload(fb, 2), name="bronze-wl")
    env.run()

    assert verify_file(fg, pattern(1))
    assert verify_file(fb, pattern(2))
    # both tenants were actually billed through the node layer
    assert gold.ops > 0 and gold.serviced_bytes > 0
    assert bronze.ops > 0 and bronze.serviced_bytes > 0
    mgr.check_buckets()
    san.check_nodes_drained()
    san.assert_clean()  # includes: nobody starved, no bucket overrate


@pytest.mark.parametrize("org", ["S", "IS", "PDA"])
def test_rate_limited_tenant_respects_its_bucket(org):
    """A throttled tenant finishes later but never outruns its bucket."""
    env = Environment()
    san = attach(env)
    pfs = build(env)
    mgr = pfs.qos
    total = N_RECORDS * RECORD_SIZE  # 7680 bytes per pass
    slow = mgr.tenant("slow", rate=4 * total, burst=total // 4)
    f = make_file(pfs, org, f"slow_{org}")

    mgr.spawn(slow, tenant_workload(f, 3), name="slow-wl")
    env.run()

    assert verify_file(f, pattern(3))
    assert slow.bucket is not None and slow.bucket.conformant()
    assert slow.blocked.total > 0.0  # admission actually throttled it
    mgr.check_buckets()
    san.assert_clean()


def test_failover_replay_preserves_tenant_tags():
    """A node crash mid-workload: the replayed requests stay billed to the
    original tenant, not to the default tenant."""
    env = Environment()
    san = attach(env)
    pfs = build(env)
    mgr = pfs.qos
    rv = pfs.resilience
    assert rv.failover is not None
    injector = NodeFaultInjector(env, rv.failover)
    gold = mgr.tenant("gold", weight=3.0)
    f = make_file(pfs, "IS", "gold_failover")

    def run():
        yield f.write_records(0, pattern(4))
        injector.crash_at(0, env.now + 0.001)  # inside the read phase
        data = yield f.read_records(0, N_RECORDS)
        assert np.array_equal(data, pattern(4))

    mgr.spawn(gold, run(), name="gold-wl")
    env.run()

    assert injector.crashes and rv.stats.failovers == 1
    assert verify_file(f, pattern(4))
    assert gold.serviced_bytes > 0
    # nothing leaked to the default tenant: replay carried the tag
    assert mgr.default_tenant.serviced_bytes == 0
    rv.failover.assert_settled()
    san.check_nodes_drained()
    san.assert_clean()


def test_device_kill_under_qos_still_serves_degraded():
    """Parity reconstruction composes with QoS scheduling on the survivors."""
    env = Environment()
    san = attach(env)
    pfs = build(env)
    mgr = pfs.qos
    gold = mgr.tenant("gold")
    f = make_file(pfs, "PS", "gold_degraded")

    def run():
        yield f.write_records(0, pattern(5))
        pfs.volume.devices[1].fail()
        data = yield f.read_records(0, N_RECORDS)
        assert np.array_equal(data, pattern(5))

    mgr.spawn(gold, run(), name="gold-wl")
    env.run()  # drain the hot-spare rebuild too

    assert pfs.resilience.stats.degraded_reads > 0
    assert pfs.resilience.stats.rebuilds_completed == 1
    assert verify_file(f, pattern(5))
    san.assert_clean()


def test_direct_plane_without_nodes_or_resilience():
    """QoS alone (no io_nodes, no resilience) on the direct data plane."""
    env = Environment()
    san = attach(env)
    pfs = build(env, io_nodes=None, resilience=False)
    mgr = pfs.qos
    gold = mgr.tenant("gold", weight=2.0)
    f = make_file(pfs, "GDA", "gold_direct")

    mgr.spawn(gold, tenant_workload(f, 6), name="gold-wl")
    env.run()

    assert verify_file(f, pattern(6))
    assert gold.ops > 0  # billed at the device layer
    san.assert_clean()


def test_reports_render_with_qos_columns():
    env = Environment()
    pfs = build(env)
    mgr = pfs.qos
    gold = mgr.tenant("gold", weight=3.0)
    bronze = mgr.tenant("bronze", rate=10**6, burst=10**5)
    f = make_file(pfs, "S", "report_file")

    mgr.spawn(gold, tenant_workload(f, 7), name="gold-wl")
    env.run()

    devs = "\n".join(device_table(env, pfs.volume.devices))
    assert "w_p50" in devs and "w_p95" in devs and "w_max" in devs
    nodes = "\n".join(ionode_report(env, pfs.io_cluster))
    assert "w_p50" in nodes
    qos = "\n".join(qos_report(mgr))
    assert "gold" in qos and "bronze" in qos
    assert "starvations" in qos
    # the busy tenant shows a nonzero share; the idle one shows zero ops
    assert gold.ops > 0 and bronze.ops == 0
