"""Integration: the file system keeps serving through device and node death.

For every organization, a drive is killed mid-workload under parity or
shadow protection; the workload completes byte-identical to a failure-free
run, the hot spare is rebuilt and swapped in, and the sanitizers stay
clean throughout. The victim is a data drive or the drive that holds its
redundancy (the check drive, or the mirror), with the file data direct or
behind I/O nodes.
"""

import numpy as np
import pytest

from repro import build_parallel_fs
from repro.devices import DeviceFailedError, DiskGeometry, TransientFaultInjector
from repro.fs import verify_file
from repro.resilience import NodeFaultInjector, ResilienceConfig
from repro.sanitize import attach
from repro.sim import Environment, RngStreams
from repro.storage.parity import StaleParityError
from repro.trace import resilience_report

ORGS = ["S", "PS", "IS", "SS", "GDA", "PDA"]

N_RECORDS = 240
RECORD_SIZE = 32
RECORDS_PER_BLOCK = 6
N_PROCESSES = 4
GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=32)


def pattern():
    return (
        np.arange(N_RECORDS * RECORD_SIZE, dtype=np.uint64) % 251
    ).astype(np.uint8).reshape(N_RECORDS, RECORD_SIZE)


def build(env, protection, io_nodes=None, **over):
    kw = {"spares": 1, "auto_rebuild": True, **over}
    cfg = ResilienceConfig(protection=protection, **kw)
    return build_parallel_fs(
        env, 4, geometry=GEO, io_nodes=io_nodes, resilience=cfg
    )


def kill_device(pfs, protection, index=1):
    """Hard-fail one data device."""
    pfs.volume.devices[index].fail()


def victim_drive(pfs, protection, victim, index=1):
    """Data drive ``index``, or the check drive holding its redundancy
    (its mirror under shadowing)."""
    group = pfs.resilience.group
    if victim == "data":
        return group.data_devices[index]
    return group.check_devices[index // group.width]


def assert_redundant(pfs, protection):
    """Every check drive is the XOR of its group's data drives (a mirror
    equals its data drive), and no parity unit is stale."""
    group = pfs.resilience.group
    cap = group.capacity
    for k, check in enumerate(group.check_devices):
        members = group.data_devices[k * group.width:(k + 1) * group.width]
        xor = np.bitwise_xor.reduce([d.peek(0, cap) for d in members])
        assert np.array_equal(check.peek(0, cap), xor)
    assert group.stale_units == 0


#: (protection, victim, io_nodes) beyond the data-drive, direct-attached
#: cases of the two tests above them
VICTIM_AXES = [
    ("parity", "data", 2),
    ("parity", "check", None),
    ("parity", "check", 2),
    ("shadow", "data", 2),
    ("shadow", "check", None),
    ("shadow", "check", 2),
]
VICTIM_IDS = [f"{p}-{v}-{'nodes' if n else 'direct'}" for p, v, n in VICTIM_AXES]


def make_file(pfs, org):
    return pfs.create(
        f"file_{org}",
        org,
        n_records=N_RECORDS,
        record_size=RECORD_SIZE,
        records_per_block=RECORDS_PER_BLOCK,
        n_processes=N_PROCESSES,
    )


@pytest.mark.parametrize("org", ORGS)
@pytest.mark.parametrize("protection", ["parity", "shadow"])
def test_kill_one_device_mid_workload(org, protection):
    env = Environment()
    san = attach(env)
    pfs = build(env, protection)
    f = make_file(pfs, org)

    def run():
        yield f.write_records(0, pattern())
        kill_device(pfs, protection)  # dies with the read phase pending
        data = yield f.read_records(0, N_RECORDS)
        return data

    data = env.run(env.process(run()))
    env.run()  # drain the background hot-spare rebuild
    assert np.array_equal(data, pattern())  # served while degraded
    rv = pfs.resilience
    assert rv.stats.rebuilds_completed == 1  # the spare took over
    assert verify_file(f, pattern())  # post-rebuild media is byte-identical
    assert rv.stats.degraded_reads > 0
    assert rv.stats.reconstructed_bytes > 0
    assert rv.journal.pending(1) == 0
    san.assert_clean()


@pytest.mark.parametrize("org", ["S", "IS", "PDA"])
@pytest.mark.parametrize("protection", ["parity", "shadow"])
def test_kill_mid_write_under_concurrent_processes(org, protection):
    """The device dies while writes are in flight: journaled writes make
    the rebuilt media exact anyway, under parity and under shadowing."""
    env = Environment()
    san = attach(env)
    pfs = build(env, protection)
    f = make_file(pfs, org)

    def killer():
        yield env.timeout(0.002)  # strictly inside the write phase
        kill_device(pfs, protection)

    def run():
        env.process(killer())
        yield f.write_records(0, pattern())
        data = yield f.read_records(0, N_RECORDS)
        return data

    data = env.run(env.process(run()))
    env.run()
    assert np.array_equal(data, pattern())
    assert pfs.resilience.stats.rebuilds_completed == 1
    assert verify_file(f, pattern())
    san.assert_clean()


@pytest.mark.parametrize("org", ORGS)
@pytest.mark.parametrize("protection,victim,io_nodes", VICTIM_AXES, ids=VICTIM_IDS)
def test_kill_victim_mid_workload(org, protection, victim, io_nodes):
    """A drive dies between the write and the read phase: the read is
    served, the spare replaces the victim, and the redundancy holds again."""
    env = Environment()
    san = attach(env)
    pfs = build(env, protection, io_nodes=io_nodes)
    f = make_file(pfs, org)

    def run():
        yield f.write_records(0, pattern())
        victim_drive(pfs, protection, victim).fail()
        data = yield f.read_records(0, N_RECORDS)
        return data

    data = env.run(env.process(run()))
    env.run()
    assert np.array_equal(data, pattern())
    assert pfs.resilience.stats.rebuilds_completed == 1
    assert verify_file(f, pattern())
    assert_redundant(pfs, protection)
    if io_nodes:
        san.check_nodes_drained()
    san.assert_clean()


@pytest.mark.parametrize("org", ["S", "IS", "PDA"])
@pytest.mark.parametrize("protection,victim,io_nodes", VICTIM_AXES, ids=VICTIM_IDS)
def test_kill_victim_mid_write(org, protection, victim, io_nodes):
    """The victim dies while writes are in flight: every write returns,
    and the rebuilt stack holds the written records."""
    env = Environment()
    san = attach(env)
    pfs = build(env, protection, io_nodes=io_nodes)
    f = make_file(pfs, org)

    def killer():
        yield env.timeout(0.002)  # strictly inside the write phase
        victim_drive(pfs, protection, victim).fail()

    def run():
        env.process(killer())
        yield f.write_records(0, pattern())
        data = yield f.read_records(0, N_RECORDS)
        return data

    data = env.run(env.process(run()))
    env.run()
    assert np.array_equal(data, pattern())
    assert pfs.resilience.stats.rebuilds_completed == 1
    assert verify_file(f, pattern())
    if io_nodes:
        san.check_nodes_drained()
    san.assert_clean()


@pytest.mark.parametrize("org", ["S", "IS", "PDA"])
def test_device_kill_through_io_nodes(org):
    """Same scenario with the server-mediated plane: degraded reads and the
    rebuild run through the owning I/O node, and the node queues stay lawful."""
    env = Environment()
    san = attach(env)
    pfs = build(env, "parity", io_nodes=2)
    f = make_file(pfs, org)

    def run():
        yield f.write_records(0, pattern())
        kill_device(pfs, "parity")
        data = yield f.read_records(0, N_RECORDS)
        return data

    data = env.run(env.process(run()))
    env.run()
    assert np.array_equal(data, pattern())
    assert pfs.resilience.stats.rebuilds_completed == 1
    assert verify_file(f, pattern())
    san.check_nodes_drained()
    san.assert_clean()


def test_node_crash_and_transient_errors_with_device_kill():
    """The full storm: a node crash mid-workload, transient glitches on a
    survivor, and a hard device failure — every byte still arrives."""
    env = Environment()
    san = attach(env)
    pfs = build(env, "parity", io_nodes=2)
    rv = pfs.resilience
    assert rv.failover is not None  # wired by build_parallel_fs
    injector = NodeFaultInjector(env, rv.failover)
    faults = TransientFaultInjector(env, RngStreams(11))
    f = make_file(pfs, "IS")

    def run():
        yield f.write_records(0, pattern())
        faults.inject_errors(pfs.volume.devices[2], count=2)
        injector.crash_at(0, env.now + 0.001)
        kill_device(pfs, "parity")
        data = yield f.read_records(0, N_RECORDS)
        return data

    data = env.run(env.process(run()))
    env.run()
    assert np.array_equal(data, pattern())
    assert injector.crashes and rv.stats.failovers == 1
    assert rv.stats.retried_ops >= 1  # the glitches were retried, not fatal
    assert rv.stats.rebuilds_completed == 1
    assert verify_file(f, pattern())
    rv.failover.assert_settled()
    san.check_nodes_drained()
    san.assert_clean()


def test_synchronized_parity_surfaces_stale_reconstruction():
    """§5 made executable end to end: independent writes without parity
    maintenance leave stale units, and a degraded read over them refuses
    to fabricate bytes — it raises StaleParityError."""
    env = Environment()
    pfs = build(env, "parity", parity_mode="synchronized", auto_rebuild=False)
    f = make_file(pfs, "PS")
    outcome = []

    def run():
        yield f.write_records(0, pattern())
        # independent (non-full-stripe) update: parity goes stale
        yield f.write_records(3, pattern()[3:5])
        assert pfs.resilience.group.stale_units > 0
        pfs.volume.devices[0].fail()
        try:
            yield f.read_records(0, N_RECORDS)
        except StaleParityError:
            outcome.append("stale")

    env.run(env.process(run()))
    assert outcome == ["stale"]


def test_unprotected_config_still_retries_but_cannot_reconstruct():
    env = Environment()
    pfs = build(env, None, spares=0)
    faults = TransientFaultInjector(env, RngStreams(5))
    f = make_file(pfs, "S")
    outcome = []

    def run():
        yield f.write_records(0, pattern())
        faults.inject_errors(pfs.volume.devices[0], count=1)
        data = yield f.read_records(0, N_RECORDS)  # glitch retried
        pfs.volume.devices[0].fail()
        try:
            yield f.read_records(0, N_RECORDS)
        except DeviceFailedError:
            outcome.append("dead")
        return data

    data = env.run(env.process(run()))
    assert np.array_equal(data, pattern())
    assert pfs.resilience.stats.retried_ops >= 1
    assert outcome == ["dead"]


def test_resilience_report_renders_nonzero_counters():
    env = Environment()
    pfs = build(env, "parity")
    f = make_file(pfs, "S")

    def run():
        yield f.write_records(0, pattern())
        pfs.volume.devices[1].fail()
        yield f.read_records(0, N_RECORDS)
        yield f.write_records(0, pattern())  # degraded writes -> journal

    env.run(env.process(run()))
    env.run()
    rows = resilience_report(pfs.resilience)
    table = "\n".join(rows)
    assert "degraded reads" in table
    assert "rebuilds" in table
    stats = pfs.resilience.stats
    assert stats.degraded_reads > 0
    assert stats.rebuilds_completed == 1
    assert stats.degraded_read_latency.count > 0
    assert np.isfinite(stats.mttr_seconds)
