"""Integration: server-mediated I/O matches direct-attached, organization by
organization, and the sanitizers stay clean through the I/O-node path."""

import numpy as np
import pytest

from repro.fs import ParallelFileSystem, alternate_view
from repro.ionode import IONodeConfig
from repro.sanitize import AccessConflictDetector, attach
from repro.sim import Environment
from repro.trace import device_table, ionode_report

from ..fs.conftest import build_stack

ORGS = ["S", "PS", "IS", "SS", "GDA", "PDA"]

N_RECORDS = 240
RECORD_SIZE = 32
RECORDS_PER_BLOCK = 6
N_PROCESSES = 4


def pattern():
    return (
        np.arange(N_RECORDS * RECORD_SIZE, dtype=np.uint64) % 251
    ).astype(np.uint8).reshape(N_RECORDS, RECORD_SIZE)


def run_workload(pfs: ParallelFileSystem, org: str) -> np.ndarray:
    """Write the pattern, read it back, return the bytes the reader saw."""
    env = pfs.env
    f = pfs.create(
        f"file_{org}",
        org,
        n_records=N_RECORDS,
        record_size=RECORD_SIZE,
        records_per_block=RECORDS_PER_BLOCK,
        n_processes=N_PROCESSES,
    )

    def run():
        yield f.write_records(0, pattern())
        data = yield f.read_records(0, N_RECORDS)
        return data

    return env.run(env.process(run()))


@pytest.mark.parametrize("org", ORGS)
def test_mediated_bytes_match_direct(org):
    direct_env = Environment()
    direct = run_workload(build_stack(direct_env), org)

    mediated_env = Environment()
    pfs = build_stack(
        mediated_env,
        io_nodes=IONodeConfig(nodes=2, cache_blocks=32, cache_block_bytes=512),
    )
    mediated = run_workload(pfs, org)

    assert np.array_equal(direct, mediated)
    assert np.array_equal(mediated, pattern())
    pfs.io_cluster.assert_drained()
    assert pfs.io_cluster.total_device_requests > 0


@pytest.mark.parametrize("org", ["PS", "IS"])
def test_concurrent_internal_views_through_nodes(org):
    """Every process reads its own partition back through the node path."""
    env = Environment()
    sanitizer = attach(env)
    pfs = build_stack(env, io_nodes=IONodeConfig(nodes=2, queue_depth=4))
    f = pfs.create(
        f"file_{org}",
        org,
        n_records=N_RECORDS,
        record_size=RECORD_SIZE,
        records_per_block=RECORDS_PER_BLOCK,
        n_processes=N_PROCESSES,
    )

    def run_seed():
        yield f.write_records(0, pattern())

    env.run(env.process(run_seed()))
    seen: dict[int, np.ndarray] = {}

    def reader(p):
        handle = f.internal_view(p)
        n = handle.n_local_records
        if n:
            seen[p] = (yield from handle.read_next(n))

    for p in range(N_PROCESSES):
        env.process(reader(p))
    env.run()

    total = sum(len(a) for a in seen.values())
    assert total == N_RECORDS  # every record delivered to exactly one process
    sanitizer.check_nodes_drained()
    sanitizer.assert_clean()
    pfs.io_cluster.assert_drained()


@pytest.mark.parametrize("org", ["GDA", "PDA"])
def test_concurrent_direct_access_through_nodes(org):
    """Direct-access organizations: disjoint records, many clients at once."""
    env = Environment()
    sanitizer = attach(env)
    pfs = build_stack(
        env,
        io_nodes=IONodeConfig(
            nodes=2, queue_depth=4, cache_blocks=16, cache_block_bytes=512
        ),
    )
    f = pfs.create(
        f"file_{org}",
        org,
        n_records=N_RECORDS,
        record_size=RECORD_SIZE,
        records_per_block=RECORDS_PER_BLOCK,
        n_processes=N_PROCESSES,
    )
    data = pattern()

    def run_seed():
        yield f.write_records(0, data)

    env.run(env.process(run_seed()))
    mine = (
        {p: [int(r) for r in f.map.records_of(p)] for p in range(N_PROCESSES)}
        if org == "PDA"  # PDA records are owned; stay inside the partition
        else {p: list(range(p, N_RECORDS, N_PROCESSES)) for p in range(N_PROCESSES)}
    )
    seen: dict[int, list] = {p: [] for p in range(N_PROCESSES)}

    def reader(p):
        handle = f.internal_view(p)
        for rec in mine[p]:
            got = yield from handle.read_record(rec)
            seen[p].append((rec, got))

    for p in range(N_PROCESSES):
        env.process(reader(p))
    env.run()

    for p in range(N_PROCESSES):
        for rec, got in seen[p]:
            assert np.array_equal(np.asarray(got).reshape(-1), data[rec])
    sanitizer.check_nodes_drained()
    sanitizer.assert_clean()
    pfs.io_cluster.assert_drained()


def test_ps_written_is_read_mismatch_through_node():
    """The §5 organization-mismatch scenario survives server mediation:
    the access sanitizer still sees the stray accesses when every byte is
    routed through an I/O node."""
    env = Environment()
    engine_san = attach(env)
    detector = AccessConflictDetector()
    pfs = build_stack(env, io_nodes=2)
    pfs.sanitizer = detector
    f = pfs.create(
        "ps",
        "PS",
        n_records=64,
        record_size=16,
        records_per_block=8,
        n_processes=4,
    )
    handle = alternate_view(f, "IS", process=1)
    assert detector.findings_of("view-mismatch")

    def reader():
        yield from handle.read_next(handle.n_local_records)

    env.run(env.process(reader()))
    assert detector.findings_of("partition-boundary")
    engine_san.check_nodes_drained()
    engine_san.assert_clean()  # the node queues themselves stayed lawful
    pfs.io_cluster.assert_drained()


def test_reports_render_for_mediated_run():
    env = Environment()
    pfs = build_stack(
        env, io_nodes=IONodeConfig(nodes=2, cache_blocks=16, cache_block_bytes=512)
    )
    cluster = pfs.io_cluster
    run_workload(pfs, "IS")
    dev_rows = device_table(env, pfs.volume.devices)
    node_rows = ionode_report(env, cluster)
    assert len(dev_rows) == 1 + pfs.volume.n_devices
    assert len(node_rows) == 1 + len(cluster.nodes)
    assert "coalesce" in node_rows[0]
    assert all("ion" in row for row in node_rows[1:])
