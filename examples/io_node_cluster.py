"""I/O-node cluster: server-mediated parallel I/O (§4's dedicated I/O
processors).

Eight compute processes scan an interleaved (IS) file over four disks,
twice: once direct-attached, once routed through a two-node I/O cluster
with request aggregation and a server-side block cache. The cluster's
batch vantage point coalesces the clients' strided reads into fewer
device requests, and a re-read pass is absorbed by the shared cache.

Run:  python examples/io_node_cluster.py
"""

import numpy as np

from repro import Environment, IONodeConfig, build_parallel_fs
from repro.trace import device_table, ionode_report

N_DEVICES = 4
N_PROCESSES = 8
N_RECORDS = 960
RECORD_SIZE = 64
RECORDS_PER_BLOCK = 12


def scan(io_nodes: int | None, passes: int = 1):
    """All processes scan their IS stripes; returns (pfs, cluster, reqs)."""
    env = Environment()
    # queue_depth bounds each node's inbox (admission control);
    # cache_blocks turns on the shared server-side block cache
    config = IONodeConfig(
        nodes=io_nodes, queue_depth=N_PROCESSES, batch_limit=N_PROCESSES,
        cache_blocks=256, cache_block_bytes=4096,
    ) if io_nodes else None
    pfs = build_parallel_fs(env, n_devices=N_DEVICES, io_nodes=config)
    cluster = pfs.io_cluster
    f = pfs.create(
        "mesh.dat", "IS",
        n_records=N_RECORDS, record_size=RECORD_SIZE,
        records_per_block=RECORDS_PER_BLOCK, n_processes=N_PROCESSES,
    )

    def seed():
        yield from f.global_view().write(
            np.zeros((N_RECORDS, RECORD_SIZE), dtype=np.uint8)
        )

    env.run(env.process(seed()))
    before = sum(d.disk.total_requests for d in pfs.volume.devices)
    t0 = env.now

    def worker(p: int):
        for _ in range(passes):
            handle = f.internal_view(p)
            while not handle.eof:
                yield from handle.read_next(RECORDS_PER_BLOCK)

    def driver():
        yield env.all_of([env.process(worker(p)) for p in range(N_PROCESSES)])

    env.run(env.process(driver()))
    if cluster is not None:
        cluster.assert_drained()  # every accepted request was serviced
    reqs = sum(d.disk.total_requests for d in pfs.volume.devices) - before
    return pfs, cluster, reqs, env.now - t0


def main() -> None:
    print(f"{N_PROCESSES} processes scan an IS file on {N_DEVICES} disks\n")

    direct_pfs, _, direct_reqs, direct_t = scan(io_nodes=None)
    print(f"direct-attached : {direct_reqs:4d} device requests, "
          f"{direct_t * 1e3:7.1f} ms")

    _, cluster, mediated_reqs, mediated_t = scan(io_nodes=2)
    print(f"via 2 I/O nodes : {mediated_reqs:4d} device requests, "
          f"{mediated_t * 1e3:7.1f} ms  "
          f"(aggregation cut requests {direct_reqs / mediated_reqs:.1f}x)")

    _, cached, reread_reqs, reread_t = scan(io_nodes=2, passes=2)
    print(f"2 passes, cached: {reread_reqs:4d} device requests, "
          f"{reread_t * 1e3:7.1f} ms  "
          f"(server cache absorbs the re-read)\n")

    print("per-node table (2-pass cached run):")
    for row in ionode_report(cached.env, cached):
        print(f"  {row}")
    print()
    print("per-device table (direct run for comparison):")
    for row in device_table(direct_pfs.env, direct_pfs.volume.devices):
        print(f"  {row}")


if __name__ == "__main__":
    main()
