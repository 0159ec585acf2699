"""X6 — §4: dedicated I/O processors. Server-mediated access trades an
interconnect round-trip per request for the server's batch vantage point:
requests from many clients coalesce into fewer, larger device transfers,
and a server-side cache absorbs re-reads entirely.

P processes scan an IS (interleaved) file over D devices, direct-attached
versus routed through an I/O-node cluster. The scientific outputs are
*device request counts* (the aggregation win) and cache hit rates (the
locality win) — the simulated-time trade is reported alongside.

Quick mode shrinks the workload and the node-count sweep.
"""

import math

import numpy as np

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry

from .common import fill, run_all

D = 4  # devices
P = 8  # client processes
RECORD = 512
RPB = 8  # records per block -> 4096-byte blocks
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=32, cylinders=256)


def params(quick: bool):
    """(blocks per process, node-count sweep)."""
    return (8, (2,)) if quick else (32, (1, 2, 4))


def device_requests(pfs) -> int:
    return sum(d.disk.total_requests for d in pfs.volume.devices)


def run_is_scan(blocks_per_proc: int, io_nodes: int | None, cache_blocks: int = 0,
                passes: int = 1):
    """P clients scan their IS stripes ``passes`` times; returns metrics."""
    env = Environment()
    pfs = build_parallel_fs(env, D, geometry=GEO)
    cluster = None
    if io_nodes:
        cluster = pfs.attach_io_nodes(
            io_nodes,
            cache_blocks=cache_blocks,
            cache_block_bytes=GEO.block_size,
            queue_depth=P,
            batch_limit=P,
        )
    n_records = P * blocks_per_proc * RPB
    f = pfs.create(
        "scan", "IS", n_records=n_records, record_size=RECORD,
        records_per_block=RPB, n_processes=P,
    )

    fill(env, f)
    reqs_before = device_requests(pfs)
    t0 = env.now

    def worker(q):
        for _ in range(passes):
            h = f.internal_view(q)
            while not h.eof:
                yield from h.read_next(RPB)  # one strided block per call

    run_all(env, [worker(q) for q in range(P)])
    if cluster is not None:
        cluster.assert_drained()
    return {
        "elapsed": env.now - t0,
        "read_reqs": device_requests(pfs) - reqs_before,
        "cluster": cluster,
        "env": env,
    }


def _finite(x: float):
    return None if math.isnan(x) else x


def node_row(env, node) -> dict:
    """One I/O node's statistics: requests serviced, busy utilization,
    time-weighted queue depth, coalescing ratio (client items per device
    request), sieved batches, cache hit rate and inbox-wait percentiles."""
    w = node.wait_stat
    return {
        "node": node.name, "devs": len(node.devices), "reqs": node.completed,
        "util": node.utilization.utilization(env.now),
        "q_mean": _finite(node.queue_stat.mean(env.now)) or 0.0,
        "q_max": node.queue_stat.max, "coalesce": _finite(node.coalescing_ratio),
        "sieved": node.sieved_batches,
        "cache_hit": node.cache.hit_rate if node.cache is not None else None,
        "w_p50_ms": w.percentile(50) * 1e3 if w.count else None,
        "w_p95_ms": w.percentile(95) * 1e3 if w.count else None,
        "w_max_ms": w.max * 1e3 if w.count else None,
    }


def x6_io_nodes(quick: bool) -> dict:
    """One row per configuration (device requests, elapsed, mean
    coalescing ratio and cache hit rate over the nodes), then one
    :func:`node_row` per node of the cached re-read configuration."""
    blocks, sweep = params(quick)
    out = {"direct": run_is_scan(blocks, None)}
    for n in sweep:
        out[f"ion{n}"] = run_is_scan(blocks, n)
    out["direct-reread"] = run_is_scan(blocks, None, passes=2)
    out["cached-reread"] = run_is_scan(
        blocks, sweep[-1], cache_blocks=P * blocks, passes=2
    )
    rows = []
    for label, m in out.items():
        nodes = m["cluster"].nodes if m["cluster"] is not None else []
        rows.append({
            "config": label, "device_reqs": m["read_reqs"],
            "elapsed_ms": m["elapsed"] * 1e3,
            "coalesce": np.mean([n.coalescing_ratio for n in nodes]) if nodes else None,
            "cache_hit": np.mean([n.cache.hit_rate for n in nodes])
            if nodes and nodes[0].cache else None,
        })
    cached = out["cached-reread"]["cluster"]
    rows += [node_row(out["cached-reread"]["env"], n) for n in cached.nodes]
    return {"rows": rows, "checks": {
        # the acceptance claim: the server's batch view coalesces the strided
        # IS read traffic into strictly fewer device requests than direct
        "aggregation_cuts_device_requests":
            out[f"ion{sweep[-1]}"]["read_reqs"] < out["direct"]["read_reqs"],
        # caching: the second pass is absorbed server-side
        "cache_absorbs_reread":
            out["cached-reread"]["read_reqs"] < out["direct-reread"]["read_reqs"],
        "cache_hits": any(n.cache.hits > 0 for n in cached.nodes),
    }}


def x6_node_sweep(quick: bool) -> dict:
    """More nodes -> narrower batches per node (less cross-client view)
    but more service parallelism; one row per node count records the
    trade. Every cluster must drain."""
    blocks, sweep = params(quick)
    rows = []
    for n in sweep:
        m = run_is_scan(blocks, n)
        m["cluster"].assert_drained()
        rows.append({"nodes": n, "clients_per_node": P // n,
                     "device_reqs": m["read_reqs"], "elapsed_ms": m["elapsed"] * 1e3})
    return {"rows": rows, "checks": {}}
