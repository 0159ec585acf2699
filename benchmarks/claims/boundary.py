"""E11 — §5, problem area 2: partition-boundary overlap.

    "One way of dealing with the problem is to replicate boundary data in
    both of the adjacent partitions in the file. This will cause
    difficulties for the global view of the file, since there will be
    redundant data records. An alternative is to cache boundary data in
    memory (if it will fit). This would be helpful if more than one pass
    is made through the file."

A 3-point stencil over a PS-partitioned vector, multi-pass, comparing:

* explicit — boundary records re-read from the file every pass;
* cached   — boundary records cached in memory after the first pass;
* replicate — the file stores halo copies; measured here as the file
  inflation + global-view redundancy the paper warns about, plus the cost
  of the dedup the global view then requires.
"""

import numpy as np

from repro import Environment, build_parallel_fs
from repro.core import HaloCache, ReplicatedPartitioning
from repro.core.mapping import PartitionedMap
from repro.core.blocks import BlockSpec
from repro.core.records import RecordSpec
from repro.devices import DiskGeometry
from repro.workloads import stencil_pass_cached, stencil_pass_explicit

from .common import fill, run_all

N = 4096
P = 8
RPB = 8
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=256)
PASSES = 4


def run_stencil(mode: str):
    env = Environment()
    pfs = build_parallel_fs(env, P, geometry=GEO)
    f = pfs.create(
        "vec", "PS", n_records=N, record_size=8, dtype="float64",
        records_per_block=RPB, n_processes=P,
    )

    fill(env, f, np.random.default_rng(0).random((N, 1)))
    caches = [HaloCache(16) for _ in range(P)]
    start = env.now
    for _ in range(PASSES):
        run_all(env, [
            stencil_pass_cached(f, q, caches[q]) if mode == "cached"
            else stencil_pass_explicit(f, q)
            for q in range(P)
        ])
    boundary_reads = sum(c.misses for c in caches) if mode == "cached" else None
    return env.now - start, boundary_reads


def replication_metrics(halo: int):
    ps = PartitionedMap(BlockSpec(RecordSpec(8, "float64"), RPB), N, P)
    rp = ReplicatedPartitioning(ps, halo)
    return rp.inflation, rp.redundant_records


def e11_boundary(quick: bool) -> dict:
    """Rows: elapsed for explicit boundary re-reads and for the halo
    cache (with its device boundary reads), then file inflation and
    global-view redundant records per replicated halo width."""
    t_explicit, _ = run_stencil("explicit")
    t_cached, misses = run_stencil("cached")
    repl = {h: replication_metrics(h) for h in (1, 4, 16, 64)}
    rows = [
        {"mode": "explicit", "passes": PASSES, "elapsed_ms": t_explicit * 1e3},
        {"mode": "cached", "passes": PASSES, "elapsed_ms": t_cached * 1e3,
         "device_boundary_reads": misses},
    ]
    rows += [
        {"halo": h, "inflation": infl, "redundant_records": redundant}
        for h, (infl, redundant) in repl.items()
    ]
    inflations = [repl[h][0] for h in (1, 4, 16, 64)]
    return {"rows": rows, "checks": {
        # caching wins on multi-pass runs (boundaries fetched once, not PASSES x)
        "cache_beats_rereads": t_cached < t_explicit,
        # first pass misses exactly the interior boundaries: 2 per interior
        # process-pair side
        "cache_misses_interior_boundaries_once": misses == 2 * (P - 1),
        # replication inflates the file monotonically with halo width, and the
        # redundancy the global view must dedup grows linearly
        "inflation_monotone": inflations == sorted(inflations),
        "halo1_redundancy": repl[1][1] == 2 * (P - 1),
        "halo64_redundancy": repl[64][1] == 64 * 2 * (P - 1),
    }}
