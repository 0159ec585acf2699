"""Ablation A3 — PDA buffer-cache size (§4: "buffer caching techniques
would be helpful when there is some locality of reference, as in the PDA
organization").

The locality curve: a working-set access pattern (90% of accesses to 10%
of each process's blocks) against a per-process block cache swept from 0
(uncached) to the full partition. Expected: hit rate and elapsed time
follow the classic knee — dramatic gains until the hot set fits, little
after.
"""

import numpy as np

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry

from .common import fill, run_all

RECORD = 4096
RPB = 4
BLOCKS_PER_PROCESS = 32
N_PROCESSES = 4
N_RECORDS = BLOCKS_PER_PROCESS * N_PROCESSES * RPB
N_ACCESSES = 300
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=512)
HOT_BLOCKS = 4   # ~ 12% of each partition


def run_cached_sweep(cache_blocks: int):
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    f = pfs.create(
        "ooc", "PDA", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=RPB, n_processes=N_PROCESSES,
    )

    fill(env, f)
    start = env.now
    rng = np.random.default_rng(9)
    handles = []

    def pager(q):
        h = (
            f.internal_view(q, cache_blocks=cache_blocks)
            if cache_blocks > 0
            else f.internal_view(q)
        )
        handles.append(h)
        owned = [int(b) for b in f.map.blocks_of(q)]
        hot = owned[:HOT_BLOCKS]
        for _ in range(N_ACCESSES):
            pool = hot if rng.random() < 0.9 else owned
            b = pool[int(rng.integers(0, len(pool)))]
            first = f.attrs.block_spec.first_record(b)
            yield from h.read_record(first, count=RPB)

    run_all(env, [pager(q) for q in range(N_PROCESSES)])
    elapsed = env.now - start
    if cache_blocks > 0:
        hits = sum(h.cache.hits for h in handles)
        misses = sum(h.cache.misses for h in handles)
        hit_rate = hits / (hits + misses)
    else:
        hit_rate = 0.0
    return elapsed, hit_rate


def a3_pda_cache(quick: bool) -> dict:
    """One row per cache size (blocks per process): elapsed and hit rate."""
    out = {c: run_cached_sweep(c) for c in (0, 1, 2, 4, 8, 32)}
    rows = [
        {"cache_blocks": c, "elapsed_ms": t * 1e3, "hit_rate": hr}
        for c, (t, hr) in out.items()
    ]
    times = {c: t for c, (t, _) in out.items()}
    hit = {c: hr for c, (_, hr) in out.items()}
    cs = [0, 1, 2, 4, 8, 32]
    return {"rows": rows, "checks": {
        # the knee: once the hot set (4 blocks) fits, most accesses hit
        "hot_set_fits_hit_rate": hit[4] > 0.75,
        "hot_set_fits_elapsed": times[4] < times[0] * 0.4,
        # beyond the knee, diminishing returns: each doubling buys less
        "diminishing_returns_past_knee": (times[4] - times[8]) < (times[2] - times[4]),
        "diminishing_returns_to_full": (times[8] - times[32]) < (times[4] - times[8]),
        # monotone improvement with cache size
        "monotone_in_cache_size": all(times[a] >= times[b] * 0.98 for a, b in zip(cs, cs[1:])),
    }}
