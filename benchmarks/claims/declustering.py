"""E4 — §4 (Livny et al. [2], Kim [3]): "declustering of files across
multiple drives (disk striping) provides performance improvements in a
database context ... by splitting blocks across multiple drives rather
than allocating whole blocks to individual drives, contention problems
caused by non-uniform access patterns are reduced."

An open transaction system against a GDA file on 4 drives: block-sized
transfers arrive at a fixed rate, targets drawn uniform or Zipf over
blocks. Two placements:

* ``whole-block`` — each 128 KB logical block on one drive (interleaved
  layout): a hot block means a hot *drive*;
* ``declustered`` — each block split across all 4 drives (striped with a
  32 KB unit): every access spreads over all arms.

Measured: mean/p95 transaction response time and per-drive utilization.
Expected shape (Livny): declustering wins response time, the win and the
utilization-balance gap grow with skew; whole-block's aggregate seek bill
is lower (its drives are less busy at uniform skew), which is the
trade-off their "most workloads" qualifier acknowledges.
"""

import numpy as np

from repro import Environment, RngStreams, build_parallel_fs
from repro.devices import DiskGeometry
from repro.workloads import uniform_pattern, zipf_pattern

from .common import fill, run

N_DEVICES = 4
RECORD = 4096
RPB = 32                        # 128 KB logical blocks
N_BLOCKS = 48
N_RECORDS = N_BLOCKS * RPB
BLOCK_BYTES = RECORD * RPB
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=512)
N_TX = 240
ARRIVAL_RATE = 12.0             # tx/s (below declustered saturation ~18)


def run_db(layout: str, skew: float):
    env = Environment()
    pfs = build_parallel_fs(env, N_DEVICES, geometry=GEO)
    kw = dict(stripe_unit=BLOCK_BYTES // N_DEVICES) if layout == "striped" else {}
    f = pfs.create(
        "db", "GDA", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=RPB, n_processes=1, layout=layout, **kw,
    )

    fill(env, f)
    for d in pfs.volume.devices:
        d.utilization._busy_total = 0.0
        d.utilization._t0 = env.now

    if skew == 0:
        targets = uniform_pattern(N_BLOCKS, N_TX, seed=11)
    else:
        targets = zipf_pattern(N_BLOCKS, N_TX, skew=skew, seed=11)
    streams = RngStreams(13)
    responses = []
    start = env.now

    def transaction(t):
        arrived = env.now
        first = int(targets[t]) * RPB
        yield f.read_records(first, RPB)
        responses.append(env.now - arrived)

    def arrivals():
        for t in range(N_TX):
            yield env.timeout(streams.exponential("arrive", 1.0 / ARRIVAL_RATE))
            env.process(transaction(t))

    run(env, arrivals())
    env.run()  # drain in-flight transactions
    utils = [
        d.utilization.utilization(env.now) for d in pfs.volume.devices
    ]
    resp = np.array(responses)
    return float(resp.mean()), float(np.percentile(resp, 95)), utils


def e4_declustering(quick: bool) -> dict:
    """One row per (skew, placement): mean and p95 response, per-drive
    utilization and its spread (imbalance)."""
    out = {
        (layout, skew): run_db(layout, skew)
        for skew in (0.0, 0.8, 1.4) for layout in ("interleaved", "striped")
    }
    rows = [
        {"skew": skew,
         "placement": "whole-block" if layout == "interleaved" else "declustered",
         "mean_resp_ms": mean * 1e3, "p95_ms": p95 * 1e3, "util": utils,
         "imbalance": max(utils) - min(utils)}
        for (layout, skew), (mean, p95, utils) in sorted(
            out.items(), key=lambda kv: (kv[0][1], kv[0][0])
        )
    ]
    checks = {}
    # declustering wins response time under skew, and balances the drives
    for skew in (0.8, 1.4):
        m_whole, _, u_whole = out[("interleaved", skew)]
        m_decl, _, u_decl = out[("striped", skew)]
        checks[f"declustered_faster_skew{skew}"] = m_decl < m_whole
        checks[f"declustered_balanced_skew{skew}"] = (
            max(u_decl) - min(u_decl) < max(u_whole) - min(u_whole)
        )
    # the response-time win grows with skew (hot-drive queueing explodes)
    gain = {
        s: out[("interleaved", s)][0] / out[("striped", s)][0]
        for s in (0.0, 0.8, 1.4)
    }
    checks["win_grows_with_skew"] = gain[1.4] > gain[0.0]
    return {"rows": rows, "checks": checks}
