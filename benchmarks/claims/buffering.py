"""E5 — §4: "Initial experiments using the S and SS organizations have
shown that buffering overheads can be a significant factor in limiting
speedups. The sequential organizations can mitigate this effect through
the use of multiple buffering and dedicated I/O processors. Since the
order of accesses is predictable, reading ahead and deferred writing can
be used to overlap I/O operations with computation."

An S-type scan with per-block compute, swept over buffer depth:

* depth 0 — single buffering: elapsed ~ I/O + compute (serial);
* depth >= 1 — read-ahead by a dedicated I/O producer: elapsed ~
  max(I/O, compute) plus pipeline fill;

plus the copy-overhead sweep that shows buffering cost itself limiting
the speedup, and the write-side (deferred writing) mirror.
"""

import numpy as np

from repro import Environment, build_parallel_fs
from repro.buffering import BufferPool, WriteStream
from repro.devices import DiskGeometry

from .common import fill, run

RECORD = 4096
RPB = 16                    # 64 KB blocks
N_RECORDS = 64 * RPB        # 64 blocks, 4 MB
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=32, cylinders=256)
COMPUTE_PER_BLOCK = 0.060   # s — comparable to one block's I/O time


def run_read_side(depth: int, copy_cost: float = 0.0, compute: float = COMPUTE_PER_BLOCK):
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    f = pfs.create(
        "scan", "S", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=RPB, stripe_unit=65536,
    )
    fill(env, f)
    pool = BufferPool(
        env, n_buffers=max(depth + 1, 1), buffer_bytes=RECORD * RPB,
        copy_cost_per_byte=copy_cost, per_buffer_overhead=0.0,
    )
    start = env.now
    stream = f.global_view().stream(pool, depth=depth)
    run(env, stream.read_all(compute=lambda i, d: compute))
    return env.now - start


def run_write_side(depth: int):
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    f = pfs.create(
        "out", "S", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=RPB, stripe_unit=65536,
    )
    pool = BufferPool(
        env, n_buffers=max(depth + 1, 1), buffer_bytes=RECORD * RPB,
        copy_cost_per_byte=0.0, per_buffer_overhead=0.0,
    )
    ws = WriteStream(env, lambda b, data: f.write_block(b, data), pool, depth=depth)
    block = np.zeros((RPB, RECORD), dtype=np.uint8)
    start = env.now

    def producer():
        for b in range(f.n_blocks):
            yield env.timeout(COMPUTE_PER_BLOCK)  # compute the block
            yield from ws.put(b, block)
        yield from ws.drain()

    run(env, producer())
    return env.now - start


def e5_buffering(quick: bool) -> dict:
    """Rows: read-side elapsed per buffer depth, write-side (deferred
    writing) elapsed per depth, and the copy-overhead sweep at depth 1."""
    read = {d: run_read_side(d) for d in (0, 1, 2, 4)}
    write = {d: run_write_side(d) for d in (0, 1, 2)}
    copy = {c: run_read_side(1, copy_cost=c, compute=0.0)
            for c in (0.0, 2e-8, 1e-7, 4e-7, 1e-6)}
    rows = [{"side": "read", "depth": d, "elapsed_ms": t * 1e3} for d, t in read.items()]
    rows += [{"side": "write", "depth": d, "elapsed_ms": t * 1e3} for d, t in write.items()]
    rows += [{"side": "copy", "copy_ns_per_b": c * 1e9, "elapsed_ms": t * 1e3}
             for c, t in copy.items()]
    total_compute = (N_RECORDS // RPB) * COMPUTE_PER_BLOCK
    ts = [copy[c] for c in sorted(copy)]
    return {"rows": rows, "checks": {
        # single buffering serializes: elapsed well above total compute
        "single_buffering_serial": read[0] > total_compute * 1.5,
        # double buffering overlaps: close to max(I/O, compute) = compute-ish
        "double_buffering_overlaps": read[1] < read[0] * 0.75,
        "double_buffering_near_compute": read[1] < total_compute * 1.35,
        # deeper pipelines give little more once overlapped (compute-bound)
        "depth2_no_worse": read[2] <= read[1] * 1.01,
        "depth4_no_worse": read[4] <= read[2] * 1.01,
        # write side mirrors it
        "deferred_write_overlaps": write[1] < write[0] * 0.8,
        # copy overhead eats back the gain monotonically (§4's warning)
        "copy_cost_monotone": ts == sorted(ts),
        "copy_cost_eats_overlap": ts[-1] > ts[0] * 1.5,
    }}
