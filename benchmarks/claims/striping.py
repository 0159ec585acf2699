"""E1 — §4: "For file types S and SS, disk striping can be used to spread
the file across multiple drives, resulting in higher transfer rates."

Sequential (S) scan of a fixed-size file striped over N drives, N in
{1, 2, 4, 8, 16}. Expected shape: near-linear speedup that flattens as
per-request overheads and the unstriped tail dominate.
"""

import numpy as np

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry
from repro.trace import throughput_mb_s

from .common import run

FILE_MB = 4
RECORD = 4096
N_RECORDS = FILE_MB * 1024 * 1024 // RECORD
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=32, cylinders=512)


def scan_time(n_devices: int, stripe_unit: int = 65536) -> float:
    env = Environment()
    pfs = build_parallel_fs(env, n_devices, geometry=GEO)
    f = pfs.create(
        "scan", "S", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=16, stripe_unit=stripe_unit,
    )

    def scan():
        yield from f.global_view().write(
            np.zeros((N_RECORDS, RECORD), dtype=np.uint8)
        )
        start = env.now
        v = f.global_view()
        v.seek(0)
        # scan in 1 MB requests (16 stripe units), so up to 16 drives can
        # serve one request in parallel. The reader pays a serial buffer
        # copy per request (§4: "buffering overheads can be a significant
        # factor in limiting speedups") — this is the Amdahl term that
        # flattens the curve.
        copy_cost_per_byte = 2e-8  # ~50 MB/s memory-to-memory, 1989 CPU
        while not v.eof:
            chunk = yield from v.read(256)
            yield env.timeout(0.002 + chunk.size * copy_cost_per_byte)
        return env.now - start

    return run(env, scan())


def e1_striping(quick: bool) -> dict:
    """One row per drive count: elapsed, rate and speedup over one drive."""
    times = {d: scan_time(d) for d in (1, 2, 4, 8, 16)}
    nbytes = N_RECORDS * RECORD
    speedups = {d: times[1] / t for d, t in times.items()}
    rows = [
        {"n_devices": d, "elapsed_ms": t * 1e3,
         "rate_mb_s": throughput_mb_s(nbytes, t), "speedup": speedups[d]}
        for d, t in times.items()
    ]
    # shape: monotone speedup, near-linear early, flattening later
    return {"rows": rows, "checks": {
        "speedup_2_above_1.6": speedups[2] > 1.6,
        "speedup_4_above_2.8": speedups[4] > 2.8,
        "speedup_8_above_5": speedups[8] > 5.0,
        "speedup_16_above_8": speedups[16] > speedups[8],
        # diminishing returns: efficiency drops with N
        "efficiency_16_below_2": speedups[16] / 16 < speedups[2] / 2,
    }}
