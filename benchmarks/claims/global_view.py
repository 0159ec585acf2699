"""E6 — §4: "Most of the implementation strategies suggested above would
also yield performance improvements for sequential programs which access
the files using the global view. One exception is the PS organization, in
which all of the data would have to be read from the first disk, followed
by all of the data from the second disk, etc., with no potential for
parallelism. IS type files would have a similar problem if block sizes
approached or exceeded the buffer space available."

A sequential (global view) scan of the same data under three layouts over
4 drives, reading in fixed-size buffer-limited requests:

* striped       — requests span all drives: full parallelism;
* interleaved   — parallel while a request covers >= D blocks; degrades
  to one-drive-at-a-time once the block size reaches the buffer size;
* clustered(PS) — one partition (= one drive) at a time: no parallelism
  at any block size.
"""

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry
from repro.trace import throughput_mb_s

from .common import fill, run

N_DEVICES = 4
RECORD = 4096
N_RECORDS = 512             # 2 MB file
BUFFER_RECORDS = 32         # 128 KB global-reader buffer
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=32, cylinders=256)


def run_global_scan(layout: str, rpb: int):
    env = Environment()
    pfs = build_parallel_fs(env, N_DEVICES, geometry=GEO)
    f = pfs.create(
        "g", "PS" if layout == "clustered" else "S",
        n_records=N_RECORDS, record_size=RECORD, records_per_block=rpb,
        n_processes=N_DEVICES, layout=layout, stripe_unit=8192,
    )

    fill(env, f)
    start = env.now

    def reader():
        v = f.global_view()
        v.seek(0)
        while not v.eof:
            yield from v.read(BUFFER_RECORDS)

    run(env, reader())
    return env.now - start


def e6_global_view(quick: bool) -> dict:
    """One row per layout (and interleaved block size): elapsed and rate."""
    out = {"striped": run_global_scan("striped", 8),
           "clustered (PS)": run_global_scan("clustered", 8)}
    # interleaved at increasing block sizes, same buffer
    for rpb in (8, 16, 32, 64):
        out[f"interleaved rpb={rpb}"] = run_global_scan("interleaved", rpb)
    nbytes = N_RECORDS * RECORD
    rates = {k: throughput_mb_s(nbytes, t) for k, t in out.items()}
    rows = [
        {"layout": k, "elapsed_ms": t * 1e3, "rate_mb_s": rates[k]}
        for k, t in out.items()
    ]
    ps = rates["clustered (PS)"]
    seq = [rates[f"interleaved rpb={r}"] for r in (8, 16, 32, 64)]
    return {"rows": rows, "checks": {
        # striped global scan enjoys ~full device parallelism
        "striped_parallel": rates["striped"] > ps * 2.5,
        # small-block interleaved behaves like striping
        "small_block_interleaved_parallel": seq[0] > ps * 2.5,
        # once blocks reach the buffer size, interleaved degrades toward
        # single-drive behaviour (the §4 caveat)
        "buffer_size_blocks_degrade": seq[2] < seq[0] * 0.75,
        "largest_blocks_match_ps": abs(seq[3] - ps) <= 0.35 * ps,
        # monotone degradation with block size (1% tolerance: at and beyond
        # the buffer size the scan is single-drive either way)
        "degradation_monotone": all(a >= b * 0.99 for a, b in zip(seq, seq[1:])),
    }}
