"""Ablation A1 — stripe unit size (§4: "broken into units most
appropriate for the I/O devices involved").

The classic striping trade-off the paper's phrase hides:

* a *small* unit spreads even modest requests over all drives (good for
  bandwidth on large sequential requests, bad for small random requests,
  which now pay several seeks instead of one);
* a *large* unit keeps each request on one drive (good seek economics for
  small random access, no intra-request parallelism for scans).

Measured on 4 drives: a 2 MB sequential scan and 200 random 4 KB record
reads, swept over the stripe unit.
"""

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry
from repro.workloads import uniform_pattern

from .common import fill, run, run_all

RECORD = 4096
N_RECORDS = 512
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=512)
UNITS = (1024, 4096, 16384, 65536, 262144)


def make_file(env, pfs, unit):
    f = pfs.create(
        "s", "GDA", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=8, n_processes=4, layout="striped",
        stripe_unit=unit,
    )

    fill(env, f)
    return f


def run_scan(unit):
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    f = make_file(env, pfs, unit)
    start = env.now

    def reader():
        v = f.global_view()
        while not v.eof:
            yield from v.read(64)   # 256 KB requests

    run(env, reader())
    return env.now - start


def run_random(unit):
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    f = make_file(env, pfs, unit)
    targets = uniform_pattern(N_RECORDS, 200, seed=3)
    start = env.now

    def client(c):
        h = f.internal_view(c)
        for t in range(c, len(targets), 4):
            yield from h.read_record(int(targets[t]))

    run_all(env, [client(c) for c in range(4)])
    return env.now - start


def a1_stripe_unit(quick: bool) -> dict:
    """One row per stripe unit: the 2 MB scan and the 200 random 4 KB
    reads, simulated ms each."""
    scan = {u: run_scan(u) for u in UNITS}
    rand = {u: run_random(u) for u in UNITS}
    rows = [
        {"unit_kb": u // 1024, "seq_scan_ms": scan[u] * 1e3,
         "random_4kb_reads_ms": rand[u] * 1e3}
        for u in UNITS
    ]
    best_scan = min(UNITS, key=lambda u: scan[u])
    best_rand = min(UNITS, key=lambda u: rand[u])
    return {"rows": rows, "checks": {
        # sequential scans tolerate any unit up to the request size, then
        # lose parallelism: the largest unit (= request size) is the worst
        "largest_unit_slows_scan": scan[262144] > scan[4096] * 1.5,
        # random record reads prefer units >= the record: the smallest unit
        # splits each 4 KB read across all four arms
        "smallest_unit_slows_random_reads": rand[1024] > rand[16384] * 1.1,
        # the sweet spot differs by workload — the trade-off is real
        "sweet_spots_differ": best_scan < best_rand or rand[best_scan] > rand[best_rand],
    }}
