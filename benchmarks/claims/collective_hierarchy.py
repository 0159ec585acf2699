"""X2 (extension) — the four-rung access-optimization hierarchy.

Thakur et al.'s MPI-IO ladder, reproduced on the strided IS workload:
each of ``P`` processes wants every ``P``-th record of a shared file —
the access pattern the paper's interleaved-sequential organization
creates. Four ways to run the same read, from naive to coordinated:

1. **per-segment**   — one request per contiguous piece, sequentially;
2. **list I/O**      — all pieces in one batched submission
                       (``read_view`` over the partition's indexed view,
                       ``batch_io`` merging device-contiguous segments);
3. **data sieving**  — one covering extent per process, scatter in
                       memory (``read_view(sieve=True)``);
4. **collective**    — two-phase: contiguous file domains + in-memory
                       exchange (``CollectiveIO.read_all``).

Each rung must be at least as fast (simulated) as the one above it —
the hierarchy every MPI-IO implementation's defaults are built on.

A second table pins down write correctness across all six organizations:
a collective ``write_all`` must leave media bytes *identical* to the
same records written independently by each process (sha256 of the raw
device extents). SS/GDA have no static ownership, so they run under
``allow_dynamic=True`` with an explicit balanced index split.

Quick mode shrinks the file.
"""

import numpy as np

from repro import Environment, build_parallel_fs
from repro.collective import CollectiveIO
from repro.core.convert import contiguous_runs
from repro.datatype import view_of_map
from repro.devices import FAST_1989, DiskGeometry
from repro.perf import ORGS

from .common import fill, media_digest, run

RECORD = 256
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=512)
N_DEVICES = 4

RUNGS = ("per_segment", "list_io", "data_sieving", "collective")


def params(quick: bool):
    """(records, processes)."""
    return (512, 4) if quick else (4096, 4)


def setup_file(env, org, n_records, p, batch=False, **create_kw):
    pfs = build_parallel_fs(
        env, N_DEVICES, timing=FAST_1989, geometry=GEO, batch_io=batch
    )
    f = pfs.create(
        "x2", org, n_records=n_records, record_size=RECORD,
        records_per_block=1, n_processes=p, layout="striped",
        stripe_unit=65536, **create_kw,
    )

    raw = np.arange(n_records * RECORD, dtype=np.uint64) % 251
    fill(env, f, raw.astype(np.uint8).reshape(n_records, RECORD))
    return f


# -- the four read rungs ------------------------------------------------------


def run_per_segment(n_records, p):
    env = Environment()
    f = setup_file(env, "IS", n_records, p)
    start = env.now

    def worker(q):
        for r in contiguous_runs(f.map.records_of(q)):
            yield f.read_records(r.start, r.count)

    env.run(env.all_of([env.process(worker(q)) for q in range(p)]))
    return env.now - start


def run_list_io(n_records, p):
    env = Environment()
    f = setup_file(env, "IS", n_records, p, batch=True)
    start = env.now

    def worker(q):
        yield f.read_view(view_of_map(f.map, q))

    env.run(env.all_of([env.process(worker(q)) for q in range(p)]))
    return env.now - start


def run_data_sieving(n_records, p):
    env = Environment()
    f = setup_file(env, "IS", n_records, p, batch=True)
    start = env.now

    def worker(q):
        # the strided partition spans ~the whole file: allow a covering
        # extent p times the payload, big enough window for one read
        yield f.read_view(
            view_of_map(f.map, q),
            sieve=True, sieve_factor=p * 1.25, sieve_window=1 << 26,
        )

    env.run(env.all_of([env.process(worker(q)) for q in range(p)]))
    return env.now - start


def run_collective(n_records, p):
    env = Environment()
    f = setup_file(env, "IS", n_records, p, batch=True)
    coll = CollectiveIO(f)
    start = env.now
    run(env, coll.read_all())
    return env.now - start


# -- six-organization write identity -----------------------------------------


def org_indices(f, org, p):
    """Per-process record ownership for the write-identity check."""
    if f.map.is_static:
        return {q: f.map.records_of(q) for q in range(p)}
    # dynamic orgs: a balanced explicit split
    n = f.n_records
    bounds = np.linspace(0, n, p + 1).astype(np.int64)
    return {q: np.arange(bounds[q], bounds[q + 1]) for q in range(p)}


def check_write_identity(org, n_records, p):
    """Collective write_all vs per-process independent writes: same bytes."""
    data = (
        np.random.default_rng(42).integers(0, 251, (n_records, RECORD))
        .astype(np.uint8)
    )
    env_c = Environment()
    f_c = setup_file(env_c, org, n_records, p)
    idx = org_indices(f_c, org, p)
    coll = CollectiveIO(f_c, allow_dynamic=not f_c.map.is_static)
    per_process = {q: data[idx[q]] for q in range(p)}
    run(env_c, coll.write_all(per_process, None if f_c.map.is_static else idx))

    env_i = Environment()
    f_i = setup_file(env_i, org, n_records, p)

    def writer(q):
        rows, pos = data[idx[q]], 0
        for r in contiguous_runs(idx[q]):
            yield f_i.write_records(r.start, rows[pos : pos + r.count])
            pos += r.count

    env_i.run(env_i.all_of([env_i.process(writer(q)) for q in range(p)]))
    return media_digest(f_c) == media_digest(f_i)


def x2_collective_hierarchy(quick: bool) -> dict:
    """One row per rung (simulated ms), then one row per organization:
    whether collective ``write_all`` left media bytes identical to
    independent writes."""
    n, p = params(quick)
    runs = (run_per_segment, run_list_io, run_data_sieving, run_collective)
    times = {name: run(n, p) for name, run in zip(RUNGS, runs)}
    identical = {org: check_write_identity(org, n, p) for org in ORGS}
    rows = [{"rung": name, "elapsed_ms": times[name] * 1e3} for name in RUNGS]
    rows += [{"org": org, "write_identical": ok} for org, ok in identical.items()]
    # each rung at least as fast as the one above (tiny numeric slack)
    checks = {
        f"{fast}_not_slower_than_{slow}": times[fast] <= times[slow] * 1.001
        for slow, fast in zip(RUNGS, RUNGS[1:])
    }
    checks.update({f"write_identical_{org}": ok for org, ok in identical.items()})
    return {"rows": rows, "checks": checks}
