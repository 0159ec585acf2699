"""E12 — §3: the NASA Finite Element Machine experience.

    "It was not uncommon for an application to use several separate files
    per process, and when multiplied by 16 processors, the sheer number
    of files became unwieldy ... data stored in a multitude of small
    files often needed to be treated as a unit by sequential programs
    ... users balked at having to write additional programs to manage
    their data."

File-per-process vs one PS parallel file at P in {4, 16, 64}:
catalog entries, individual create/delete operations, bytes moved by
pre/post-processing utilities, and the end-to-end cost of the global
(sequential) consumption the utilities exist to serve.
"""

import numpy as np

from repro import Environment, FilePerProcessDataset, build_parallel_fs
from repro.devices import DiskGeometry

from .common import run

RECORD = 512
RECORDS_PER_PROCESS = 32
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=512)
FILES_PER_PROCESS = 3   # "several separate files per process"


def run_fpp(p: int):
    """File-per-process: partition, per-process use, merge for global read."""
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    n = RECORDS_PER_PROCESS * p
    datasets = [
        FilePerProcessDataset(
            pfs, f"set{k}", n_records=n, record_size=RECORD,
            n_processes=p, dtype="uint8",
        )
        for k in range(FILES_PER_PROCESS)
    ]
    data = np.zeros((n, RECORD), dtype=np.uint8)
    start = env.now

    def driver():
        for ds in datasets:
            yield from ds.partition(data)       # pre-processing utility
        # each process touches its own partition (works fine)
        def worker(q):
            for ds in datasets:
                yield from ds.read_partition(q)

        yield env.all_of([env.process(worker(q)) for q in range(p)])
        # sequential consumption needs the merge utility
        for k, ds in enumerate(datasets):
            merged = yield from ds.merge(f"merged{k}")
            v = merged.global_view()
            while not v.eof:
                yield from v.read(64)

    run(env, driver())
    elapsed = env.now - start
    catalog_entries = len(pfs.catalog)
    utility_bytes = sum(ds.utility_bytes for ds in datasets)
    deletions = sum(ds.delete_all() for ds in datasets)
    return elapsed, catalog_entries, utility_bytes, deletions


def run_parallel_file(p: int):
    """The same work with PS parallel files: no utilities needed."""
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    n = RECORDS_PER_PROCESS * p
    files = [
        pfs.create(
            f"pf{k}", "PS", n_records=n, record_size=RECORD,
            records_per_block=4, n_processes=p,
        )
        for k in range(FILES_PER_PROCESS)
    ]
    data = np.zeros((n, RECORD), dtype=np.uint8)
    start = env.now

    def driver():
        for f in files:
            yield from f.global_view().write(data)   # one pass, no utility

        def worker(q):
            for f in files:
                h = f.internal_view(q)
                if h.n_local_records:
                    yield from h.read_next(h.n_local_records)

        yield env.all_of([env.process(worker(q)) for q in range(p)])
        # sequential consumption: the global view already exists
        for f in files:
            v = f.global_view()
            v.seek(0)
            while not v.eof:
                yield from v.read(64)

    run(env, driver())
    elapsed = env.now - start
    catalog_entries = len(pfs.catalog)
    for k in range(FILES_PER_PROCESS):
        pfs.delete(f"pf{k}")
    return elapsed, catalog_entries, 0, FILES_PER_PROCESS


def e12_file_per_process(quick: bool) -> dict:
    """One row per (P, scheme): catalog entries, utility bytes moved,
    individual deletes and end-to-end elapsed."""
    out = {
        p: {"fpp": run_fpp(p), "parallel": run_parallel_file(p)}
        for p in (4, 16, 64)
    }
    rows, checks = [], {}
    for p, r in out.items():
        for kind in ("fpp", "parallel"):
            elapsed, entries, util_bytes, deletions = r[kind]
            rows.append({
                "p": p, "scheme": "file/process" if kind == "fpp" else "parallel PS",
                "catalog_files": entries, "utility_kb": util_bytes / 1024,
                "deletes": deletions, "elapsed_ms": elapsed * 1e3,
            })
        e_f, n_f, u_f, d_f = r["fpp"]
        e_p, n_p, u_p, d_p = r["parallel"]
        checks.update({
            # the §3 manageability gap: entries scale with P vs constant
            f"fpp_catalog_scales_p{p}":
                n_f == FILES_PER_PROCESS * p + FILES_PER_PROCESS,  # + merged copies
            f"parallel_catalog_constant_p{p}": n_p == FILES_PER_PROCESS,
            f"fpp_deletes_scale_p{p}": d_f == FILES_PER_PROCESS * p,
            # the utilities move every byte (twice); the parallel file none
            f"fpp_utilities_move_every_byte_twice_p{p}":
                u_f == 2 * FILES_PER_PROCESS * RECORDS_PER_PROCESS * p * RECORD,
            f"parallel_needs_no_utility_p{p}": u_p == 0,
            # and end-to-end the parallel file is faster
            f"parallel_faster_p{p}": e_p < e_f,
        })
    return {"rows": rows, "checks": checks}
