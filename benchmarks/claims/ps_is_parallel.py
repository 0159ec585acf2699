"""E2 — §4: "Types PS and IS have obvious implementations if there is one
device per process. ... processes are free to proceed at different rates,
so that the corresponding blocks on different disks would not usually be
accessed at the same time."

P processes each scan their own partition of a PS (clustered) and an IS
(interleaved) file over P devices. Expected shape: aggregate throughput
~ P x a single device; per-process completion times independent even when
processes compute at different rates.
"""

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry
from repro.trace import throughput_mb_s

from .common import fill, run_all

RECORD = 4096
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=32, cylinders=512)


def run_partitioned_scan(org: str, n_processes: int, compute_scale: bool):
    """Each process scans its partition; returns (elapsed, finish_times)."""
    env = Environment()
    pfs = build_parallel_fs(env, n_processes, geometry=GEO)
    n_records = 128 * n_processes
    f = pfs.create(
        "part", org, n_records=n_records, record_size=RECORD,
        records_per_block=8, n_processes=n_processes,
    )

    fill(env, f)
    start = env.now
    finish = {}

    def worker(q):
        h = f.internal_view(q)
        while not h.eof:
            yield from h.read_next(8)
            if compute_scale:
                # uneven rates: process q computes q+1 units per block
                yield env.timeout(0.002 * (q + 1))
        finish[q] = env.now - start

    run_all(env, [worker(q) for q in range(n_processes)])
    return env.now - start, finish, n_records * RECORD


def e2_ps_is_parallel(quick: bool) -> dict:
    """One row per (org, P=D): elapsed, aggregate rate, scaling over P=1."""
    rows, checks = [], {}
    for org in ("PS", "IS"):
        out = {p: run_partitioned_scan(org, p, False) for p in (1, 2, 4, 8)}
        e1, _, n1 = out[1]
        for p, (elapsed, _, nbytes) in out.items():
            rows.append({
                "org": org, "p": p, "elapsed_ms": elapsed * 1e3,
                "aggregate_mb_s": throughput_mb_s(nbytes, elapsed),
                "scaling": (nbytes / elapsed) / (n1 / e1),
            })
        # aggregate throughput ~ P x single device (each process has its
        # own drive; no interference)
        checks[f"{org}_scaling_8_above_6.5"] = rows[-1]["scaling"] > 6.5
    return {"rows": rows, "checks": checks}


def e2_independent_rates(quick: bool) -> dict:
    """The §4 point distinguishing PS/IS from striping: a slow process
    does not hold up a fast one. Rows: each process's finish time under
    per-process compute of (q+1) units per block, then the whole job."""
    elapsed, finish, nbytes = run_partitioned_scan("PS", 4, compute_scale=True)
    times = [finish[q] for q in range(4)]
    rows = [{"process": q, "finished_ms": times[q] * 1e3} for q in range(4)]
    rows.append({"whole_job_ms": elapsed * 1e3})
    # 16 reads/process, 0.002*(q+1) s compute each: the gap between the
    # fastest and slowest should be their compute difference, not zero
    expected_gap = 16 * 0.002 * 3
    return {"rows": rows, "checks": {
        # each process's finish time tracks its own compute rate, not the
        # slowest peer's (no convoying through a shared stripe)
        "finish_order_tracks_compute": times[0] < times[1] < times[2] < times[3],
        "gap_is_compute_difference": abs(times[3] - times[0] - expected_gap)
        <= 0.2 * expected_gap,
    }}
