"""E3 — §4: "For systems with many processors, it may not be practical to
allocate a separate storage device for each processor. In this case,
blocks belonging to several processes would be allocated to each device.
Seek times are likely to cause some performance degradation as the drive
services requests from different processes. Work is needed here to
determine the best ways to allocate space on the disks to minimize this
problem."

Fixed P=16 processes scanning a PS file over D in {1, 2, 4, 8, 16}
devices. Two placements of co-resident partitions are compared:

* ``clustered`` — each process's partition is contiguous on its device
  (the §4 suggestion): the arm ping-pongs between the partitions of the
  processes sharing a drive;
* ``striped`` — the same file striped finely (no partition locality):
  every process's request can hit every drive.

Plus an arm-scheduling ablation (FCFS vs SCAN) for the worst case.
Expected shape: throughput degrades as P/D grows; seeks per device grow
as more processes share a drive; SCAN recovers part of the loss.
"""

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry
from repro.sim import RngStreams
from repro.trace import throughput_mb_s
from repro.workloads import uniform_pattern

from .common import fill, run_all

P = 16
RECORD = 4096
N_RECORDS = 64 * P
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=1024)


def run_scan(n_devices: int, layout: str, scheduling: str = "fcfs",
             jitter: bool = False):
    env = Environment()
    pfs = build_parallel_fs(env, n_devices, geometry=GEO, scheduling=scheduling)
    f = pfs.create(
        "shared", "PS", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=8, n_processes=P, layout=layout,
        stripe_unit=4096, n_devices=n_devices,
    )

    fill(env, f)
    for d in pfs.volume.devices:
        d.disk.total_seeks = 0
        d.disk.total_seek_distance = 0
        d.disk.reset_position(0)
    start = env.now
    streams = RngStreams(7)

    def worker(q):
        h = f.internal_view(q)
        while not h.eof:
            yield from h.read_next(4)
            if jitter:
                # uneven per-process compute decorrelates arrival order,
                # which is when arm scheduling starts to matter
                yield env.timeout(streams.uniform(f"think{q}", 0.0, 0.01))

    run_all(env, [worker(q) for q in range(P)])
    elapsed = env.now - start
    seeks = sum(d.disk.total_seeks for d in pfs.volume.devices)
    seek_cyls = sum(d.disk.total_seek_distance for d in pfs.volume.devices)
    return elapsed, seeks, seek_cyls


def run_random_access(scheduling: str):
    """The arm-scheduling ablation needs *random* arrivals: 16 clients
    doing uniform random record reads on one shared drive."""
    env = Environment()
    pfs = build_parallel_fs(env, 1, geometry=GEO, scheduling=scheduling)
    f = pfs.create(
        "rand", "GDA", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=8, n_processes=P, layout="striped",
        stripe_unit=4096,
    )

    fill(env, f)
    dev = pfs.volume.devices[0]
    dev.disk.total_seeks = 0
    dev.disk.total_seek_distance = 0
    dev.disk.reset_position(0)
    start = env.now
    targets = uniform_pattern(N_RECORDS, P * 16, seed=5)

    def client(q):
        h = f.internal_view(q)
        for t in range(q, len(targets), P):
            yield from h.read_record(int(targets[t]))

    run_all(env, [client(q) for q in range(P)])
    return env.now - start, dev.disk.total_seeks, dev.disk.total_seek_distance


def e3_seek_degradation(quick: bool) -> dict:
    """One row per (layout, D): elapsed, rate, seeks and seek distance."""
    out = {("clustered", d): run_scan(d, "clustered") for d in (1, 2, 4, 8, 16)}
    out[("striped", 1)] = run_scan(1, "striped")
    nbytes = N_RECORDS * RECORD
    rates = {k: throughput_mb_s(nbytes, e) for k, (e, _, _) in out.items()}
    rows = [
        {"layout": layout, "d": d, "p_per_d": P // d if layout == "clustered" else P,
         "elapsed_ms": elapsed * 1e3, "rate_mb_s": rates[(layout, d)],
         "seeks": seeks, "seek_cylinders": cyls}
        for (layout, d), (elapsed, seeks, cyls) in out.items()
    ]
    c = {d: rates[("clustered", d)] for d in (1, 4, 8, 16)}
    return {"rows": rows, "checks": {
        # throughput degrades monotonically as more processes share each drive
        "rate_falls_16_8_4": c[16] > c[8] > c[4],
        "rate_4_above_1": c[4] > c[1],
        # per-process-contiguous allocation beats fine striping when a single
        # drive is shared: striping destroys partition locality entirely
        "clustered_not_below_striped": c[1] >= rates[("striped", 1)] * 0.95,
        # the 16-process single drive seeks far more than one-process-per-drive
        "shared_drive_seeks_2x": out[("clustered", 1)][1] > out[("clustered", 16)][1] * 2,
    }}


def e3_arm_scheduling(quick: bool) -> dict:
    """DESIGN.md ablation: arm scheduling under random shared access.

    Sequential partition scans self-organize into elevator order (the
    main E3 table shows FCFS ~ SCAN there); with random arrivals the
    policies separate: SCAN/SSTF cut arm travel versus FCFS. One row per
    policy: elapsed, seeks and seek distance for 16 clients x 16 uniform
    random reads on one drive.
    """
    out = {s: run_random_access(s) for s in ("fcfs", "scan", "sstf")}
    rows = [
        {"policy": s, "elapsed_ms": e * 1e3, "seeks": n, "seek_cylinders": c}
        for s, (e, n, c) in out.items()
    ]
    return {"rows": rows, "checks": {
        "scan_cuts_arm_travel": out["scan"][2] < out["fcfs"][2],
        "sstf_cuts_arm_travel": out["sstf"][2] < out["fcfs"][2],
        "scan_not_slower": out["scan"][0] <= out["fcfs"][0],
    }}
