"""E7 — §4: "Some care is needed in the self-scheduled version to assure
proper synchronization without unduly serializing access. The use of
predictable length records reduces the problem, since file pointers can
be adjusted and buffer areas reserved early in an I/O call, thereby
allowing the next call from another process to proceed before the actual
data transfer from the first call has completed."

SS scan over a striped file, P in {1, 2, 4, 8} workers, with the early
pointer-advance optimization on and off. Expected shape: without it,
transfers serialize inside the critical section (no speedup beyond 1
process); with it, speedup approaches the striped-device limit.

Plus the load-balance side: self-scheduling vs a static PS partition under
skewed task costs.
"""

from repro import Environment, SSSession, build_parallel_fs
from repro.devices import DiskGeometry

from .common import fill, run_all

RECORD = 4096
RPB = 4                      # 16 KB blocks (one "work unit" each)
N_RECORDS = 128 * RPB        # 128 blocks
N_DEVICES = 8
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=32, cylinders=256)


def run_ss(n_workers: int, early: bool, compute=lambda b: 0.0) -> float:
    env = Environment()
    pfs = build_parallel_fs(env, N_DEVICES, geometry=GEO)
    f = pfs.create(
        "queue", "SS", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=RPB, n_processes=8, stripe_unit=16384,
    )
    fill(env, f)
    session = SSSession(f, early_advance=early, pointer_cost=1e-4)
    start = env.now

    def worker(q):
        h = session.handle(q)
        while True:
            item = yield from h.read_next()
            if item is None:
                return
            cost = compute(item[0])
            if cost > 0:
                yield env.timeout(cost)

    run_all(env, [worker(q) for q in range(n_workers)])
    session.validate()
    return env.now - start


def run_static_ps(n_workers: int, compute):
    """Static contiguous partition of the same work (no self-scheduling)."""
    env = Environment()
    pfs = build_parallel_fs(env, N_DEVICES, geometry=GEO)
    f = pfs.create(
        "static", "PS", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=RPB, n_processes=n_workers, layout="striped",
        stripe_unit=16384,
    )

    fill(env, f)
    start = env.now

    def worker(q):
        h = f.internal_view(q)
        while h.blocks_remaining:
            blk = yield from h.read_next_block()
            cost = compute(blk[0])
            if cost > 0:
                yield env.timeout(cost)

    run_all(env, [worker(q) for q in range(n_workers)])
    return env.now - start


def skewed_cost(block: int) -> float:
    """A few expensive tasks clustered at the front — the adversarial
    case for static contiguous partitioning."""
    return 0.25 if block < 16 else 0.005


def e7_self_scheduling(quick: bool) -> dict:
    """One row per P: elapsed and speedup with early pointer advance on
    and off; then the skewed-cost load-balance rows."""
    scaling = {
        (p, early): run_ss(p, early)
        for p in (1, 2, 4, 8)
        for early in (True, False)
    }
    balance = {
        "self-scheduled": run_ss(4, True, compute=skewed_cost),
        "static PS": run_static_ps(4, skewed_cost),
    }
    rows = [
        {"p": p, "on_ms": scaling[(p, True)] * 1e3, "off_ms": scaling[(p, False)] * 1e3,
         "speedup_on": scaling[(1, True)] / scaling[(p, True)],
         "speedup_off": scaling[(1, False)] / scaling[(p, False)]}
        for p in (1, 2, 4, 8)
    ]
    rows += [{"schedule": k, "elapsed_ms": t * 1e3} for k, t in balance.items()]
    checks = {
        # with the optimization, SS scales
        "on_speedup_4_above_3": scaling[(1, True)] / scaling[(4, True)] > 3.0,
        "on_speedup_8_above_5": scaling[(1, True)] / scaling[(8, True)] > 5.0,
        # without it, transfers serialize: little to no speedup
        "off_speedup_8_below_1.3": scaling[(1, False)] / scaling[(8, False)] < 1.3,
    }
    # at any P, ON <= OFF
    for p in (2, 4, 8):
        checks[f"on_beats_off_p{p}"] = scaling[(p, True)] < scaling[(p, False)]
    # self-scheduling beats static contiguous partitioning under skew
    checks["ss_beats_static_under_skew"] = (
        balance["self-scheduled"] < balance["static PS"] * 0.75
    )
    return {"rows": rows, "checks": checks}
