"""Ablation A2 — SS blocking granularity (§3.1: "This organization makes
most sense when there is a single record per block, but self-scheduling
by block for multi-record blocks could be provided if needed.")

The trade-off behind that sentence: single-record blocks give the finest
load balancing but pay the shared-pointer critical section (and a device
request) per record; multi-record blocks amortize both at the cost of
coarser scheduling. Swept over records_per_block at fixed total data,
with and without per-task compute skew.
"""

from repro import Environment, SSSession, build_parallel_fs
from repro.devices import DiskGeometry

from .common import fill, run_all

RECORD = 4096
TOTAL_RECORDS = 256
N_WORKERS = 4
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=32, cylinders=256)
POINTER_COST = 2e-3   # an expensive 1989 lock round-trip, to expose contention


def run_ss(rpb: int, skewed: bool):
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    f = pfs.create(
        "q", "SS", n_records=TOTAL_RECORDS, record_size=RECORD,
        records_per_block=rpb, n_processes=N_WORKERS, stripe_unit=16384,
    )

    fill(env, f)
    session = SSSession(f, early_advance=True, pointer_cost=POINTER_COST)
    start = env.now

    def cost(block):
        if not skewed:
            return 0.001 * rpb
        # one very expensive region at the front of the file
        first_record = block * rpb
        return (0.02 if first_record < 32 else 0.001) * rpb

    def worker(q):
        h = session.handle(q)
        while True:
            item = yield from h.read_next()
            if item is None:
                return
            yield env.timeout(cost(item[0]))

    run_all(env, [worker(q) for q in range(N_WORKERS)])
    session.validate()
    return env.now - start


def a2_ss_blocking(quick: bool) -> dict:
    """One row per (task costs, records per block): simulated ms."""
    uniform = {r: run_ss(r, skewed=False) for r in (1, 4, 16, 64)}
    skewed = {r: run_ss(r, skewed=True) for r in (1, 4, 16, 64)}
    rows = [{"costs": "uniform", "rpb": r, "elapsed_ms": t * 1e3} for r, t in uniform.items()]
    rows += [{"costs": "skewed", "rpb": r, "elapsed_ms": t * 1e3} for r, t in skewed.items()]
    best = min((1, 4, 16, 64), key=lambda r: skewed[r])
    return {"rows": rows, "checks": {
        # uniform work: coarser blocks amortize the pointer critical section
        "coarse_blocks_amortize_pointer": uniform[16] < uniform[1],
        # skewed work: the coarsest blocks lose scheduling freedom — the hot
        # region lands in few hands; a middle granularity beats both extremes
        # or at least the finest stops being the winner
        "coarsest_loses_under_skew": skewed[64] > skewed[4],
        "middle_granularity_wins_under_skew": best in (4, 16),
    }}
