"""Scaling guards for the dispatch-path O(n) fixes.

A hot path used to do a linear scan per operation and went quadratic
under load: :meth:`WeightedFairQueue.dispatch` (a full-backlog walk to
maintain bypass counts). It is now amortized O(log n). Its guard re-runs
the path at two backlog sizes and fails if per-operation cost grows
anywhere near linearly with backlog — i.e. if total cost has gone
quadratic again. The other guards hold the planners to their complexity
the same way.

The bounds are deliberately loose (quadratic regressions blow through
them by an order of magnitude; host noise does not). Each measurement is
a min-of-3 to reject scheduler hiccups.
"""

import time

from repro.qos.scheduler import WeightedFairQueue
from repro.qos.tenant import QoSClass, Tenant
from repro.sim import Environment


def _min_of(runs, fn):
    best = None
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def _wfq_dispatch_cost(backlog: int, dispatches: int) -> float:
    tenant = Tenant(Environment(), QoSClass("t"))

    def run():
        q = WeightedFairQueue()
        tags = [q.tag(tenant, cost=64.0) for _ in range(backlog + dispatches)]
        # serve the newest first so a large backlog stays resident while
        # every dispatch maintains the oldest waiter's bypass count
        for tag in reversed(tags[backlog:]):
            q.dispatch(tag)

    return _min_of(3, run) / dispatches


def test_wfq_dispatch_scales_with_backlog():
    small = _wfq_dispatch_cost(backlog=16, dispatches=2048)
    large = _wfq_dispatch_cost(backlog=4096, dispatches=2048)
    # O(backlog) per dispatch would make this ratio ~256
    assert large < small * 32, (
        f"WFQ dispatch went superlinear: {small * 1e6:.2f}us/op at backlog 16 "
        f"vs {large * 1e6:.2f}us/op at backlog 4096"
    )


def _plan_cost(nbytes: int) -> float:
    from repro.storage.layout import StripedLayout, plan_batch

    layout = StripedLayout(4, 64)

    def run():
        for _ in range(2000):
            plan_batch(layout, [(192, nbytes)], coalesce=True)

    return _min_of(3, run) / 2000


def test_planning_a_contiguous_range_is_independent_of_its_length():
    small = _plan_cost(64 * 16)
    large = _plan_cost(64 * 16 * 64)
    # a walk over the stripe units would make this ratio ~64
    assert large < small * 4, (
        f"planning went O(units): {small * 1e6:.2f}us for 16 units vs "
        f"{large * 1e6:.2f}us for 1024"
    )


def _first_read_cost(org: str, n_records: int) -> float:
    """Host seconds to open a partition handle on a freshly created file
    and read one record, up to the read's first simulated event."""
    from repro import build_parallel_fs
    from repro.fs import PartitionHandle

    def run():
        env = Environment()
        f = build_parallel_fs(env, 4).create(
            "guard", org, n_records=n_records, record_size=1, dtype="uint8",
            records_per_block=64, n_processes=4,
        )
        t0 = time.perf_counter()
        next(PartitionHandle(f, 1).read_next(1))
        return time.perf_counter() - t0

    return min(run() for _ in range(3))


def test_opening_a_partition_handle_builds_no_per_file_index():
    for org in ("PS", "IS"):
        small = _first_read_cost(org, 1 << 12)
        large = _first_read_cost(org, 1 << 20)
        # materialising the process's record index would make this ~256
        assert large < small * 4, (
            f"{org} handle open + first read grew with the file: "
            f"{small * 1e6:.1f}us at 2^12 records vs {large * 1e6:.1f}us at 2^20"
        )


def _overlap_check_cost(n_records: int) -> float:
    """Host seconds per index of a collective write's argument checking —
    the disjointness check included — up to the first simulated event."""
    import numpy as np

    from repro import build_parallel_fs
    from repro.collective import CollectiveIO, balanced_indices

    env = Environment()
    f = build_parallel_fs(env, 4).create(
        "guard", "IS", n_records=n_records, record_size=1, dtype="uint8",
        records_per_block=64, n_processes=4,
    )
    coll = CollectiveIO(f)
    indices = balanced_indices(0, n_records, 4)
    per_process = {q: np.zeros((len(indices[q]), 1), dtype=np.uint8) for q in range(4)}

    def run():
        # the checks run eagerly, before the generator's first yield
        next(coll.write_at(0, n_records, per_process, indices))

    return _min_of(3, run) / n_records


def test_collective_overlap_check_is_linear_in_the_indices():
    small = _overlap_check_cost(1 << 14)
    large = _overlap_check_cost(1 << 18)
    # sorting (or hashing past the cache) makes the per-index cost grow
    assert large < small * 4, (
        f"overlap check went superlinear: {small * 1e9:.1f}ns/index at 2^14 "
        f"vs {large * 1e9:.1f}ns/index at 2^18"
    )
