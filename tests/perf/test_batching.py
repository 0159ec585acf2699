"""Unit tests for extent-batched submission planning (list I/O).

``plan_batch`` is the core of batched submission: the stripe units a
submission puts on one device merge into device-contiguous runs, and the
plan says which payload bytes each run carries so reads reassemble in
file order. These tests pin its merging rules and the gather/scatter
round trip (``tests/storage/test_plan_oracle.py`` checks it against the
unit-by-unit reference), plus the batched dirty-set write-back in
:class:`~repro.buffering.cache.BufferCache`.
"""

import numpy as np
import pytest

from repro.buffering import BufferCache
from repro.sim import Environment
from repro.storage.layout import StripedLayout, plan_batch
from tests.storage.test_plan_oracle import unit_segments


def test_plan_batch_merges_striped_runs():
    # 4 devices, 8-byte stripe unit: bytes [0, 64) make two full cycles.
    # Consecutive stripe units hit different devices, but each device's
    # two units ARE device-contiguous: one request per device.
    layout = StripedLayout(4, 8)
    assert len(unit_segments(layout, 0, 64)) == 8
    plan = plan_batch(layout, [(0, 64)], coalesce=True)
    # pieces are (payload position, length, count, stride) groups: device 0
    # carries payload bytes [0, 8) and [32, 40)
    assert plan.requests == [
        (0, 0, 16, [(0, 8, 2, 32)]),
        (1, 0, 16, [(8, 8, 2, 32)]),
        (2, 0, 16, [(16, 8, 2, 32)]),
        (3, 0, 16, [(24, 8, 2, 32)]),
    ]
    # without coalescing every stripe unit is a request of its own
    units = plan_batch(layout, [(0, 64)], coalesce=False)
    assert [r[:3] for r in units.requests] == unit_segments(layout, 0, 64)


def test_plan_batch_keeps_discontiguous_runs_apart():
    layout = StripedLayout(2, 8)
    # device 0 bytes [0, 8), then device 0 bytes [16, 24) (a gap on the
    # device: no merge), then device 1 bytes [0, 8)
    plan = plan_batch(layout, [(0, 8), (32, 8), (8, 8)], coalesce=True)
    # a request that is one piece of the payload carries just its position
    assert plan.requests == [(0, 0, 8, 0), (0, 16, 8, 8), (1, 0, 8, 16)]


def test_plan_batch_scatter_round_trip():
    layout = StripedLayout(3, 4)
    total = 60
    plan = plan_batch(layout, [(5, total)], coalesce=True)
    src = np.arange(total, dtype=np.uint8)
    # what each device would be sent, and would return, for its run
    payloads = plan.payloads(src)
    assert [p.size for p in payloads] == [n for _, _, n, _ in plan.requests]
    np.testing.assert_array_equal(plan.assemble(payloads), src)


def test_plan_batch_preserves_total_length():
    layout = StripedLayout(4, 8)
    plan = plan_batch(layout, [(3, 101)], coalesce=True)
    assert plan.nbytes == 101
    assert sum(n for _, _, n, _ in plan.requests) == 101
    # every request's pieces add up to its length (a bare position is one
    # piece of the whole length)
    for _, _, n, pieces in plan.requests:
        if isinstance(pieces, list):
            assert sum(length * count for _, length, count, _ in pieces) == n


def test_cache_flush_uses_batched_writeback_once():
    env = Environment()
    fetched, written, batched = [], [], []

    def fetch(block):
        fetched.append(block)
        return env.timeout(0, np.zeros(4, dtype=np.uint8))

    def writeback(block, data):
        written.append(block)
        return env.timeout(0)

    cache = BufferCache(env, fetch, writeback, capacity_blocks=8)

    def writeback_many(blocks, datas):
        batched.append((list(blocks), [d.copy() for d in datas]))
        return env.timeout(0)

    cache.writeback_many = writeback_many

    def prog():
        for b in (3, 1, 2):
            yield from cache.write(b, np.full(4, b, dtype=np.uint8))
        yield from cache.flush()

    env.run(env.process(prog()))
    # one batched submission for the whole dirty set, sorted; the
    # per-block writeback path never ran
    assert len(batched) == 1
    blocks, datas = batched[0]
    assert blocks == [1, 2, 3]
    assert [int(d[0]) for d in datas] == [1, 2, 3]
    assert written == []
    assert cache.writebacks == 3
    # dirty set drained: a second flush is a no-op
    env.run(env.process(cache.flush()))
    assert len(batched) == 1


def test_cache_flush_falls_back_per_block_without_batch_hook():
    env = Environment()
    written = []
    cache = BufferCache(
        env,
        fetch=lambda b: env.timeout(0, np.zeros(2, dtype=np.uint8)),
        writeback=lambda b, d: (written.append(b), env.timeout(0))[1],
        capacity_blocks=4,
    )

    def prog():
        yield from cache.write(7, np.ones(2, dtype=np.uint8))
        yield from cache.flush()

    env.run(env.process(prog()))
    assert written == [7]


@pytest.mark.parametrize("org", ["IS", "PDA"])
def test_batched_submission_is_result_identical(org):
    """End to end: batch_io changes timing, never the stored bytes."""
    from repro import build_parallel_fs
    from tests.perf.orgload import media_bytes, run_org

    media = {}
    for batch in (False, True):
        env = Environment()
        pfs = build_parallel_fs(env, 4, batch_io=batch)
        media[batch] = media_bytes(run_org(env, pfs, org, n_records=96).file).tobytes()
    assert media[False] == media[True]
