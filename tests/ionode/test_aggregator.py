"""Unit tests for request coalescing and data-sieving plans (pure planning)."""

import numpy as np
import pytest

from repro.ionode import coalesce, plan_reads, plan_writes


# -- coalesce -----------------------------------------------------------------


def test_coalesce_empty():
    assert coalesce([]) == []


def test_coalesce_drops_zero_length():
    assert coalesce([(10, 0), (20, 0)]) == []


def test_coalesce_merges_adjacent():
    assert coalesce([(0, 10), (10, 10)]) == [(0, 20)]


def test_coalesce_merges_overlapping():
    assert coalesce([(0, 10), (5, 10)]) == [(0, 15)]


def test_coalesce_keeps_disjoint():
    assert coalesce([(0, 4), (8, 4)]) == [(0, 4), (8, 4)]


def test_coalesce_unsorted_input():
    assert coalesce([(20, 5), (0, 5), (5, 5)]) == [(0, 10), (20, 5)]


def test_coalesce_contained_range_absorbed():
    assert coalesce([(0, 100), (10, 5)]) == [(0, 100)]


def test_every_input_contained_in_exactly_one_run():
    ranges = [(3, 7), (15, 1), (9, 6), (40, 2)]
    runs = coalesce(ranges)
    for off, n in ranges:
        holders = [(s, c) for s, c in runs if s <= off and off + n <= s + c]
        assert len(holders) == 1


# -- plan_reads ---------------------------------------------------------------


def test_single_run_is_never_sieved():
    plan = plan_reads([(0, 10), (10, 10)])
    assert plan.reads == ((0, 20),)
    assert not plan.sieved
    assert plan.waste_bytes == 0
    assert plan.payload_bytes == 20


def test_small_holes_trigger_sieving():
    # 2 runs of 100 bytes with a 50-byte hole: span 250 <= 4 * 200
    plan = plan_reads([(0, 100), (150, 100)])
    assert plan.sieved
    assert plan.reads == ((0, 250),)
    assert plan.payload_bytes == 200
    assert plan.waste_bytes == 50
    assert plan.device_bytes == 250


def test_large_holes_defeat_sieving():
    # span 10_100 > 4 * 200: cheaper to pay two requests
    plan = plan_reads([(0, 100), (10_000, 100)])
    assert not plan.sieved
    assert len(plan.reads) == 2
    assert plan.waste_bytes == 0


def test_sieve_window_bounds_covering_extent():
    plan = plan_reads([(0, 600), (800, 600)], sieve_window=1000)
    assert not plan.sieved
    assert len(plan.reads) == 2


def test_sieve_disabled():
    plan = plan_reads([(0, 100), (150, 100)], sieve=False)
    assert not plan.sieved
    assert len(plan.reads) == 2


def test_sieve_factor_validated():
    with pytest.raises(ValueError):
        plan_reads([(0, 1)], sieve_factor=0.5)


def test_device_bytes_equals_payload_plus_waste():
    for ranges in ([(0, 64), (100, 64), (200, 64)], [(0, 8)], [(0, 4), (4096, 4)]):
        plan = plan_reads(ranges)
        assert plan.device_bytes == plan.payload_bytes + plan.waste_bytes


# -- plan_writes --------------------------------------------------------------


def test_plan_writes_merges_adjacent():
    ops = plan_writes([(0, b"aaaa"), (4, b"bbbb")])
    [(offset, data)] = ops
    assert offset == 0
    assert bytes(data) == b"aaaabbbb"


def test_plan_writes_keeps_gaps_separate():
    ops = plan_writes([(0, b"aa"), (10, b"bb")])
    assert [(offset, len(data)) for offset, data in ops] == [(0, 2), (10, 2)]


def test_plan_writes_overlap_never_merges():
    """Overlapping writes are a client race: issue each in arrival order."""
    ops = plan_writes([(4, b"late"), (0, b"earlybird")])
    assert [(offset, bytes(data)) for offset, data in ops] == [
        (4, b"late"),
        (0, b"earlybird"),
    ]


def test_plan_writes_drops_empty():
    ops = plan_writes([(0, b""), (8, b"x")])
    [(offset, _)] = ops
    assert offset == 8


def test_plan_writes_accepts_arrays():
    ops = plan_writes([(0, np.arange(4, dtype=np.uint8))])
    assert bytes(ops[0][1]) == bytes(range(4))
