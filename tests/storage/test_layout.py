"""Unit + property tests for data layouts.

The central property: a layout is a *bijection* from file bytes to
(device, offset) pairs — no byte lost, none doubly placed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    ClusteredLayout,
    InterleavedLayout,
    StripedLayout,
    make_layout,
    plan_batch,
)


def units(layout, offset, length):
    """``(device, offset, length)`` of every stripe unit or partition the
    range touches, in file order: the requests of an uncoalesced plan."""
    plan = plan_batch(layout, [(offset, length)], coalesce=False)
    return [(dev, off, n) for dev, off, n, _ in plan.requests]


def enumerate_placement(layout, file_bytes):
    """(device, offset) of every file byte, via the units of the whole file."""
    placement = []
    for dev, off, n in units(layout, 0, file_bytes):
        for i in range(n):
            placement.append((dev, off + i))
    return placement


class TestStriped:
    def test_small_example(self):
        lay = StripedLayout(n_devices=3, stripe_unit=4)
        segs = units(lay, 0, 12)
        assert segs == [
            (0, 0, 4), (1, 0, 4), (2, 0, 4),
        ]

    def test_second_round_advances_device_offset(self):
        lay = StripedLayout(n_devices=2, stripe_unit=4)
        segs = units(lay, 8, 8)
        assert segs == [(0, 4, 4), (1, 4, 4)]

    def test_unaligned_range(self):
        lay = StripedLayout(n_devices=2, stripe_unit=4)
        segs = units(lay, 2, 5)
        assert segs == [(0, 2, 2), (1, 0, 3)]

    def test_single_device_degenerates_to_contiguous(self):
        lay = StripedLayout(n_devices=1, stripe_unit=4)
        assert units(lay, 3, 10) == [
            (0, 3, 1), (0, 4, 4), (0, 8, 4), (0, 12, 1)
        ]

    def test_device_bytes_balanced(self):
        lay = StripedLayout(n_devices=3, stripe_unit=4)
        assert lay.device_bytes(24) == [8, 8, 8]
        assert lay.device_bytes(25) == [12, 8, 8]
        assert lay.device_bytes(0) == [0, 0, 0]

    def test_locate(self):
        lay = StripedLayout(n_devices=2, stripe_unit=4)
        assert units(lay, 0, 1)[0][:2] == (0, 0)
        assert units(lay, 4, 1)[0][:2] == (1, 0)
        assert units(lay, 9, 1)[0][:2] == (0, 5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StripedLayout(0, 4)
        with pytest.raises(ValueError):
            StripedLayout(2, 0)
        with pytest.raises(ValueError):
            units(StripedLayout(2, 4), -1, 4)

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.integers(1, 64), st.integers(0, 500))
    def test_bijection_property(self, d, su, nbytes):
        lay = StripedLayout(d, su)
        placement = enumerate_placement(lay, nbytes)
        assert len(placement) == nbytes
        assert len(set(placement)) == nbytes  # no collisions
        # every byte fits in the extent the layout asked for
        per_dev = lay.device_bytes(nbytes)
        for dev, off in placement:
            assert off < per_dev[dev]

    @settings(max_examples=40)
    @given(st.integers(1, 8), st.integers(1, 32), st.integers(0, 300),
           st.integers(0, 100), st.integers(0, 100))
    def test_subrange_consistent_with_whole(self, d, su, nbytes, off, ln):
        """Mapping a sub-range gives the same placement as the whole file."""
        off = min(off, nbytes)
        ln = min(ln, nbytes - off)
        lay = StripedLayout(d, su)
        whole = enumerate_placement(lay, nbytes)
        sub = []
        for dev, o, n in units(lay, off, ln):
            for i in range(n):
                sub.append((dev, o + i))
        assert sub == whole[off : off + ln]


class TestInterleaved:
    def test_block_on_single_device(self):
        lay = InterleavedLayout(n_devices=3, block_bytes=8)
        for b in range(9):
            segs = units(lay, b * 8, 8)
            assert len(segs) == 1
            assert segs[0][0] == b % 3
            assert segs[0][0] == lay.device_of_block(b)

    def test_name(self):
        assert InterleavedLayout(2, 8).name == "interleaved"
        assert StripedLayout(2, 8).name == "striped"

    def test_device_of_block_validates(self):
        with pytest.raises(ValueError):
            InterleavedLayout(2, 8).device_of_block(-1)


class TestClustered:
    def test_partitions_to_distinct_devices(self):
        lay = ClusteredLayout(n_devices=3, partition_bytes=[10, 20, 30])
        assert units(lay, 0, 10) == [(0, 0, 10)]
        assert units(lay, 10, 20) == [(1, 0, 20)]
        assert units(lay, 30, 30) == [(2, 0, 30)]

    def test_range_spanning_partitions_splits(self):
        lay = ClusteredLayout(n_devices=3, partition_bytes=[10, 10])
        segs = units(lay, 5, 10)
        assert segs == [(0, 5, 5), (1, 0, 5)]

    def test_wraparound_stacks_partitions(self):
        # 4 partitions on 2 devices: p0,p2 on dev0; p1,p3 on dev1
        lay = ClusteredLayout(n_devices=2, partition_bytes=[10, 10, 10, 10])
        assert lay.device_of_partition(2) == 0
        segs = units(lay, 20, 10)  # partition 2
        assert segs == [(0, 10, 10)]  # stacked after partition 0

    def test_device_bytes_requires_exact_size(self):
        lay = ClusteredLayout(n_devices=2, partition_bytes=[10, 20])
        assert lay.device_bytes(30) == [10, 20]
        with pytest.raises(ValueError):
            lay.device_bytes(31)

    def test_out_of_file_range_rejected(self):
        lay = ClusteredLayout(n_devices=2, partition_bytes=[10, 10])
        with pytest.raises(ValueError):
            units(lay, 15, 10)

    def test_zero_length_partitions_allowed(self):
        lay = ClusteredLayout(n_devices=2, partition_bytes=[10, 0, 10])
        segs = units(lay, 0, 20)
        assert sum(n for _, _, n in segs) == 20

    @settings(max_examples=60)
    @given(
        st.integers(1, 6),
        st.lists(st.integers(0, 50), min_size=1, max_size=10),
    )
    def test_bijection_property(self, d, parts):
        lay = ClusteredLayout(d, parts)
        total = sum(parts)
        placement = enumerate_placement(lay, total)
        assert len(placement) == total
        assert len(set(placement)) == total
        per_dev = lay.device_bytes(total)
        for dev, off in placement:
            assert off < per_dev[dev]


class TestFactory:
    def test_striped(self):
        lay = make_layout("striped", 4, stripe_unit=512)
        assert isinstance(lay, StripedLayout) and lay.stripe_unit == 512

    def test_interleaved_requires_block_bytes(self):
        with pytest.raises(ValueError):
            make_layout("interleaved", 4)
        assert isinstance(
            make_layout("interleaved", 4, block_bytes=64), InterleavedLayout
        )

    def test_clustered_requires_partitions(self):
        with pytest.raises(ValueError):
            make_layout("clustered", 4)
        lay = make_layout("clustered", 2, partition_bytes=[5, 5])
        assert isinstance(lay, ClusteredLayout)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_layout("raid7", 4)
