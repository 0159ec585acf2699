"""Unit + property tests for the extent allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import AllocationError, ExtentAllocator


class TestBasic:
    def test_first_fit_from_zero(self):
        alloc = ExtentAllocator(100)
        assert alloc.allocate(30) == 0
        assert alloc.allocate(30) == 30
        assert alloc.free_bytes == 40

    def test_exhaustion_raises(self):
        alloc = ExtentAllocator(100)
        alloc.allocate(80)
        with pytest.raises(AllocationError):
            alloc.allocate(30)

    def test_free_and_reuse(self):
        alloc = ExtentAllocator(100)
        a = alloc.allocate(40)
        alloc.allocate(40)
        alloc.free(a, 40)
        assert alloc.allocate(40) == a

    def test_coalescing(self):
        alloc = ExtentAllocator(100)
        a = alloc.allocate(30)
        b = alloc.allocate(30)
        c = alloc.allocate(40)
        alloc.free(a, 30)
        alloc.free(c, 40)
        alloc.free(b, 30)  # middle free must merge all three
        assert alloc.largest_free_extent == 100
        assert alloc.fragmentation == 0.0

    def test_double_free_detected(self):
        alloc = ExtentAllocator(100)
        a = alloc.allocate(30)
        alloc.free(a, 30)
        with pytest.raises(ValueError):
            alloc.free(a, 30)

    def test_free_outside_device(self):
        alloc = ExtentAllocator(100)
        with pytest.raises(ValueError):
            alloc.free(90, 20)

    def test_zero_capacity(self):
        alloc = ExtentAllocator(0)
        with pytest.raises(AllocationError):
            alloc.allocate(1)

    def test_invalid_sizes(self):
        alloc = ExtentAllocator(100)
        with pytest.raises(ValueError):
            alloc.allocate(0)
        with pytest.raises(ValueError):
            alloc.free(0, 0)
        with pytest.raises(ValueError):
            ExtentAllocator(-1)


class TestFragmentationMetric:
    def test_fragmented_state(self):
        alloc = ExtentAllocator(100)
        spans = [alloc.allocate(20) for _ in range(5)]
        alloc.free(spans[0], 20)
        alloc.free(spans[2], 20)
        # two separate 20-byte holes
        assert alloc.free_bytes == 40
        assert alloc.largest_free_extent == 20
        assert alloc.fragmentation == pytest.approx(0.5)

    def test_full_device_zero_fragmentation(self):
        alloc = ExtentAllocator(100)
        alloc.allocate(100)
        assert alloc.fragmentation == 0.0


@settings(max_examples=60)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=30))
def test_allocations_never_overlap(sizes):
    alloc = ExtentAllocator(2000)
    taken = []
    for n in sizes:
        start = alloc.allocate(n)
        for s, ln in taken:
            assert start + n <= s or start >= s + ln
        taken.append((start, n))
    assert alloc.allocated_bytes == sum(sizes)


@settings(max_examples=40)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=20), st.randoms())
def test_free_everything_restores_capacity(sizes, rnd):
    alloc = ExtentAllocator(2000)
    extents = [(alloc.allocate(n), n) for n in sizes]
    rnd.shuffle(extents)
    for start, n in extents:
        alloc.free(start, n)
    assert alloc.free_bytes == 2000
    assert alloc.largest_free_extent == 2000
    assert alloc.allocated_bytes == 0
