"""Property and unit tests for hyperslab lowering (repro.datatype.slab)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OrganizationError
from repro.datatype import (
    ContiguousView,
    IndexedView,
    NestedStridedView,
    StridedView,
    slab_indices,
    slab_size,
    slab_to_view,
    validate_slab,
)


@st.composite
def slabs(draw, max_rank=4, max_extent=8):
    """A random (shape, start, count) with 0 <= start+count <= extent."""
    rank = draw(st.integers(0, max_rank))
    shape = tuple(draw(st.integers(0, max_extent)) for _ in range(rank))
    start, count = [], []
    for ext in shape:
        s = draw(st.integers(0, ext))
        c = draw(st.integers(0, ext - s))
        start.append(s)
        count.append(c)
    return shape, tuple(start), tuple(count)


class TestValidate:
    def test_normalizes_to_int_tuples(self):
        s, c = validate_slab((4, 5), (np.int64(1), 2), [2, np.int32(3)])
        assert s == (1, 2) and c == (2, 3)
        assert all(isinstance(v, int) for v in s + c)

    def test_zero_count_is_legal(self):
        assert validate_slab((4,), (4,), (0,)) == ((4,), (0,))

    @pytest.mark.parametrize("start,count,msg", [
        ((-1, 0), (1, 1), "start -1 is negative"),
        ((0, 0), (-2, 1), "count -2 is negative"),
        ((3, 0), (2, 1), "slab [3, 5) outside extent 4"),
        ((0, 5), (0, 1), "slab [5, 6) outside extent 5"),
    ])
    def test_bad_slabs_name_the_dimension(self, start, count, msg):
        with pytest.raises(OrganizationError, match=r"dimension \d"):
            validate_slab((4, 5), start, count)
        with pytest.raises(OrganizationError) as exc:
            validate_slab((4, 5), start, count)
        assert msg in str(exc.value)

    def test_rank_mismatch(self):
        with pytest.raises(OrganizationError, match="rank mismatch"):
            validate_slab((4, 5), (0,), (1, 1))

    def test_non_integer_indices(self):
        with pytest.raises(OrganizationError, match="integers"):
            validate_slab((4,), ("a",), (1,))

    def test_negative_shape(self):
        with pytest.raises(OrganizationError, match="negative extent"):
            validate_slab((-1,), (0,), (0,))


class TestCompilation:
    def test_full_extent_is_one_contiguous_run(self):
        v = slab_to_view((4, 6), (0, 0), (4, 6))
        assert isinstance(v, ContiguousView)
        assert v.runs()[0] == (0, 24)

    def test_empty_slab_is_empty_indexed_view(self):
        v = slab_to_view((4, 6), (2, 3), (0, 2))
        assert isinstance(v, IndexedView)
        assert v.flatten() == []

    def test_row_slab_is_strided(self):
        v = slab_to_view((4, 6), (1, 2), (2, 3))
        assert isinstance(v, StridedView)

    def test_3d_partial_is_nested(self):
        v = slab_to_view((4, 5, 6), (1, 1, 1), (2, 2, 2))
        assert isinstance(v, NestedStridedView)

    def test_rank0_scalar(self):
        v = slab_to_view((), (), (), base=100, scale=8)
        assert v.runs()[0] == (100, 8)

    def test_scale_and_base_validation(self):
        with pytest.raises(OrganizationError, match="scale"):
            slab_to_view((4,), (0,), (2,), scale=0)
        with pytest.raises(OrganizationError, match="base"):
            slab_to_view((4,), (0,), (2,), base=-1)

    @given(slabs())
    @settings(max_examples=200, deadline=None)
    def test_view_indices_match_slab_indices(self, slab):
        """The compiled view selects exactly the slab's element set, in
        ascending (file) order — the oracle is the raw index expansion."""
        shape, start, count = slab
        want = slab_indices(shape, start, count)
        got = slab_to_view(shape, start, count).indices()
        assert np.array_equal(np.asarray(got, dtype=np.int64), want)

    @given(slabs(), st.integers(1, 5), st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_scale_base_places_every_element(self, slab, scale, base):
        shape, start, count = slab
        elems = slab_indices(shape, start, count)
        want = (base + elems * scale)[:, None] + np.arange(scale)
        got = slab_to_view(shape, start, count, base=base, scale=scale)
        assert np.array_equal(
            np.asarray(got.indices(), dtype=np.int64), want.reshape(-1)
        )

    @given(slabs())
    @settings(max_examples=100, deadline=None)
    def test_size_matches_index_count(self, slab):
        shape, start, count = slab
        assert slab_size(count) == len(slab_indices(shape, start, count))

    @given(slabs())
    @settings(max_examples=100, deadline=None)
    def test_indices_strictly_ascending(self, slab):
        shape, start, count = slab
        idx = slab_indices(shape, start, count)
        assert np.all(np.diff(idx) > 0) if idx.size > 1 else True
