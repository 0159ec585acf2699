"""File views: descriptor algebra and the ParallelFile view surface."""

import numpy as np
import pytest

from repro import Environment
from repro.datatype import (
    ContiguousView,
    IndexedView,
    NestedStridedView,
    StridedView,
    view_of_map,
)
from tests.fs.conftest import build_pfs


def make_file(env, org="IS", n=128, rpb=2, p=4, **kw):
    pfs = build_pfs(env)
    return pfs.create(
        "vf", org, n_records=n, record_size=16, dtype="float64",
        records_per_block=rpb, n_processes=p, **kw,
    )


def seed(env, f, data):
    def proc():
        yield from f.global_view().write(data)

    env.run(env.process(proc()))


def read_back(env, f):
    def proc():
        out = yield from f.global_view().read()
        return out

    return env.run(env.process(proc()))


class TestDescriptors:
    def test_contiguous(self):
        v = ContiguousView(4, 6)
        assert v.runs() == [(4, 6)]
        assert v.n_view_records == 6
        assert v.extent == (4, 10)
        assert list(v.indices()) == list(range(4, 10))
        assert len(v) == 6

    def test_strided(self):
        v = StridedView(2, 3, 2, 5)  # segments at 2, 7, 12
        assert v.runs() == [
            (2, 2), (7, 2), (12, 2),
        ]
        assert v.n_view_records == 6
        assert v.extent == (2, 14)
        assert list(v.indices()) == [2, 3, 7, 8, 12, 13]

    def test_strided_full_stride_flattens_contiguous(self):
        # stride == seg_records: the segments are really one run
        v = StridedView(0, 4, 3, 3)
        assert v.flatten() == [(0, 12)]

    def test_nested_strided(self):
        inner = StridedView(0, 2, 1, 2)  # records {0, 2}
        v = NestedStridedView(inner, 3, 10)
        assert list(v.indices()) == [0, 2, 10, 12, 20, 22]
        assert v.n_view_records == 6

    def test_indexed_and_from_indices(self):
        v = IndexedView([(5, 2), (10, 1)])
        assert list(v.indices()) == [5, 6, 10]
        w = IndexedView.from_indices([5, 6, 10])
        assert w.runs() == [(5, 2), (10, 1)]

    def test_byte_ranges(self):
        v = IndexedView([(2, 2), (8, 1)])
        assert v.byte_ranges(16) == [(32, 32), (128, 16)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ContiguousView(-1, 4)
        with pytest.raises(ValueError):
            ContiguousView(0, 0)
        with pytest.raises(ValueError):
            StridedView(0, 2, 4, 3)  # stride < segment
        with pytest.raises(ValueError):
            IndexedView([(0, 4), (2, 4)])  # overlap
        with pytest.raises(ValueError):
            IndexedView([(8, 2), (0, 2)])  # out of order
        with pytest.raises(ValueError):
            IndexedView.from_indices([3, 3, 4])  # not strictly ascending
        with pytest.raises(ValueError):
            NestedStridedView(ContiguousView(0, 5), 2, 4)  # stride < span

    def test_view_of_map_covers_partition(self):
        env = Environment()
        f = make_file(env, "IS")
        for q in range(4):
            v = view_of_map(f.map, q)
            assert np.array_equal(v.indices(), f.map.records_of(q))


class TestReadWriteView:
    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("sieve", [False, True])
    def test_read_view_matches_fancy_index(self, batch, sieve):
        env = Environment()
        pfs = build_pfs(env)
        pfs.volume.coalesce = batch
        f = pfs.create(
            "vf", "IS", n_records=128, record_size=16, dtype="float64",
            records_per_block=2, n_processes=4,
        )
        data = np.random.default_rng(2).random((128, 2))
        seed(env, f, data)
        v = StridedView(1, 12, 3, 10)

        def proc():
            out = yield f.read_view(v, sieve=sieve, sieve_factor=8.0)
            return out

        out = env.run(env.process(proc()))
        assert np.array_equal(out, data[v.indices()])

    @pytest.mark.parametrize("sieve", [False, True])
    def test_write_view_roundtrip(self, sieve):
        env = Environment()
        f = make_file(env)
        data = np.random.default_rng(3).random((128, 2))
        seed(env, f, data)
        v = StridedView(0, 16, 2, 8)
        new = np.random.default_rng(4).random((v.n_view_records, 2))

        def proc():
            n = yield f.write_view(new, v, sieve=sieve, sieve_factor=16.0)
            return n

        assert env.run(env.process(proc())) == v.n_view_records
        expected = data.copy()
        expected[v.indices()] = new
        assert np.array_equal(read_back(env, f), expected)

    def test_set_view_default(self):
        env = Environment()
        f = make_file(env)
        data = np.random.default_rng(5).random((128, 2))
        seed(env, f, data)
        assert f.view is None
        prev = f.set_view(IndexedView([(3, 4), (40, 2)]))
        assert prev is None

        def proc():
            out = yield f.read_view()
            return out

        out = env.run(env.process(proc()))
        assert np.array_equal(out, data[f.view.indices()])

    def test_read_view_without_view_rejected(self):
        env = Environment()
        f = make_file(env)
        with pytest.raises(ValueError):
            f.read_view()

    def test_view_beyond_eof_rejected(self):
        env = Environment()
        f = make_file(env, n=16)
        with pytest.raises(ValueError):
            f.set_view(ContiguousView(10, 10))
        with pytest.raises(ValueError):
            f.read_view(ContiguousView(0, 17))

    def test_write_view_count_mismatch_rejected(self):
        env = Environment()
        f = make_file(env)
        v = ContiguousView(0, 4)
        with pytest.raises(ValueError):
            f.write_view(np.zeros((3, 2)), v)

    def test_contiguous_view_uses_single_transfer(self):
        env = Environment()
        f = make_file(env)
        data = np.random.default_rng(6).random((128, 2))
        seed(env, f, data)

        def proc():
            out = yield f.read_view(ContiguousView(8, 16))
            return out

        out = env.run(env.process(proc()))
        assert np.array_equal(out, data[8:24])
