"""Unit tests for view-mismatch handling: alternate views and conversion."""

import numpy as np
import pytest

from repro.core import OrganizationError
from repro.fs import alternate_view, convert_file
from repro.storage import InterleavedLayout


def records(n, seed=3):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2))


def make_ps_file(pfs, env, n=48, rpb=4, p=4):
    f = pfs.create(
        "src_ps", "PS", n_records=n, record_size=16, dtype="float64",
        records_per_block=rpb, n_processes=p,
    )
    data = records(n)

    def proc():
        yield from f.global_view().write(data)

    env.run(env.process(proc()))
    return f, data


class TestAlternateView:
    def test_is_view_of_ps_file_returns_correct_records(self, env, pfs):
        f, data = make_ps_file(pfs, env)

        def proc():
            out = {}
            for p in range(4):
                h = alternate_view(f, "IS", p)
                out[p] = yield from h.read_next(h.n_local_records)
            return out

        out = env.run(env.process(proc()))
        from repro.core import BlockSpec, InterleavedMap, RecordSpec

        is_map = InterleavedMap(BlockSpec(RecordSpec(16, "float64"), 4), 48, 4)
        for p in range(4):
            assert np.array_equal(out[p], data[is_map.records_of(p)])

    def test_alternate_view_with_different_process_count(self, env, pfs):
        f, data = make_ps_file(pfs, env)

        def proc():
            h = alternate_view(f, "IS", 5, n_processes=6)
            out = yield from h.read_next(h.n_local_records)
            return out

        out = env.run(env.process(proc()))
        from repro.core import BlockSpec, InterleavedMap, RecordSpec

        is_map = InterleavedMap(BlockSpec(RecordSpec(16, "float64"), 4), 48, 6)
        assert np.array_equal(out, data[is_map.records_of(5)])

    @pytest.mark.parametrize("batch", [False, True])
    def test_chunked_is_view_of_ps_file_reads_and_writes_its_records(self, env, pfs, batch):
        """Chunks of 3 records straddle the 4-record IS blocks, so every
        request after the first covers two runs: per-run transfers with
        batching off, one gather/scatter with it on."""
        from repro.core import BlockSpec, InterleavedMap, RecordSpec

        pfs.volume.coalesce = batch
        f, data = make_ps_file(pfs, env)
        is_map = InterleavedMap(BlockSpec(RecordSpec(16, "float64"), 4), 48, 4)
        new = records(48, seed=9)

        def proc():
            out = {}
            for p in range(4):
                h = alternate_view(f, "IS", p)
                parts = []
                while not h.eof:
                    parts.append((yield from h.read_next(3)))
                out[p] = np.concatenate(parts)
                w = alternate_view(f, "IS", p)
                mine = new[is_map.records_of(p)]
                for pos in range(0, len(mine), 3):
                    yield from w.write_next(mine[pos : pos + 3])
            after = yield from f.global_view().read()
            return out, after

        out, after = env.run(env.process(proc()))
        for p in range(4):
            assert np.array_equal(out[p], data[is_map.records_of(p)])
        assert np.array_equal(after, new)

    def test_alternate_view_is_slower_than_native(self, env, pfs):
        """The §5 'degraded performance' claim, at the handle level."""
        from .conftest import build_pfs
        from repro.sim import Environment

        def run(native):
            env2 = Environment()
            pfs2 = build_pfs(env2, n_devices=4)
            n, rpb, p = 512, 4, 4
            org = "IS" if native else "PS"
            f = pfs2.create(
                "t", org, n_records=n, record_size=64, records_per_block=rpb,
                n_processes=p,
            )
            data = np.zeros((n, 64), dtype=np.uint8)

            def pre():
                yield from f.global_view().write(data)

            env2.run(env2.process(pre()))
            start = env2.now

            def reader(q):
                if native:
                    h = f.internal_view(q)
                else:
                    h = alternate_view(f, "IS", q)
                yield from h.read_next(h.n_local_records)

            for q in range(p):
                env2.process(reader(q))
            env2.run()
            return env2.now - start

        assert run(native=True) < run(native=False)

    def test_dynamic_desired_org_rejected(self, env, pfs):
        f, _ = make_ps_file(pfs, env)
        with pytest.raises(OrganizationError):
            alternate_view(f, "SS", 0)

    def test_dynamic_source_org_rejected(self, env, pfs):
        """Regression: a dynamically-organized source file was silently
        accepted, producing a handle whose "alternate view" reinterprets a
        record sequence that does not exist. The static-only contract must
        be enforced on the source, the way CollectiveIO enforces it."""
        f = pfs.create("src_ss", "SS", n_records=16, record_size=8,
                       dtype="float64", records_per_block=2, n_processes=2)
        with pytest.raises(OrganizationError):
            alternate_view(f, "PS", 0)


class TestConvertFile:
    def test_ps_to_is_preserves_contents(self, env, pfs):
        f, data = make_ps_file(pfs, env)

        def proc():
            dst = yield from convert_file(pfs, f, "dst_is", "IS")
            out = yield from dst.global_view().read()
            return dst, out

        dst, out = env.run(env.process(proc()))
        assert np.array_equal(out, data)
        assert isinstance(dst.layout, InterleavedLayout)
        assert pfs.exists("dst_is")

    def test_conversion_cost_scales_with_file_size(self, env, pfs):
        from .conftest import build_pfs
        from repro.sim import Environment

        def cost(n):
            env2 = Environment()
            pfs2 = build_pfs(env2, n_devices=4, cylinders=512)
            f = pfs2.create(
                "big", "PS", n_records=n, record_size=64,
                records_per_block=8, n_processes=4,
            )

            def pre():
                yield from f.global_view().write(np.zeros((n, 64), dtype=np.uint8))

            env2.run(env2.process(pre()))
            start = env2.now

            def conv():
                yield from convert_file(pfs2, f, "big2", "IS")

            env2.run(env2.process(conv()))
            return env2.now - start

        small, large = cost(256), cost(1024)
        assert large > small * 2.5

    def test_chunk_records_validation(self, env, pfs):
        f, _ = make_ps_file(pfs, env)
        with pytest.raises(ValueError):
            next(convert_file(pfs, f, "x", "IS", chunk_records=0))

    def test_convert_to_same_org_new_layout(self, env, pfs):
        f, data = make_ps_file(pfs, env)

        def proc():
            dst = yield from convert_file(pfs, f, "restriped", "PS", layout="striped")
            out = yield from dst.global_view().read()
            return out

        assert np.array_equal(env.run(env.process(proc())), data)
