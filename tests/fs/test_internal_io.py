"""Unit tests for the per-organization internal view handles."""

import numpy as np
import pytest

from repro.core import ExhaustedError, OrganizationError, OwnershipError
from repro.fs import SSSession


def records(n, items=2, seed=2):
    rng = np.random.default_rng(seed)
    return rng.random((n, items))


def make_file(pfs, org, n=40, rpb=4, p=4, **kw):
    return pfs.create(
        f"i_{org}", org, n_records=n, record_size=16, dtype="float64",
        records_per_block=rpb, n_processes=p, **kw,
    )


def preload(env, f, data):
    def proc():
        yield from f.global_view().write(data)

    env.run(env.process(proc()))


class TestSequentialHandle:
    def test_reader_scans_in_order(self, env, pfs):
        f = make_file(pfs, "S", p=3, reader=1)
        data = records(40)
        preload(env, f, data)

        def proc():
            h = f.internal_view(1)
            a = yield from h.read_next(25)
            b = yield from h.read_next(25)
            return a, b, h.eof

        a, b, eof = env.run(env.process(proc()))
        assert np.array_equal(np.concatenate([a, b]), data)
        assert len(b) == 15 and eof

    def test_non_reader_rejected(self, pfs):
        f = make_file(pfs, "S", p=3, reader=1)
        with pytest.raises(OrganizationError):
            f.internal_view(0)

    def test_write_next(self, env, pfs):
        f = make_file(pfs, "S", p=1)
        data = records(40)

        def proc():
            h = f.internal_view(0)
            yield from h.write_next(data[:20])
            yield from h.write_next(data[20:])
            out = yield from f.global_view().read()
            return out, h.position

        out, pos = env.run(env.process(proc()))
        assert np.array_equal(out, data)
        assert pos == 40

    def test_process_bounds(self, pfs):
        f = make_file(pfs, "S", p=2)
        with pytest.raises(OrganizationError):
            f.internal_view(5)


class TestPartitionHandle:
    @pytest.mark.parametrize("org", ["PS", "IS"])
    def test_each_process_reads_its_records(self, env, pfs, org):
        f = make_file(pfs, org)
        data = records(40)
        preload(env, f, data)

        def proc():
            out = {}
            for p in range(4):
                h = f.internal_view(p)
                out[p] = yield from h.read_next(h.n_local_records)
            return out

        out = env.run(env.process(proc()))
        for p in range(4):
            assert np.array_equal(out[p], data[f.map.records_of(p)])

    @pytest.mark.parametrize("org", ["PS", "IS"])
    def test_parallel_write_then_global_read(self, env, pfs, org):
        f = make_file(pfs, org)
        data = records(40)
        done = []

        def writer(p):
            h = f.internal_view(p)
            recs = f.map.records_of(p)
            for chunk_start in range(0, len(recs), 3):
                chunk = data[recs[chunk_start : chunk_start + 3]]
                yield from h.write_next(chunk)
            done.append(p)

        def checker():
            for p in range(4):
                env.process(writer(p))
            # let all writers finish
            while len(done) < 4:
                yield env.timeout(0.01)
            out = yield from f.global_view().read()
            return out

        assert np.array_equal(env.run(env.process(checker())), data)

    def test_block_cursor(self, env, pfs):
        f = make_file(pfs, "IS")
        data = records(40)
        preload(env, f, data)

        def proc():
            h = f.internal_view(1)  # blocks 1, 5, 9
            out = []
            while h.blocks_remaining:
                blk = yield from h.read_next_block()
                out.append(blk)
            final = yield from h.read_next_block()
            return out, final

        out, final = env.run(env.process(proc()))
        assert [b for b, _ in out] == [1, 5, 9]
        assert final is None
        for b, blockdata in out:
            lo = b * 4
            assert np.array_equal(blockdata, data[lo : lo + 4])

    def test_write_next_block(self, env, pfs):
        f = make_file(pfs, "IS")
        data = records(40)

        def proc():
            for p in range(4):
                h = f.internal_view(p)
                while h.blocks_remaining:
                    b = int(h._blocks[h._block_cursor])
                    lo = b * 4
                    hi = min(lo + 4, 40)
                    written = yield from h.write_next_block(data[lo:hi])
                    assert written == b
            out = yield from f.global_view().read()
            return out

        assert np.array_equal(env.run(env.process(proc())), data)

    def test_write_past_partition_raises(self, env, pfs):
        f = make_file(pfs, "PS")
        h = f.internal_view(0)
        oversize = records(f.map.n_local_records(0) + 1)
        with pytest.raises(ExhaustedError):
            # drive the generator to the validation point
            next(h.write_next(oversize))

    def test_eof_and_remaining(self, env, pfs):
        f = make_file(pfs, "PS")
        data = records(40)
        preload(env, f, data)

        def proc():
            h = f.internal_view(0)
            n = h.n_local_records
            yield from h.read_next(n)
            more = yield from h.read_next(5)
            return h.eof, h.remaining, len(more)

        eof, remaining, extra = env.run(env.process(proc()))
        assert eof and remaining == 0 and extra == 0


class TestSSHandles:
    def test_every_block_handed_out_exactly_once(self, env, pfs):
        f = make_file(pfs, "SS")
        data = records(40)
        preload(env, f, data)
        session = SSSession(f)
        got = {}

        def worker(p):
            h = session.handle(p)
            while True:
                item = yield from h.read_next()
                if item is None:
                    return
                block, blockdata = item
                got[block] = blockdata
                yield env.timeout(0.001 * (p + 1))  # uneven service rates

        for p in range(4):
            env.process(worker(p))
        env.run()
        session.validate()
        assert sorted(got) == list(range(10))
        for b, blockdata in got.items():
            assert np.array_equal(blockdata, data[b * 4 : b * 4 + 4])

    def test_self_scheduled_write_covers_file(self, env, pfs):
        f = make_file(pfs, "SS", n=12, rpb=1, p=3)
        data = records(12)
        written = {}

        def worker(p):
            h = session.handle(p)
            while True:
                # each block is one record; write block index as payload
                blk = session.blocks_issued
                if session.exhausted:
                    return
                b = yield from h.write_next(data[blk : blk + 1])
                if b is None:
                    return
                written[b] = blk
                yield env.timeout(0.0001)

        session = SSSession(f)
        for p in range(3):
            env.process(worker(p))
        env.run()
        session.validate()
        assert len(written) == 12

    def test_internal_view_requires_session(self, pfs):
        f = make_file(pfs, "SS")
        with pytest.raises(OrganizationError):
            f.internal_view(0)

    def test_session_rejects_wrong_file(self, pfs):
        f1 = make_file(pfs, "SS")
        f2 = pfs.create(
            "other_ss", "SS", n_records=8, record_size=16, dtype="float64",
            records_per_block=4, n_processes=2,
        )
        session = SSSession(f1)
        with pytest.raises(OrganizationError):
            f2.internal_view(0, session=session)

    def test_session_requires_ss_file(self, pfs):
        f = make_file(pfs, "PS")
        with pytest.raises(OrganizationError):
            SSSession(f)

    def test_early_advance_overlaps_transfers(self, env, pfs):
        """§4: early pointer advance lets SS calls pipeline."""

        def run(early):
            from .conftest import build_pfs

            env2_ = __import__("repro.sim", fromlist=["Environment"]).Environment()
            pfs2 = build_pfs(env2_, n_devices=4)
            f = pfs2.create(
                "ss_bench", "SS", n_records=64, record_size=512,
                records_per_block=4, n_processes=4,
            )
            data = np.zeros((64, 512), dtype=np.uint8)
            def pre():
                yield from f.global_view().write(data)
            env2_.run(env2_.process(pre()))
            session = SSSession(f, early_advance=early)

            def worker(p):
                h = session.handle(p)
                while True:
                    item = yield from h.read_next()
                    if item is None:
                        return

            start = env2_.now
            for p in range(4):
                env2_.process(worker(p))
            env2_.run()
            return env2_.now - start

        assert run(True) < run(False)


class TestDirectHandles:
    def test_gda_any_process_any_record(self, env, pfs):
        f = make_file(pfs, "GDA")
        data = records(40)
        preload(env, f, data)

        def proc():
            h0 = f.internal_view(0)
            h3 = f.internal_view(3)
            a = yield from h0.read_record(39)
            b = yield from h3.read_record(0, count=2)
            yield from h3.write_record(10, np.full((1, 2), 7.0))
            c = yield from h0.read_record(10)
            return a, b, c

        a, b, c = env.run(env.process(proc()))
        assert np.array_equal(a[0], data[39])
        assert np.array_equal(b, data[0:2])
        assert np.array_equal(c[0], [7.0, 7.0])

    def test_gda_bounds(self, env, pfs):
        f = make_file(pfs, "GDA")
        h = f.internal_view(0)
        with pytest.raises(ValueError):
            next(h.read_record(40))
        with pytest.raises(ValueError):
            next(h.read_record(0, count=0))

    def test_pda_ownership_enforced(self, env, pfs):
        f = make_file(pfs, "PDA")
        data = records(40)
        preload(env, f, data)
        owner = f.map.owner_of_record(0)
        intruder = (owner + 1) % 4

        def ok():
            h = f.internal_view(owner)
            out = yield from h.read_record(0)
            return out

        assert np.array_equal(env.run(env.process(ok()))[0], data[0])
        h_bad = f.internal_view(intruder)
        with pytest.raises(OwnershipError):
            next(h_bad.read_record(0))

    def test_pda_request_crossing_a_foreign_block_rejected(self, env, pfs):
        """Every block a request touches is checked, not just its ends:
        process 0's records 0..5 cross block 1, which process 1 owns."""
        f = pfs.create(
            "pda_x", "PDA", n_records=16, record_size=16, dtype="float64",
            records_per_block=2, n_processes=2, assignment="interleaved",
        )
        h = f.internal_view(0)
        with pytest.raises(OwnershipError, match="record 2"):
            next(h.read_record(0, 6))
        with pytest.raises(OwnershipError):
            next(h.write_record(0, records(6)))
        cached = f.internal_view(0, cache_blocks=4)
        with pytest.raises(OwnershipError):
            next(cached.read_record(0, 6))

    def test_pda_cached_reads_hit(self, env, pfs):
        f = make_file(pfs, "PDA")
        data = records(40)
        preload(env, f, data)
        p = f.map.owner_of_record(0)

        def proc():
            h = f.internal_view(p, cache_blocks=2)
            yield from h.read_record(0)
            t_after_miss = env.now
            yield from h.read_record(1)   # same block -> cache hit
            return t_after_miss, env.now, h.cache.hits, h.cache.misses

        t_miss, t_hit, hits, misses = env.run(env.process(proc()))
        assert hits == 1 and misses == 1
        assert t_hit == t_miss  # the hit cost no simulated time

    def test_cached_write_flush_persists(self, env, pfs):
        f = make_file(pfs, "GDA")
        data = records(40)
        preload(env, f, data)

        def proc():
            h = f.internal_view(0, cache_blocks=4)
            yield from h.write_record(5, np.full((1, 2), 3.25))
            yield from h.flush()
            # read through an uncached handle to verify persistence
            h2 = f.internal_view(1)
            out = yield from h2.read_record(5)
            return out

        assert np.array_equal(env.run(env.process(proc()))[0], [3.25, 3.25])

    def test_multirecord_read_spanning_blocks(self, env, pfs):
        f = make_file(pfs, "GDA")
        data = records(40)
        preload(env, f, data)

        def proc():
            h = f.internal_view(0, cache_blocks=4)
            out = yield from h.read_record(2, count=10)  # blocks 0..2
            return out

        assert np.array_equal(env.run(env.process(proc())), data[2:12])


class TestPartitionStream:
    """Internal-view read-ahead (§4's predictable-order optimization)."""

    def test_stream_visits_owned_blocks_in_order(self, env, pfs):
        from repro.buffering import BufferPool

        f = make_file(pfs, "IS")
        data = records(40)
        preload(env, f, data)

        def proc():
            pool = BufferPool(env, 3, 4096,
                              copy_cost_per_byte=0, per_buffer_overhead=0)
            stream = f.internal_view(1).stream(pool, depth=2)
            order = yield from stream.read_all()
            return order

        assert env.run(env.process(proc())) == [1, 5, 9]

    def test_stream_overlaps_io_with_compute(self):
        """Read-ahead on an internal view gives the same overlap shape as
        on the global view: elapsed ~ first I/O + total compute."""
        from repro.buffering import BufferPool
        from repro.sim import Environment
        from .conftest import build_pfs

        def run(depth):
            env = Environment()
            pfs = build_pfs(env, n_devices=4)
            f = pfs.create(
                "str", "IS", n_records=256, record_size=512,
                records_per_block=8, n_processes=4,
            )

            def setup():
                import numpy as np
                yield from f.global_view().write(
                    np.zeros((256, 512), dtype=np.uint8)
                )

            env.run(env.process(setup()))
            start = env.now

            def consumer():
                pool = BufferPool(env, depth + 1, 512 * 8,
                                  copy_cost_per_byte=0, per_buffer_overhead=0)
                stream = f.internal_view(0).stream(pool, depth=depth)
                yield from stream.read_all(compute=lambda i, d: 0.02)

            env.run(env.process(consumer()))
            return env.now - start

        assert run(1) < run(0)
