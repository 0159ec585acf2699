"""Collective writes: byte-identity, exchange accounting, hole semantics.

Regression suite for the two historical ``write_all`` defects:

* the global image was assembled with ``np.empty`` and written whole, so
  any record no process owned went to media as uninitialized garbage —
  holes must instead keep their previous on-media contents;
* phase-1 cost was charged as ``exchange_bytes // p`` — truncating
  division charged *zero* interconnect time whenever fewer bytes than
  processes crossed domains, and averaging disagreed with ``read_all``'s
  per-process actual-bytes accounting.
"""

import hashlib

import numpy as np
import pytest

from repro import Environment, build_parallel_fs
from repro.collective import CollectiveIO
from repro.core import OrganizationError
from repro.core.convert import contiguous_runs
from tests.fs.conftest import build_pfs


def make_file(env, org="IS", n=96, rpb=2, p=4, record_size=16, dtype="float64"):
    pfs = build_pfs(env)
    return pfs.create(
        "coll", org, n_records=n, record_size=record_size, dtype=dtype,
        records_per_block=rpb, n_processes=p,
    )


def preload(env, f, data):
    def proc():
        yield from f.global_view().write(data)

    env.run(env.process(proc()))


def media_digest(f):
    raw = f.volume.peek(f.entry.extent, f.layout, 0, f.attrs.file_bytes)
    return hashlib.sha256(np.ascontiguousarray(raw).tobytes()).hexdigest()


def read_back(env, f):
    def proc():
        out = yield from f.global_view().read()
        return out

    return env.run(env.process(proc()))


class TestByteIdentity:
    @pytest.mark.parametrize("org", ["PS", "IS"])
    def test_collective_write_matches_independent_writes(self, org):
        """Collective and independent writes leave identical media bytes."""
        data = np.random.default_rng(11).random((96, 2))

        env_c = Environment()
        f_c = make_file(env_c, org)
        coll = CollectiveIO(f_c)
        per_process = {q: data[f_c.map.records_of(q)] for q in range(4)}

        def cproc():
            yield from coll.write_all(per_process)

        env_c.run(env_c.process(cproc()))

        env_i = Environment()
        f_i = make_file(env_i, org)

        def writer(q):
            recs = f_i.map.records_of(q)
            rows = data[recs]
            pos = 0
            for start, count in contiguous_runs(recs):
                yield f_i.write_records(start, rows[pos : pos + count])
                pos += count

        env_i.run(env_i.all_of([env_i.process(writer(q)) for q in range(4)]))

        assert media_digest(f_c) == media_digest(f_i)

    def test_exchange_byte_totals(self):
        """IS on 4 processes: 3/4 of all records cross file domains."""
        env = Environment()
        f = make_file(env, "IS")
        coll = CollectiveIO(f)
        per_process = {
            q: np.zeros((len(f.map.records_of(q)), 2)) for q in range(4)
        }

        def proc():
            yield from coll.write_all(per_process)

        env.run(env.process(proc()))
        record_size = f.attrs.record_spec.record_size
        assert coll.last_exchange_bytes == 72 * record_size
        # symmetric pattern: every worker ships the same share
        assert coll.last_remote_bytes == {q: 18 * record_size for q in range(4)}

    def test_ps_writes_need_no_exchange(self):
        env = Environment()
        f = make_file(env, "PS")
        coll = CollectiveIO(f)
        per_process = {
            q: np.zeros((len(f.map.records_of(q)), 2)) for q in range(4)
        }

        def proc():
            yield from coll.write_all(per_process)

        env.run(env.process(proc()))
        assert coll.last_exchange_bytes == 0


class TestExchangeAccounting:
    def test_each_worker_charged_its_own_bytes(self):
        """Skewed pattern: only process 0 ships bytes, and it pays for all
        of them — not an average over the party."""
        env = Environment()
        f = make_file(env, "PS")
        data = np.random.default_rng(12).random((96, 2))
        preload(env, f, data)
        coll = CollectiveIO(f)
        empty = np.empty(0, dtype=np.int64)
        indices = {0: np.arange(96), 1: empty, 2: empty, 3: empty}
        per_process = {0: data, 1: data[:0], 2: data[:0], 3: data[:0]}

        def proc():
            yield from coll.write_all(per_process, indices)

        env.run(env.process(proc()))
        record_size = f.attrs.record_spec.record_size
        assert coll.last_remote_bytes == {
            0: 72 * record_size, 1: 0, 2: 0, 3: 0,
        }
        assert coll.last_exchange_bytes == 72 * record_size

    def test_tiny_exchange_still_charges_latency(self):
        """Regression: fewer crossing bytes than processes.

        With 2-byte records, one crossing record moves 2 bytes < p = 4
        processes; the historical ``exchange_bytes // p`` truncated that
        to zero and charged no interconnect time at all. Per-worker
        accounting must charge the sender the full message latency.
        """

        def run_once(latency):
            env = Environment()
            f = make_file(env, "PS", record_size=2, dtype="uint8")
            data = (np.arange(192, dtype=np.uint64) % 251).astype(np.uint8)
            preload(env, f, data.reshape(96, 2))
            coll = CollectiveIO(f, exchange_latency=latency)
            empty = np.empty(0, dtype=np.int64)
            # the single record 24 lives in process 1's file domain but is
            # written by process 0: exactly 2 bytes cross
            indices = {0: np.array([24]), 1: empty, 2: empty, 3: empty}
            per_process = {
                0: np.full((1, 2), 7, dtype=np.uint8),
                1: data[:0], 2: data[:0], 3: data[:0],
            }

            def proc():
                yield from coll.write_all(per_process, indices)

            env.run(env.process(proc()))
            assert coll.last_exchange_bytes == 2
            return env.now

        slow = run_once(0.5)
        fast = run_once(0.0)
        assert slow - fast >= 0.5

    def test_read_and_write_accounting_agree(self):
        """The same access pattern moves the same bytes both directions."""
        env = Environment()
        f = make_file(env, "IS")
        data = np.random.default_rng(13).random((96, 2))
        preload(env, f, data)
        coll = CollectiveIO(f)

        def reader():
            yield from coll.read_all()

        env.run(env.process(reader()))
        read_remote = dict(coll.last_remote_bytes)

        per_process = {q: data[f.map.records_of(q)] for q in range(4)}

        def writer():
            yield from coll.write_all(per_process)

        env.run(env.process(writer()))
        assert coll.last_remote_bytes == read_remote


class TestHoles:
    def test_unowned_records_keep_previous_contents(self):
        """Regression: records no process owns must not get np.empty junk."""
        env = Environment()
        f = make_file(env, "PS")
        data = np.full((96, 2), 123.456)
        preload(env, f, data)
        coll = CollectiveIO(f)
        # drop records 10..13 from process 0's ownership: nobody writes them
        recs0 = f.map.records_of(0)
        kept = recs0[(recs0 < 10) | (recs0 >= 14)]
        indices = {0: kept}
        for q in range(1, 4):
            indices[q] = f.map.records_of(q)
        new = np.random.default_rng(14).random((96, 2))
        per_process = {q: new[indices[q]] for q in range(4)}

        def proc():
            yield from coll.write_all(per_process, indices)

        env.run(env.process(proc()))
        out = read_back(env, f)
        expected = new.copy()
        expected[10:14] = 123.456  # the holes keep the preloaded pattern
        assert np.array_equal(out, expected)

    def test_holes_via_monkeypatched_map(self):
        """The pre-fix failure shape: an organization map that does not
        cover the file (process 1's sequence lost a block)."""
        env = Environment()
        f = make_file(env, "PS")
        data = np.full((96, 2), -7.5)
        preload(env, f, data)
        recs1 = f.map.records_of(1)
        f.map._records_cache[1] = recs1[4:]  # first 4 records now unowned
        coll = CollectiveIO(f)
        new = np.random.default_rng(15).random((96, 2))
        per_process = {q: new[f.map.records_of(q)] for q in range(4)}

        def proc():
            yield from coll.write_all(per_process)

        env.run(env.process(proc()))
        out = read_back(env, f)
        expected = new.copy()
        expected[recs1[:4]] = -7.5
        assert np.array_equal(out, expected)


class TestRangedCollectives:
    def test_write_at_touches_only_the_range(self):
        env = Environment()
        f = make_file(env, "IS")
        data = np.random.default_rng(16).random((96, 2))
        preload(env, f, data)
        coll = CollectiveIO(f)
        start, count = 16, 48
        new = np.random.default_rng(17).random((96, 2))
        per_process = {}
        for q in range(4):
            recs = f.map.records_of(q)
            mine = recs[(recs >= start) & (recs < start + count)]
            per_process[q] = new[mine]

        def proc():
            n = yield from coll.write_at(start, count, per_process)
            return n

        assert env.run(env.process(proc())) == count
        out = read_back(env, f)
        expected = data.copy()
        expected[start : start + count] = new[start : start + count]
        assert np.array_equal(out, expected)

    def test_read_at_matches_slice(self):
        env = Environment()
        f = make_file(env, "IS")
        data = np.random.default_rng(18).random((96, 2))
        preload(env, f, data)
        coll = CollectiveIO(f)

        def proc():
            out = yield from coll.read_at(8, 32)
            return out

        out = env.run(env.process(proc()))
        for q in range(4):
            recs = f.map.records_of(q)
            mine = recs[(recs >= 8) & (recs < 40)]
            assert np.array_equal(out[q], data[mine])

    def test_out_of_range_indices_rejected(self):
        env = Environment()
        f = make_file(env, "PS")
        coll = CollectiveIO(f)
        empty = np.empty(0, dtype=np.int64)
        bad = {0: np.array([50]), 1: empty, 2: empty, 3: empty}
        with pytest.raises(ValueError):
            next(coll.write_at(0, 32, {0: np.zeros((1, 2)), 1: np.zeros((0, 2)),
                                       2: np.zeros((0, 2)), 3: np.zeros((0, 2))},
                               bad))

    def test_overlapping_write_indices_rejected(self):
        env = Environment()
        f = make_file(env, "PS")
        coll = CollectiveIO(f)
        empty = np.empty(0, dtype=np.int64)
        dup = {0: np.array([3, 4]), 1: np.array([4]), 2: empty, 3: empty}
        per_process = {0: np.zeros((2, 2)), 1: np.zeros((1, 2)),
                       2: np.zeros((0, 2)), 3: np.zeros((0, 2))}
        with pytest.raises(ValueError):
            next(coll.write_all(per_process, dup))

    def test_duplicate_inside_one_process_rejected(self):
        env = Environment()
        f = make_file(env, "PS")
        coll = CollectiveIO(f)
        empty = np.empty(0, dtype=np.int64)
        dup = {0: np.array([7, 3, 7]), 1: np.array([4]), 2: empty, 3: empty}
        per_process = {0: np.zeros((3, 2)), 1: np.zeros((1, 2)),
                       2: np.zeros((0, 2)), 3: np.zeros((0, 2))}
        with pytest.raises(ValueError, match="overlap"):
            next(coll.write_all(per_process, dup))

    def test_unsorted_disjoint_indices_match_the_sorted_call(self):
        new = np.random.default_rng(21).random((96, 2))
        rng = np.random.default_rng(22)
        start, count = 8, 80     # both edges of the range are written
        records = rng.permutation(np.arange(start, start + count))
        # process 3 contributes nothing
        shuffled = {0: records[:30], 1: records[30:31], 2: records[31:],
                    3: np.empty(0, dtype=np.int64)}
        assert {start, start + count - 1} <= set(records.tolist())
        digests = []
        for indices in (shuffled, {q: np.sort(v) for q, v in shuffled.items()}):
            env = Environment()
            f = make_file(env, "IS")
            preload(env, f, np.zeros((96, 2)))
            coll = CollectiveIO(f)
            per_process = {q: new[indices[q]] for q in range(4)}

            def proc():
                n = yield from coll.write_at(start, count, per_process, indices)
                return n

            assert env.run(env.process(proc())) == count
            out = read_back(env, f)
            assert np.array_equal(out[start : start + count], new[start : start + count])
            assert not out[:start].any() and not out[start + count :].any()
            digests.append(media_digest(f))
        assert digests[0] == digests[1]

    def test_indices_one_past_either_edge_rejected(self):
        env = Environment()
        f = make_file(env, "PS")
        coll = CollectiveIO(f)
        empty = np.empty(0, dtype=np.int64)
        per_process = {0: np.zeros((1, 2)), 1: np.zeros((0, 2)),
                       2: np.zeros((0, 2)), 3: np.zeros((0, 2))}
        for bad in (15, 48):
            indices = {0: np.array([bad]), 1: empty, 2: empty, 3: empty}
            with pytest.raises(ValueError, match="outside range"):
                next(coll.write_at(16, 32, per_process, indices))

    def test_no_process_contributes_anything(self):
        env = Environment()
        f = make_file(env, "IS")
        data = np.random.default_rng(23).random((96, 2))
        preload(env, f, data)
        coll = CollectiveIO(f)
        before = media_digest(f)
        empty = np.empty(0, dtype=np.int64)

        def proc():
            n = yield from coll.write_at(
                16, 32, {q: np.zeros((0, 2)) for q in range(4)},
                {q: empty for q in range(4)})
            return n

        assert env.run(env.process(proc())) == 32
        assert media_digest(f) == before


class TestDynamicOrganizations:
    def test_allow_dynamic_with_explicit_indices(self):
        env = Environment()
        pfs = build_pfs(env)
        f = pfs.create("ss", "SS", n_records=32, record_size=16,
                       dtype="float64", records_per_block=2, n_processes=4)
        coll = CollectiveIO(f, allow_dynamic=True)
        data = np.random.default_rng(19).random((32, 2))
        indices = {q: np.arange(q * 8, (q + 1) * 8) for q in range(4)}
        per_process = {q: data[indices[q]] for q in range(4)}

        def wproc():
            yield from coll.write_all(per_process, indices)

        env.run(env.process(wproc()))

        def rproc():
            out = yield from coll.read_all(indices)
            return out

        out = env.run(env.process(rproc()))
        for q in range(4):
            assert np.array_equal(out[q], data[indices[q]])

    def test_dynamic_without_indices_rejected(self):
        env = Environment()
        pfs = build_pfs(env)
        f = pfs.create("ss", "SS", n_records=32, record_size=16,
                       dtype="float64", records_per_block=2, n_processes=4)
        coll = CollectiveIO(f, allow_dynamic=True)
        with pytest.raises(OrganizationError):
            next(coll.read_all())


class TestStackComposition:
    def test_collective_write_over_io_nodes_and_batching(self):
        env = Environment()
        pfs = build_parallel_fs(env, n_devices=4, io_nodes=2, batch_io=True)
        f = pfs.create("coll", "IS", n_records=96, record_size=16,
                       dtype="float64", records_per_block=2, n_processes=4)
        data = np.random.default_rng(20).random((96, 2))
        coll = CollectiveIO(f)
        per_process = {q: data[f.map.records_of(q)] for q in range(4)}

        def proc():
            yield from coll.write_all(per_process)
            out = yield from f.global_view().read()
            return out

        assert np.array_equal(env.run(env.process(proc())), data)
