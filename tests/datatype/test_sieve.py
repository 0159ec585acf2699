"""Data sieving: RMW window planning and the executable sieved paths."""

import numpy as np
import pytest

from repro.datatype import plan_view_read, plan_view_write
from repro.devices import DeviceFailedError
from repro.datatype.views import StridedView
from repro.ionode.aggregator import plan_rmw
from repro.sim import Environment
from tests.fs.conftest import build_pfs


def make_file(env, n=256, rpb=4, p=4, batch=False):
    pfs = build_pfs(env)
    pfs.volume.coalesce = batch
    return pfs.create(
        "sv", "IS", n_records=n, record_size=16, dtype="float64",
        records_per_block=rpb, n_processes=p,
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


def device_requests(f):
    return sum(d.latency.count for d in f.volume.devices)


class TestPlanRMW:
    def test_packs_close_runs_into_one_window(self):
        [(window, pieces)] = plan_rmw([(0, 4), (8, 4)], sieve_factor=4.0)
        assert window == (0, 12)
        assert list(pieces) == [(0, 4), (8, 4)]

    def test_factor_one_never_merges(self):
        windows = plan_rmw([(0, 4), (8, 4)], sieve_factor=1.0)
        assert [w for w, _ in windows] == [(0, 4), (8, 4)]
        for w, pieces in windows:
            assert len(pieces) == 1 and pieces[0] == w

    def test_window_cap_splits(self):
        windows = plan_rmw(
            [(0, 4), (8, 4), (100, 4)], sieve_factor=100.0, sieve_window=32
        )
        assert [w for w, _ in windows] == [(0, 12), (100, 4)]

    def test_adjacent_runs_coalesce_first(self):
        [(window, pieces)] = plan_rmw([(0, 4), (4, 4)], sieve_factor=1.0)
        assert window == (0, 8)
        assert len(pieces) == 1

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            plan_rmw([(0, 4)], sieve_factor=0.5)

    def test_view_plans_record_units(self):
        runs = [(0, 2), (6, 2)]
        plan = plan_view_read(runs, 16, sieve=True, sieve_factor=4.0)
        assert plan.covering == ((0, 8),)  # records, not bytes
        plan = plan_view_write(runs, 16, sieve=True, sieve_factor=4.0)
        assert plan.windows[0][0] == (0, 8)


class TestSievedRead:
    def test_fewer_device_requests_same_data(self):
        v = StridedView(0, 32, 1, 4)  # 32 single records, stride 4
        data = np.random.default_rng(7).random((256, 2))

        # batching on, so the sieved covering span can merge into
        # multi-block device requests; the stride-separated exact records
        # cannot merge either way
        def run_once(sieve):
            env = Environment()
            f = make_file(env, batch=True)
            seed(env, f, data)
            before = device_requests(f)

            def proc():
                out = yield f.read_view(v, sieve=sieve, sieve_factor=8.0)
                return out

            out = env.run(env.process(proc()))
            return out, device_requests(f) - before

        plain, n_plain = run_once(False)
        sieved, n_sieved = run_once(True)
        assert np.array_equal(plain, sieved)
        assert np.array_equal(plain, data[v.indices()])
        assert n_sieved < n_plain

    def test_window_cap_respected(self):
        # sieve_window of one record: no covering extent can form, the
        # sieved path degenerates to exact runs and still returns the data
        env = Environment()
        f = make_file(env)
        data = np.random.default_rng(8).random((256, 2))
        seed(env, f, data)
        v = StridedView(0, 8, 1, 4)

        def proc():
            out = yield f.read_view(v, sieve=True, sieve_window=16)
            return out

        out = env.run(env.process(proc()))
        assert np.array_equal(out, data[v.indices()])


class TestSievedWrite:
    def test_holes_preserved(self):
        env = Environment()
        f = make_file(env)
        data = np.random.default_rng(9).random((256, 2))
        seed(env, f, data)
        v = StridedView(0, 16, 1, 4)  # records 0, 4, 8, ...
        new = np.random.default_rng(10).random((16, 2))

        def proc():
            n = yield f.write_view(new, v, sieve=True, sieve_factor=8.0)
            return n

        assert env.run(env.process(proc())) == 16
        expected = data.copy()
        expected[v.indices()] = new
        # the RMW windows read and rewrote the holes: they must be intact
        assert np.array_equal(read_back(env, f), expected)

    def test_concurrent_sieved_writers_do_not_tear(self):
        """Two sieved writers with interleaved records share RMW windows.

        Writer A owns the even records, writer B the odd ones, in the
        same region — every RMW window of one overlaps the other's. The
        per-file sieve lock serializes the windows, so both writers'
        records must survive; without it, one writer's window write-back
        restores stale hole bytes over the other's records (lost update).
        """
        env = Environment()
        f = make_file(env, n=64)
        data = np.zeros((64, 2))
        seed(env, f, data)
        region = 32
        a_view = StridedView(0, region // 2, 1, 2)   # 0, 2, 4, ...
        b_view = StridedView(1, region // 2, 1, 2)   # 1, 3, 5, ...
        a_new = np.full((region // 2, 2), 1.0)
        b_new = np.full((region // 2, 2), 2.0)

        def writer(view, rows):
            n = yield f.write_view(rows, view, sieve=True, sieve_factor=8.0)
            return n

        env.run(
            env.all_of(
                [
                    env.process(writer(a_view, a_new)),
                    env.process(writer(b_view, b_new)),
                ]
            )
        )
        out = read_back(env, f)
        assert np.array_equal(out[a_view.indices()], a_new)
        assert np.array_equal(out[b_view.indices()], b_new)
        assert np.array_equal(out[region:], data[region:])

    def test_sieved_writers_on_two_opens_share_the_lock(self):
        """The sieve lock belongs to the catalog entry, not the open file:
        two opens of one file serialize their RMW windows against it."""
        env = Environment()
        f = make_file(env, n=64)
        data = np.zeros((64, 2))
        seed(env, f, data)
        a_file, b_file = f.pfs.open("sv"), f.pfs.open("sv")
        a_view = StridedView(0, 16, 1, 2)   # 0, 2, 4, ...
        b_view = StridedView(1, 16, 1, 2)   # 1, 3, 5, ...
        a_new = np.full((16, 2), 1.0)
        b_new = np.full((16, 2), 2.0)

        def writer(file, view, rows):
            n = yield file.write_view(rows, view, sieve=True, sieve_factor=8.0)
            return n

        env.run(
            env.all_of(
                [
                    env.process(writer(a_file, a_view, a_new)),
                    env.process(writer(b_file, b_view, b_new)),
                ]
            )
        )
        assert a_file.entry.sieve_lock is b_file.entry.sieve_lock
        assert a_file.entry.sieve_lock.contended_acquires > 0
        out = read_back(env, f)
        assert np.array_equal(out[a_view.indices()], a_new)
        assert np.array_equal(out[b_view.indices()], b_new)
        assert np.array_equal(out[32:], data[32:])

    def test_failed_window_read_raises_and_frees_the_lock(self):
        env = Environment()
        f = make_file(env, n=64)
        seed(env, f, np.zeros((64, 2)))
        f.volume.devices[0].fail()   # a plain volume: no redundancy

        def proc():
            with pytest.raises(DeviceFailedError):
                yield f.write_view(
                    np.ones((16, 2)), StridedView(0, 16, 1, 2),
                    sieve=True, sieve_factor=8.0,
                )
            return f.entry.sieve_lock.locked

        assert env.run(env.process(proc())) is False
