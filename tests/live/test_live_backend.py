"""Unit tests for the live (real files + threads) backend."""

import os
import threading
import time

import numpy as np
import pytest

from repro.core import ExhaustedError, OrganizationError, OwnershipError
from repro.datatype import StridedView
from repro.live import LiveParallelFileSystem


@pytest.fixture
def lfs(tmp_path):
    return LiveParallelFileSystem(tmp_path / "pfs")


def payload(n, items=2, seed=0):
    return np.random.default_rng(seed).random((n, items))


class TestLifecycle:
    def test_create_preallocates_and_persists_metadata(self, lfs):
        f = lfs.create("a", "PS", n_records=10, record_size=16,
                       dtype="float64", n_processes=2)
        assert f.path.stat().st_size == 160
        f.close()
        g = lfs.open("a")
        assert g.attrs.organization.value == "PS"
        assert g.attrs.n_records == 10
        g.close()

    def test_duplicate_create_rejected(self, lfs):
        lfs.create("a", "S", n_records=1, record_size=8).close()
        with pytest.raises(FileExistsError):
            lfs.create("a", "S", n_records=1, record_size=8)

    def test_open_missing(self, lfs):
        with pytest.raises(FileNotFoundError):
            lfs.open("nope")

    def test_delete(self, lfs):
        lfs.create("a", "S", n_records=1, record_size=8).close()
        assert lfs.exists("a")
        lfs.delete("a")
        assert not lfs.exists("a")
        with pytest.raises(FileNotFoundError):
            lfs.delete("a")

    def test_names(self, lfs):
        lfs.create("b", "S", n_records=1, record_size=8).close()
        lfs.create("a", "S", n_records=1, record_size=8).close()
        assert lfs.names() == ["a", "b"]

    def test_invalid_names_rejected(self, lfs):
        with pytest.raises(ValueError):
            lfs.create("../evil", "S", n_records=1, record_size=8)

    def test_closed_file_rejects_io(self, lfs):
        f = lfs.create("a", "S", n_records=4, record_size=8, dtype="float64")
        f.close()
        with pytest.raises(ValueError):
            f.global_view().read()

    def test_global_view_is_plain_flat_file(self, lfs, tmp_path):
        """§2: the global view must look conventional to standard tools."""
        f = lfs.create("flat", "PS", n_records=8, record_size=8,
                       dtype="float64", n_processes=2)
        data = payload(8, 1)
        f.global_view().write(data)
        # read with plain numpy, no library involved
        raw = np.fromfile(f.path, dtype=np.float64)
        assert np.array_equal(raw.reshape(8, 1), data)
        f.close()


class TestGlobalView:
    def test_sequential_roundtrip(self, lfs):
        f = lfs.create("g", "S", n_records=20, record_size=16, dtype="float64")
        data = payload(20)
        v = f.global_view()
        v.write(data)
        v.seek(0)
        assert np.array_equal(v.read(), data)
        f.close()

    def test_positioned_access(self, lfs):
        f = lfs.create("g", "GDA", n_records=20, record_size=16, dtype="float64")
        data = payload(20)
        v = f.global_view()
        v.write(data)
        assert np.array_equal(v.read_at(5, 3), data[5:8])
        v.write_at(5, np.full((1, 2), 2.5))
        assert np.array_equal(v.read_at(5)[0], [2.5, 2.5])
        f.close()

    def test_bounds(self, lfs):
        f = lfs.create("g", "S", n_records=4, record_size=8, dtype="float64")
        v = f.global_view()
        with pytest.raises(ValueError):
            v.seek(5)
        with pytest.raises(ValueError):
            v.read_at(4)
        f.close()

    def test_concurrent_appends_land_once(self, lfs):
        """Threads appending through one global view share its cursor: each
        append lands whole, none overlap, and the cursor ends at EOF."""
        import sys

        n_threads, appends, width = 8, 25, 3
        n = n_threads * appends * width
        f = lfs.create("ga", "S", n_records=n, record_size=8, dtype="float64")
        v = f.global_view()

        def worker(t):
            for k in range(appends):
                v.write(np.full((width, 1), float(t * appends + k)))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert v.position == n and v.eof
        got = v.read_at(0, n).reshape(-1, width)
        assert (got == got[:, :1]).all()  # every append contiguous
        assert sorted(got[:, 0]) == list(range(n_threads * appends))
        f.close()

    def test_failed_write_leaves_cursor(self, lfs):
        """The cursor advances only after a transfer succeeds."""
        f = lfs.create("g", "S", n_records=16, record_size=8, dtype="float64")
        v = f.global_view()
        v.seek(15)
        with pytest.raises(ValueError):
            v.write(payload(3, 1))
        assert v.position == 15 and not v.eof
        f.close()


class TestConcurrentPartitionedWrites:
    @pytest.mark.parametrize("org", ["PS", "IS"])
    def test_threaded_writers_produce_correct_global_view(self, lfs, org):
        n, p = 240, 8
        f = lfs.create(f"c_{org}", org, n_records=n, record_size=16,
                       dtype="float64", records_per_block=3, n_processes=p)
        data = payload(n)

        def worker(q):
            h = f.internal_view(q)
            recs = f.map.records_of(q)
            # write in small chunks to maximize interleaving
            i = 0
            while i < len(recs):
                chunk = data[recs[i : i + 2]]
                h.write_next(chunk)
                i += 2

        threads = [threading.Thread(target=worker, args=(q,)) for q in range(p)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert np.array_equal(f.global_view().read(), data)
        f.close()

    def test_partition_read_next(self, lfs):
        f = lfs.create("pr", "IS", n_records=30, record_size=16,
                       dtype="float64", records_per_block=2, n_processes=3)
        data = payload(30)
        f.global_view().write(data)
        h = f.internal_view(1)
        got = h.read_next(h.n_local_records)
        assert np.array_equal(got, data[f.map.records_of(1)])
        assert h.eof
        f.close()

    def test_write_past_partition(self, lfs):
        f = lfs.create("ov", "PS", n_records=8, record_size=16,
                       dtype="float64", n_processes=2)
        h = f.internal_view(0)
        with pytest.raises(ExhaustedError):
            h.write_next(payload(5))
        f.close()


class TestLiveSelfScheduling:
    def test_threaded_workers_cover_every_block_once(self, lfs):
        n = 60
        f = lfs.create("ss", "SS", n_records=n, record_size=16,
                       dtype="float64", records_per_block=1, n_processes=6)
        data = payload(n)
        f.global_view().write(data)
        session = f.ss_session()
        got = {}
        lock = threading.Lock()

        def worker(q):
            h = f.internal_view(q, session=session)
            while True:
                item = h.read_next()
                if item is None:
                    return
                block, rows = item
                with lock:
                    got[block] = rows

        threads = [threading.Thread(target=worker, args=(q,)) for q in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        session.validate()
        assert len(got) == n
        for b, rows in got.items():
            assert np.array_equal(rows[0], data[b])
        f.close()

    def test_session_required(self, lfs):
        f = lfs.create("ss2", "SS", n_records=4, record_size=8,
                       records_per_block=1, n_processes=2)
        with pytest.raises(OrganizationError):
            f.internal_view(0)
        f.close()

    def test_ss_write(self, lfs):
        f = lfs.create("ssw", "SS", n_records=6, record_size=16,
                       dtype="float64", records_per_block=1, n_processes=2)
        session = f.ss_session()
        h = f.internal_view(0, session=session)
        data = payload(6)
        for i in range(6):
            assert h.write_next(data[i : i + 1]) == i
        assert h.write_next(data[:1]) is None
        session.validate()
        assert np.array_equal(f.global_view().read(), data)
        f.close()


class TestLiveDirectAccess:
    def test_gda_concurrent_disjoint_writes(self, lfs):
        n = 100
        f = lfs.create("gda", "GDA", n_records=n, record_size=16,
                       dtype="float64", records_per_block=4, n_processes=4)
        data = payload(n)

        def worker(q):
            h = f.internal_view(q)
            for r in range(q, n, 4):
                h.write_record(r, data[r : r + 1])

        threads = [threading.Thread(target=worker, args=(q,)) for q in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert np.array_equal(f.global_view().read(), data)
        f.close()

    def test_pda_ownership(self, lfs):
        f = lfs.create("pda", "PDA", n_records=16, record_size=16,
                       dtype="float64", records_per_block=4, n_processes=2)
        owner = f.map.owner_of_record(0)
        h_owner = f.internal_view(owner)
        h_owner.write_record(0, payload(1))
        h_other = f.internal_view(1 - owner)
        with pytest.raises(OwnershipError):
            h_other.read_record(0)
        f.close()

    def test_pda_request_crossing_a_foreign_block_rejected(self, lfs):
        """Every block a request touches is checked, not just its ends:
        process 0's records 0..5 cross block 1, which process 1 owns."""
        f = lfs.create("pdax", "PDA", n_records=16, record_size=8,
                       dtype="float64", records_per_block=2, n_processes=2,
                       assignment="interleaved")
        h = f.internal_view(0)
        with pytest.raises(OwnershipError, match="record 2"):
            h.read_record(0, 6)
        with pytest.raises(OwnershipError):
            h.write_record(0, payload(6, 1))
        assert not f.path.read_bytes().strip(b"\0")  # nothing was written
        f.close()

    def test_s_handle_requires_reader(self, lfs):
        f = lfs.create("s", "S", n_records=4, record_size=8,
                       n_processes=2, reader=1)
        with pytest.raises(OrganizationError):
            f.internal_view(0)
        h = f.internal_view(1)
        assert not h.eof
        f.close()


class TestLiveSievedWrites:
    def test_threads_sharing_one_file_keep_both_writers_records(self, lfs):
        """Interleaved even/odd sieved writers share every RMW window; the
        open file's sieve lock keeps one writer's write-back from restoring
        stale hole records over the other's."""
        f = lfs.create("sv", "IS", n_records=64, record_size=16,
                       dtype="float64", records_per_block=4, n_processes=4)
        views = [StridedView(q, 16, 1, 2) for q in (0, 1)]
        rows = [np.full((16, 2), q + 1.0) for q in (0, 1)]
        read = f.read_records

        def slow_read(start, count):
            # widen the gap between a window's read and its write-back, so
            # without the lock both writers read before either writes back
            out = read(start, count)
            time.sleep(0.02)
            return out

        f.read_records = slow_read
        go = threading.Barrier(2)

        def writer(q):
            go.wait(timeout=10)
            f.write_view(rows[q], views[q], sieve=True, sieve_factor=8.0)

        threads = [threading.Thread(target=writer, args=(q,)) for q in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        out = f.global_view().read()
        for view, want in zip(views, rows):
            assert np.array_equal(out[view.indices()], want)
        assert not out[32:].any()
        f.close()

    def test_short_window_read_raises_and_frees_the_lock(self, lfs):
        f = lfs.create("sv", "IS", n_records=64, record_size=16,
                       dtype="float64", records_per_block=4, n_processes=4)
        os.truncate(f.path, 8 * 16)   # the window reads past the host file
        with pytest.raises(IOError, match="short read"):
            f.write_view(np.ones((16, 2)), StridedView(0, 16, 1, 2),
                         sieve=True, sieve_factor=8.0)
        assert not f._sieve_lock.locked()
        f.close()


class TestLiveListIO:
    def test_short_run_read_raises(self, lfs):
        """List I/O fills one buffer run by run; a run that reads past the
        host file is a short read, not a zero-filled row."""
        f = lfs.create("ls", "IS", n_records=64, record_size=16,
                       dtype="float64", records_per_block=4, n_processes=4)
        view = StridedView(0, 16, 1, 2)
        f.write_view(np.ones((16, 2)), view)
        assert np.array_equal(f.read_view(view), np.ones((16, 2)))
        os.truncate(f.path, 8 * 16)   # the view's later runs now lie past EOF
        with pytest.raises(IOError, match="short read"):
            f.read_view(view)
        f.close()
