"""Live-backend Dataset tests.

The load-bearing property: a live dataset on a host file and a sim
dataset on modelled devices hold *identical container bytes* (modulo
the attrs section, which records backend-specific layout) after the
same sequence of slab operations — on every organization, including
collective ``write_slab_all`` on the sim side.
"""

import threading

import numpy as np
import pytest

from repro.core import OrganizationError
from repro.dataset import Dataset, LiveDataset, content_fingerprint
from repro.sim import Environment

from tests.container.conftest import build_pfs, media_bytes
from tests.dataset.conftest import ORGS, run


def sim_fp(ds):
    return content_fingerprint(media_bytes(ds.file))


def live_fp(lds):
    return content_fingerprint(lds.file.path.read_bytes())


class TestRoundTrip:
    def test_create_open_read(self, lfs, schema, data):
        with LiveDataset.create(lfs, "ds", schema, org="PS",
                                n_processes=2, data=data):
            pass
        with LiveDataset.open(lfs, "ds") as lds:
            for name in ("temp", "mask"):
                assert np.array_equal(lds.read_variable(name), data[name])
            desc = lds.describe()
            assert desc["dimensions"] == {"t": 4, "y": 6, "x": 8}

    @pytest.mark.parametrize("sieve", [False, True])
    def test_slab_write_read(self, lfs, schema, data, sieve):
        with LiveDataset.create(lfs, "ds", schema, data=data) as lds:
            patch = np.full((2, 3, 4), -2.5, dtype="<f4")
            lds.write_slab("temp", (1, 2, 3), (2, 3, 4), patch, sieve=sieve)
            got = lds.read_slab("temp", (1, 2, 3), (2, 3, 4), sieve=sieve)
            assert np.array_equal(got, patch)
            want = data["temp"].copy()
            want[1:3, 2:5, 3:7] = patch
            assert np.array_equal(lds.read_variable("temp"), want)

    def test_sync_and_dirty(self, lfs, schema, data):
        with LiveDataset.create(lfs, "ds", schema, data=data) as lds:
            lds.write_slab("mask", (0, 0), (1, 8), np.ones((1, 8), dtype="u1"))
            assert lds.dirty == ["mask"]
            assert lds.sync() == ["mask"]
            assert lds.dirty == []

    def test_failed_sync_keeps_variable_dirty(self, lfs, schema, data,
                                              monkeypatch):
        """A sync whose header rewrite fails loses no dirty mark."""
        with LiveDataset.create(lfs, "ds", schema, data=data) as lds:
            lds.write_slab("mask", (0, 0), (1, 8), np.ones((1, 8), dtype="u1"))

            def broken(start, values):
                raise OSError("disk full")

            monkeypatch.setattr(lds.file, "write_records", broken)
            with pytest.raises(OSError):
                lds.sync()
            assert lds.dirty == ["mask"]
            monkeypatch.undo()
            assert lds.sync() == ["mask"] and lds.dirty == []

    def test_open_rejects_plain_file(self, lfs):
        lfs.create("plain", "S", n_records=1024, record_size=1,
                   dtype="uint8").close()
        with pytest.raises(Exception):
            LiveDataset.open(lfs, "plain")

    def test_close_is_idempotent(self, lfs, schema):
        lds = LiveDataset.create(lfs, "ds", schema)
        lds.close()
        lds.close()


class TestBackendIdentity:
    @pytest.mark.parametrize("org", ORGS)
    def test_create_identity_all_orgs(self, lfs, schema, data, org):
        env = Environment()
        pfs = build_pfs(env)
        ds = run(env, Dataset.create(pfs, "ds", schema, org=org,
                                     writers=2, data=data))
        with LiveDataset.create(lfs, "ds", schema, org=org,
                                n_processes=2, data=data) as lds:
            assert live_fp(lds) == sim_fp(ds)

    @pytest.mark.parametrize("org", ORGS)
    def test_slab_write_identity_all_orgs(self, lfs, schema, data, org):
        """Same plain slab writes on both backends → identical media."""
        env = Environment()
        pfs = build_pfs(env)
        ds = run(env, Dataset.create(pfs, "ds", schema, org=org,
                                     writers=2, data=data))
        patch = np.arange(24, dtype="<f4").reshape(2, 3, 4)
        run(env, ds.write_slab("temp", (1, 1, 2), (2, 3, 4), patch,
                               sieve=True))
        run(env, ds.sync())
        with LiveDataset.create(lfs, "ds", schema, org=org,
                                n_processes=2, data=data) as lds:
            lds.write_slab("temp", (1, 1, 2), (2, 3, 4), patch, sieve=True)
            lds.sync()
            assert live_fp(lds) == sim_fp(ds)

    @pytest.mark.parametrize("org", ORGS)
    def test_collective_write_identity_all_orgs(self, lfs, schema, data, org):
        """Sim collective write_slab_all vs live plain writes → identical
        media on every organization."""
        env = Environment()
        pfs = build_pfs(env)
        ds = run(env, Dataset.create(pfs, "ds", schema, org=org,
                                     writers=4, data=data))
        slabs = [((q, 0, 0), (1, 6, 8)) for q in range(4)]
        vals = [np.full((1, 6, 8), float(q + 1), dtype="<f4")
                for q in range(4)]
        run(env, ds.write_slab_all("temp", slabs, vals))
        run(env, ds.sync())
        with LiveDataset.create(lfs, "ds", schema, org=org,
                                n_processes=4, data=data) as lds:
            for (start, count), v in zip(slabs, vals):
                lds.write_slab("temp", start, count, v)
            lds.sync()
            assert live_fp(lds) == sim_fp(ds)


class TestConcurrency:
    def test_n_writers_m_readers(self, lfs, schema, data):
        """8 writer threads patch disjoint (t, y) rows of temp while 4
        reader threads hammer reads; the final media must equal a sim
        dataset given the same patches."""
        with LiveDataset.create(lfs, "ds", schema, data=data) as lds:
            stop = threading.Event()
            errors = []

            def writer(i):
                t, y = divmod(i, 2)
                row = np.full((1, 1, 8), float(100 + i), dtype="<f4")
                try:
                    for _ in range(5):
                        lds.write_slab("temp", (t, y, 0), (1, 1, 8), row,
                                       sieve=(i % 2 == 0))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def reader():
                try:
                    while not stop.is_set():
                        out = lds.read_slab("temp", (0, 0, 0), (4, 2, 8),
                                            sieve=True)
                        assert out.shape == (4, 2, 8)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            readers = [threading.Thread(target=reader) for _ in range(4)]
            writers = [threading.Thread(target=writer, args=(i,))
                       for i in range(8)]
            for th in readers + writers:
                th.start()
            for th in writers:
                th.join()
            stop.set()
            for th in readers:
                th.join()
            assert not errors
            lds.sync()
            live = live_fp(lds)

        env = Environment()
        pfs = build_pfs(env)
        ds = run(env, Dataset.create(pfs, "ds", schema, data=data))
        for i in range(8):
            t, y = divmod(i, 2)
            row = np.full((1, 1, 8), float(100 + i), dtype="<f4")
            run(env, ds.write_slab("temp", (t, y, 0), (1, 1, 8), row))
        run(env, ds.sync())
        assert live == sim_fp(ds)

    def test_concurrent_writers_all_orgs_land(self, lfs, schema):
        """Every org: 6 threads write disjoint y-rows of mask; read-back
        must show every row exactly once."""
        for org in ORGS:
            with LiveDataset.create(lfs, f"ds_{org}", schema, org=org,
                                    n_processes=2) as lds:
                def writer(y):
                    lds.write_slab("mask", (y, 0), (1, 8),
                                   np.full((1, 8), y + 1, dtype="u1"))

                threads = [threading.Thread(target=writer, args=(y,))
                           for y in range(6)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join()
                got = lds.read_variable("mask")
                want = np.repeat(np.arange(1, 7, dtype="u1"),
                                 8).reshape(6, 8)
                assert np.array_equal(got, want), org


def duplicated_section(raw: bytes, schema, section_id: str) -> bytes:
    """A dataset's container bytes with one more copy of ``section_id``
    appended (and the file header's section count bumped to match)."""
    from repro.container.codec import (
        decode_file_header, encode_file_header, plan_layout,
    )
    from repro.container.writer import container_decls
    from repro.dataset.core import dataset_decls

    ext = plan_layout(container_decls(dataset_decls(schema))).find(section_id)
    header = decode_file_header(raw[:128])
    head = encode_file_header(header.user_string, header.section_count + 1)
    return head + raw[len(head):] + raw[ext.header_off:ext.end]


class TestDuplicateSections:
    """A container carrying two sections with one id is malformed on both
    backends (the live open used to let the last copy win)."""

    def test_both_backends_reject(self, lfs, schema, data):
        from repro.container.codec import ContainerFormatError

        with LiveDataset.create(lfs, "ds", schema, data=data) as lds:
            raw = duplicated_section(lds.file.path.read_bytes(), schema,
                                     "var/temp")
        with lfs.create("dup", "S", n_records=len(raw), record_size=1) as f:
            f.write_records(0, np.frombuffer(raw, dtype=np.uint8).reshape(-1, 1))
        with pytest.raises(ContainerFormatError, match="duplicate"):
            LiveDataset.open(lfs, "dup")

        env = Environment()
        pfs = build_pfs(env)
        f = pfs.create("dup", "S", n_records=len(raw), record_size=1)
        f.volume.poke(f.entry.extent, f.layout, 0,
                      np.frombuffer(raw, dtype=np.uint8))
        with pytest.raises(ContainerFormatError, match="duplicate"):
            run(env, Dataset.open(pfs, "dup"))


class TestErrors:
    def test_unknown_data_key_rejected(self, lfs, schema):
        with pytest.raises(OrganizationError, match="unknown variables"):
            LiveDataset.create(lfs, "ds", schema, data={"nope": np.zeros(1)})
        # failed create must not leave files behind; the name is reusable
        LiveDataset.create(lfs, "ds", schema).close()

    def test_bad_slab_message(self, lfs, schema):
        with LiveDataset.create(lfs, "ds", schema) as lds:
            with pytest.raises(OrganizationError, match="outside extent"):
                lds.read_slab("temp", (0, 0, 0), (5, 6, 8))
