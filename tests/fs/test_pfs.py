"""Unit tests for file creation, opening, deletion, and record I/O."""

import numpy as np
import pytest

from repro.core import FileCategory, FileOrganization, OrganizationError
from repro.core.errors import FileExistsError_, FileNotFoundError_
from repro.storage import ClusteredLayout, InterleavedLayout, StripedLayout

from .conftest import build_pfs


def records(n, items=2, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, items)).astype(dtype)


class TestCreate:
    def test_default_layouts_follow_section4(self, pfs):
        cases = {
            "S": StripedLayout,
            "SS": StripedLayout,
            "GDA": StripedLayout,
            "PS": ClusteredLayout,
            "IS": InterleavedLayout,
            "PDA": InterleavedLayout,
        }
        for org, cls in cases.items():
            f = pfs.create(
                f"f_{org}", org, n_records=64, record_size=16,
                records_per_block=4, n_processes=4,
            )
            assert isinstance(f.layout, cls), org

    def test_duplicate_name_rejected(self, pfs):
        pfs.create("dup", "S", n_records=8, record_size=8)
        with pytest.raises(FileExistsError_):
            pfs.create("dup", "S", n_records=8, record_size=8)

    def test_category_defaults(self, pfs):
        seq = pfs.create("seq", "PS", n_records=8, record_size=8, n_processes=2)
        direct = pfs.create("dir", "PDA", n_records=8, record_size=8, n_processes=2)
        assert seq.attrs.category is FileCategory.STANDARD
        assert direct.attrs.category is FileCategory.SPECIALIZED

    def test_explicit_layout_override(self, pfs):
        f = pfs.create(
            "ps_striped", "PS", n_records=64, record_size=16,
            records_per_block=4, n_processes=4, layout="striped",
        )
        assert isinstance(f.layout, StripedLayout)

    def test_n_devices_subset(self, pfs):
        f = pfs.create(
            "narrow", "S", n_records=64, record_size=16, n_devices=2,
        )
        assert f.layout.n_devices == 2

    def test_n_devices_exceeding_volume_rejected(self, pfs):
        with pytest.raises(ValueError):
            pfs.create("wide", "S", n_records=8, record_size=8, n_devices=99)

    def test_org_params_forwarded(self, pfs):
        f = pfs.create(
            "pda_i", "PDA", n_records=64, record_size=16,
            records_per_block=4, n_processes=4, assignment="interleaved",
        )
        assert f.map.assignment == "interleaved"

    def test_clustered_layout_rejects_dynamic_org(self, pfs):
        with pytest.raises(OrganizationError):
            pfs.create(
                "bad", "SS", n_records=64, record_size=16,
                records_per_block=4, n_processes=4, layout="clustered",
            )


class TestOpenDelete:
    def test_open_roundtrips_attributes(self, pfs):
        pfs.create(
            "keep", "IS", n_records=60, record_size=24, dtype="float64",
            records_per_block=5, n_processes=3,
        )
        f = pfs.open("keep")
        assert f.attrs.organization is FileOrganization.IS
        assert f.attrs.dtype == "float64"
        assert f.map.n_processes == 3

    def test_open_with_different_process_count(self, pfs):
        pfs.create(
            "rescale", "IS", n_records=60, record_size=8,
            records_per_block=5, n_processes=3,
        )
        f = pfs.open("rescale", n_processes=6)
        assert f.map.n_processes == 6

    def test_open_missing_raises(self, pfs):
        with pytest.raises(FileNotFoundError_):
            pfs.open("ghost")

    def test_delete_frees_space(self, pfs):
        free_before = pfs.volume.allocators[0].free_bytes
        pfs.create("temp", "S", n_records=1000, record_size=64)
        assert pfs.volume.allocators[0].free_bytes < free_before
        pfs.delete("temp")
        assert pfs.volume.allocators[0].free_bytes == free_before
        assert not pfs.exists("temp")

    def test_catalog_counts(self, pfs):
        pfs.create("a", "S", n_records=8, record_size=8)
        pfs.create("b", "S", n_records=8, record_size=8)
        pfs.delete("a")
        assert pfs.catalog.creates == 2
        assert pfs.catalog.deletes == 1
        assert pfs.catalog.names() == ["b"]


class TestRecordIO:
    @pytest.mark.parametrize("org,layout", [
        ("S", None), ("PS", None), ("IS", None),
        ("SS", None), ("GDA", None), ("PDA", None),
        ("PS", "striped"), ("IS", "striped"),
    ])
    def test_roundtrip_every_org_and_layout(self, env, pfs, org, layout):
        data = records(40, items=3)
        f = pfs.create(
            f"rt_{org}_{layout}", org, n_records=40, record_size=24,
            dtype="float64", records_per_block=4, n_processes=4, layout=layout,
        )

        def proc():
            yield f.write_records(0, data)
            out = yield f.read_records(0, 40)
            return out

        result = env.run(env.process(proc()))
        assert np.array_equal(result, data)

    def test_partial_span_read(self, env, pfs):
        data = records(20)
        f = pfs.create("partial", "S", n_records=20, record_size=16, dtype="float64")

        def proc():
            yield f.write_records(0, data)
            out = yield f.read_records(5, 7)
            return out

        assert np.array_equal(env.run(env.process(proc())), data[5:12])

    def test_out_of_range_rejected(self, env, pfs):
        f = pfs.create("small", "S", n_records=4, record_size=8)
        with pytest.raises(ValueError):
            f.read_records(2, 3)
        with pytest.raises(ValueError):
            f.read_records(-1, 1)

    def test_block_io_roundtrip(self, env, pfs):
        data = records(22, items=1)  # short final block (rpb=4 -> 6 blocks)
        f = pfs.create(
            "blocks", "IS", n_records=22, record_size=8, dtype="float64",
            records_per_block=4, n_processes=2,
        )

        def proc():
            yield f.write_records(0, data)
            full = yield f.read_block(1)
            short = yield f.read_block(5)
            return full, short

        full, short = env.run(env.process(proc()))
        assert np.array_equal(full, data[4:8])
        assert np.array_equal(short, data[20:22])  # 2-record short block

    def test_write_block_validates_record_count(self, env, pfs):
        f = pfs.create(
            "wb", "IS", n_records=22, record_size=8, dtype="float64",
            records_per_block=4, n_processes=2,
        )
        with pytest.raises(ValueError):
            f.write_block(5, records(4, items=1))  # short block holds 2


class TestMetadataRoundtrip:
    def test_attrs_to_from_dict(self, pfs):
        f = pfs.create(
            "meta", "PDA", n_records=60, record_size=24, dtype="float64",
            records_per_block=5, n_processes=3, assignment="interleaved",
        )
        d = f.attrs.to_dict()
        from repro.fs import FileAttributes

        back = FileAttributes.from_dict(d)
        assert back == f.attrs


class TestEdgeShapes:
    def test_block_bigger_than_file(self, env, pfs):
        """records_per_block > n_records: a single short block."""
        f = pfs.create("tiny", "IS", n_records=3, record_size=8,
                       dtype="float64", records_per_block=16, n_processes=2)
        assert f.n_blocks == 1
        data = records(3, items=1)

        def proc():
            yield from f.global_view().write(data)
            out = yield f.read_block(0)
            return out

        assert np.array_equal(env.run(env.process(proc())), data)

    def test_single_record_file(self, env, pfs):
        f = pfs.create("one", "PS", n_records=1, record_size=8,
                       dtype="float64", n_processes=4)
        data = records(1, items=1)

        def proc():
            h = f.internal_view(f.map.owner_of_record(0))
            yield from h.write_next(data)
            out = yield from f.global_view().read()
            return out

        assert np.array_equal(env.run(env.process(proc())), data)

    def test_empty_file_all_views(self, env, pfs):
        f = pfs.create("void", "PS", n_records=0, record_size=8,
                       dtype="float64", n_processes=2)
        assert f.n_blocks == 0

        def proc():
            out = yield from f.global_view().read()
            h = f.internal_view(0)
            part = yield from h.read_next(5)
            return len(out), len(part), h.eof

        assert env.run(env.process(proc())) == (0, 0, True)

    def test_large_record_spanning_stripe_units(self, env, pfs):
        # one record bigger than the stripe unit: volume splits it
        f = pfs.create("wide", "S", n_records=4, record_size=16384,
                       records_per_block=1, stripe_unit=4096)
        payload = (np.arange(4 * 16384) % 256).astype(np.uint8).reshape(4, 16384)

        def proc():
            yield from f.global_view().write(payload)
            out = yield f.read_records(1, 2)
            return out

        assert np.array_equal(env.run(env.process(proc())), payload[1:3])
