"""Sim-backend Dataset tests: round-trip, hyperslab I/O, collectives,
crc staleness/sync, and verify integration."""

import numpy as np
import pytest

from repro import build_parallel_fs
from repro.container.verify import scan_container
from repro.core import OrganizationError
from repro.dataset import Dataset, DatasetSchema, content_fingerprint
from repro.sim import Environment

from tests.container.conftest import build_pfs, media_bytes
from tests.dataset.conftest import run


def make(env, pfs, schema, data, **kw):
    return run(env, Dataset.create(pfs, "ds", schema, data=data, **kw))


class TestRoundTrip:
    def test_create_open_describe(self, env, pfs, schema, data):
        ds = make(env, pfs, schema, data, org="PS", writers=2)
        ds2 = run(env, Dataset.open(pfs, "ds"))
        desc = ds2.describe()
        assert desc["dimensions"] == {"t": 4, "y": 6, "x": 8}
        assert tuple(desc["variables"]["temp"]["shape"]) == (4, 6, 8)
        assert desc["variables"]["temp"]["attrs"] == {"units": "K"}
        assert sorted(ds.variable_names) == ["mask", "temp"]

    def test_full_variable_round_trip(self, env, pfs, schema, data):
        ds = make(env, pfs, schema, data)
        for name in ("temp", "mask"):
            got = run(env, ds.read_variable(name))
            assert got.dtype == data[name].dtype
            assert np.array_equal(got, data[name])

    def test_zero_fill_without_data(self, env, pfs, schema):
        ds = make(env, pfs, schema, None)
        got = run(env, ds.read_variable("temp"))
        assert np.count_nonzero(got) == 0

    def test_open_non_dataset_rejected(self, env, pfs):
        from repro.container import ContainerWriter, block_section

        def driver():
            w = ContainerWriter.create(pfs, "plain", [block_section("blob", 64)])
            yield from w.begin()
            yield from w.write_block("blob", b"\x07" * 64)

        env.run(env.process(driver()))
        with pytest.raises(OrganizationError, match="not a dataset"):
            run(env, Dataset.open(pfs, "plain"))


class TestSlabs:
    CASES = [
        ((0, 0, 0), (4, 6, 8)),     # whole variable
        ((1, 2, 3), (2, 3, 4)),     # interior box
        ((3, 0, 0), (1, 6, 8)),     # one time step (contiguous)
        ((0, 5, 7), (4, 1, 1)),     # a strided pencil
        ((2, 2, 2), (0, 3, 3)),     # empty
    ]

    @pytest.mark.parametrize("start,count", CASES)
    @pytest.mark.parametrize("sieve", [False, True])
    def test_read_matches_numpy_oracle(self, env, pfs, schema, data,
                                       start, count, sieve):
        ds = make(env, pfs, schema, data, org="IS", writers=2)
        got = run(env, ds.read_slab("temp", start, count, sieve=sieve))
        sel = tuple(slice(s, s + c) for s, c in zip(start, count))
        assert np.array_equal(got, data["temp"][sel])

    @pytest.mark.parametrize("sieve", [False, True])
    def test_write_then_read_back(self, env, pfs, schema, data, sieve):
        ds = make(env, pfs, schema, data, org="SS", writers=2)
        patch = np.full((2, 3, 4), 7.5, dtype="<f4")
        n = run(env, ds.write_slab("temp", (1, 2, 3), (2, 3, 4), patch,
                                   sieve=sieve))
        assert n == 24
        want = data["temp"].copy()
        want[1:3, 2:5, 3:7] = patch
        got = run(env, ds.read_variable("temp"))
        assert np.array_equal(got, want)

    def test_bad_slab_reports_dimension(self, env, pfs, schema, data):
        ds = make(env, pfs, schema, data)
        with pytest.raises(OrganizationError, match="outside extent"):
            run(env, ds.read_slab("temp", (0, 0, 5), (4, 6, 4)))

    def test_wrong_value_count_rejected(self, env, pfs, schema, data):
        ds = make(env, pfs, schema, data)
        with pytest.raises(OrganizationError, match="slab selects"):
            run(env, ds.write_slab("temp", (0, 0, 0), (1, 1, 2),
                                   np.zeros(3, dtype="<f4")))


class TestCollective:
    @pytest.mark.parametrize("org", ["IS", "GDA"])
    def test_read_slab_all(self, env, pfs, schema, data, org):
        ds = make(env, pfs, schema, data, org=org, writers=4)
        slabs = [((q, 0, 0), (1, 6, 8)) for q in range(4)]
        out = run(env, ds.read_slab_all("temp", slabs))
        for q in range(4):
            assert np.array_equal(out[q], data["temp"][q:q + 1])

    @pytest.mark.parametrize("org", ["PS", "PDA"])
    def test_write_slab_all_then_verify(self, env, pfs, schema, data, org):
        ds = make(env, pfs, schema, data, org=org, writers=4)
        slabs = [((q, 0, 0), (1, 6, 8)) for q in range(4)]
        vals = [np.full((1, 6, 8), float(q), dtype="<f4") for q in range(4)]
        n = run(env, ds.write_slab_all("temp", slabs, vals))
        assert n == 4 * 6 * 8
        got = run(env, ds.read_variable("temp"))
        want = np.concatenate(vals)
        assert np.array_equal(got, want)

    def test_empty_slabs_are_fine(self, env, pfs, schema, data):
        ds = make(env, pfs, schema, data, org="IS", writers=2)
        slabs = [((0, 0, 0), (0, 6, 8)), ((1, 0, 0), (2, 6, 8))]
        out = run(env, ds.read_slab_all("temp", slabs))
        assert out[0].size == 0
        assert np.array_equal(out[1], data["temp"][1:3])

    def test_wrong_process_count_rejected(self, env, pfs, schema, data):
        ds = make(env, pfs, schema, data, org="IS", writers=2)
        with pytest.raises(OrganizationError):
            run(env, ds.read_slab_all("temp", [((0, 0, 0), (1, 6, 8))]))


class TestSync:
    def test_slab_write_dirties_and_sync_cleans(self, env, pfs, schema, data):
        ds = make(env, pfs, schema, data, org="S")
        assert scan_container(ds.file).clean

        run(env, ds.write_slab("mask", (0, 0), (2, 8),
                               np.ones((2, 8), dtype="u1")))
        assert ds.dirty == ["mask"]
        report = scan_container(ds.file)
        stale = [f for f in report.findings if f.kind == "section-checksum"]
        assert [f.section for f in stale] == ["var/mask"]

        assert run(env, ds.sync()) == ["mask"]
        assert ds.dirty == []
        assert scan_container(ds.file).clean

    def test_collective_write_dirties(self, env, pfs, schema, data):
        ds = make(env, pfs, schema, data, org="IS", writers=2)
        slabs = [((0, 0, 0), (2, 6, 8)), ((2, 0, 0), (2, 6, 8))]
        vals = [np.zeros((2, 6, 8), dtype="<f4")] * 2
        run(env, ds.write_slab_all("temp", slabs, vals))
        assert ds.dirty == ["temp"]
        run(env, ds.sync())
        assert scan_container(ds.file).clean


    def test_write_during_sync_keeps_variable_dirty(self, env, pfs, schema, data):
        """A slab write that lands while sync reads the payload leaves the
        variable dirty: the crc sync computed may predate the write."""
        ds = make(env, pfs, schema, data, org="S")
        run(env, ds.write_slab("temp", (0, 0, 0), (1, 6, 8),
                               np.ones((1, 6, 8), dtype="<f4")))

        def writer():
            yield env.timeout(0)  # sync has issued its payload read
            yield from ds.write_slab("temp", (3, 0, 0), (1, 6, 8),
                                     np.full((1, 6, 8), 5.0, dtype="<f4"))

        def both():
            sync = env.process(ds.sync())
            yield env.process(writer())
            assert sync.is_alive  # the write landed inside the sync
            yield sync

        run(env, both())
        stale = [f.section for f in scan_container(ds.file).findings
                 if f.kind == "section-checksum"]
        assert stale == ["var/temp"] and ds.dirty == ["temp"]
        run(env, ds.sync())
        assert ds.dirty == [] and scan_container(ds.file).clean


class TestCreateModes:
    def test_collective_create_of_a_large_grid_matches_view_create(self):
        # the ledger's sim_noncontig set-up: 512 x 512 float64, IS, four
        # writers, batched submission. The collective create checks 2 Mi
        # record indices for overlap, which a sort made too slow for tier 1.
        schema = DatasetSchema.build(
            {"row": 512, "col": 512},
            {"grid": ("<f8", ("row", "col"), {"units": "arb"})},
            {"bench": "ledger"},
        )
        grid = np.random.default_rng(7).normal(size=(512, 512)).astype("<f8")
        prints = {}
        for mode in ("collective", "view"):
            env = Environment()
            ds = run(env, Dataset.create(
                build_parallel_fs(env, 4, batch_io=True), "grid", schema,
                org="IS", writers=4,
                data={"grid": grid}, user_string="ledger", mode=mode,
            ))
            assert scan_container(ds.file).clean
            prints[mode] = content_fingerprint(media_bytes(ds.file))
        assert prints["collective"] == prints["view"]
