"""Unit tests for the file-per-process baseline (FEM story)."""

import numpy as np
import pytest

from repro import build_parallel_fs
from repro.baselines import FilePerProcessDataset
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def pfs(env):
    return build_parallel_fs(env, 4)


def test_catalog_bloat_scales_with_processes(env, pfs):
    ds = FilePerProcessDataset(pfs, "fem", n_records=64, record_size=8,
                               n_processes=16)
    assert ds.file_count == 16
    assert len(pfs.catalog) == 16


def test_partition_and_per_process_read(env, pfs):
    ds = FilePerProcessDataset(
        pfs, "fem", n_records=40, record_size=8, n_processes=4, dtype="float64",
    )
    data = np.random.default_rng(0).random((40, 1))

    def driver():
        yield from ds.partition(data)
        part1 = yield from ds.read_partition(1)
        return part1

    part1 = env.run(env.process(driver()))
    assert np.array_equal(part1, data[ds._map.records_of(1)])
    assert ds.utility_bytes == 40 * 8


def test_merge_restores_global_order(env, pfs):
    ds = FilePerProcessDataset(
        pfs, "fem", n_records=40, record_size=8, n_processes=4, dtype="float64",
    )
    data = np.random.default_rng(1).random((40, 1))

    def driver():
        yield from ds.partition(data)
        merged = yield from ds.merge("merged")
        out = yield from merged.global_view().read()
        return out

    assert np.array_equal(env.run(env.process(driver())), data)
    # utility moved every byte twice (partition + merge)
    assert ds.utility_bytes == 2 * 40 * 8


def test_write_partition_roundtrip(env, pfs):
    ds = FilePerProcessDataset(
        pfs, "fem", n_records=16, record_size=8, n_processes=2, dtype="float64",
    )
    new_part = np.random.default_rng(2).random((8, 1))

    def driver():
        yield from ds.write_partition(0, new_part)
        out = yield from ds.read_partition(0)
        return out

    assert np.array_equal(env.run(env.process(driver())), new_part)


def test_delete_all_counts_operations(env, pfs):
    ds = FilePerProcessDataset(pfs, "fem", n_records=64, record_size=8,
                               n_processes=8)
    assert ds.delete_all() == 8
    assert len(pfs.catalog) == 0


def test_partition_validates_shape(env, pfs):
    ds = FilePerProcessDataset(pfs, "fem", n_records=10, record_size=8,
                               n_processes=2, dtype="float64")
    with pytest.raises(ValueError):
        next(ds.partition(np.zeros((9, 1))))


def test_single_device_fs_builder(env):
    pfs1 = build_parallel_fs(env, 1)
    assert pfs1.volume.n_devices == 1
    f = pfs1.create("x", "S", n_records=4, record_size=8)
    assert f.layout.n_devices == 1


def test_build_with_scheduling_policy(env):
    pfs = build_parallel_fs(env, 2, scheduling="sstf")
    assert pfs.volume.devices[0].policy.name == "sstf"
