"""Unit tests for per-file damage assessment after a device failure."""

import pytest

from repro.fs import assess_damage

from .conftest import build_pfs


def test_striped_file_every_device_holds_a_slice(env):
    """§5: 'each drive contains a slice of every file' — for striping."""
    pfs = build_pfs(env, n_devices=4)
    pfs.create("s", "S", n_records=256, record_size=512,
               records_per_block=8, stripe_unit=4096)
    for dev in range(4):
        (report,) = assess_damage(pfs, dev)
        assert not report.intact
        assert report.fraction == pytest.approx(0.25)


def test_clustered_ps_loses_only_resident_partitions(env):
    pfs = build_pfs(env, n_devices=4)
    f = pfs.create("p", "PS", n_records=64, record_size=512,
                   records_per_block=4, n_processes=4)
    (report,) = assess_damage(pfs, 1)
    # exactly one partition (1/4 of the file) lives on device 1
    assert report.fraction == pytest.approx(0.25)
    # and the lost records are exactly process 1's contiguous partition
    recs = f.map.records_of(1)
    assert report.affected_records == [(int(recs[0]), len(recs))]


def test_interleaved_loses_every_nth_block(env):
    pfs = build_pfs(env, n_devices=4)
    pfs.create("i", "IS", n_records=64, record_size=512,
               records_per_block=4, n_processes=4)
    (report,) = assess_damage(pfs, 2)
    assert report.fraction == pytest.approx(0.25)
    # blocks 2, 6, 10, 14 -> record runs [8,12), [24,28), ...
    assert report.affected_records == [
        (8, 4), (24, 4), (40, 4), (56, 4),
    ]


def test_file_on_other_devices_is_intact(env):
    pfs = build_pfs(env, n_devices=4)
    pfs.create("narrow", "S", n_records=16, record_size=512,
               records_per_block=4, n_devices=1)  # lives on device 0 only
    (report,) = assess_damage(pfs, 3)
    assert report.intact
    assert report.affected_records == []
    assert report.fraction == 0.0


def test_multiple_files_reported_together(env):
    pfs = build_pfs(env, n_devices=4)
    pfs.create("a", "S", n_records=64, record_size=512,
               records_per_block=4, stripe_unit=512)
    pfs.create("b", "PS", n_records=64, record_size=512,
               records_per_block=4, n_processes=4)
    reports = {r.file: r for r in assess_damage(pfs, 0)}
    assert set(reports) == {"a", "b"}
    assert not reports["a"].intact and not reports["b"].intact


def test_device_bounds(env):
    pfs = build_pfs(env, n_devices=4)
    with pytest.raises(ValueError):
        assess_damage(pfs, 4)


def test_empty_file_intact(env):
    pfs = build_pfs(env, n_devices=4)
    pfs.create("empty", "S", n_records=0, record_size=512)
    (report,) = assess_damage(pfs, 0)
    assert report.intact and report.total_bytes == 0
