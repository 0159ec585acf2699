"""Unit tests for backups, rollback consistency, and protection schemes."""

import numpy as np
import pytest

from repro.fs import BackupManager, protection_overview, verify_file
from repro.resilience import ResilienceConfig
from repro.sim import Environment

from .conftest import build_stack


def records(n, seed=4):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2))


def striped_file_with_data(pfs, env, name="f", n=64):
    # stripe finely so the file genuinely spans all devices ("each drive
    # contains a slice of every file") — the premise of the §5 argument
    f = pfs.create(
        name, "S", n_records=n, record_size=16, dtype="float64",
        records_per_block=4, stripe_unit=64,
    )
    data = records(n)

    def proc():
        yield from f.global_view().write(data)

    env.run(env.process(proc()))
    return f, data


class TestBackupManager:
    def test_take_and_full_rollback(self, env, pfs):
        f, data = striped_file_with_data(pfs, env)
        mgr = BackupManager(env, pfs.volume)

        def proc():
            bset = yield from mgr.take()
            # post-backup writes
            yield from f.global_view().write(records(64, seed=99))
            # a device dies; roll everything back
            pfs.volume.devices[1].fail()
            yield from mgr.restore_all(bset)
            return bset

        env.run(env.process(proc()))
        assert verify_file(f, data)  # consistent at the backup point

    def test_single_device_restore_is_insufficient(self, env, pfs):
        """The §5 claim: restoring only the failed disk corrupts striped files."""
        f, data = striped_file_with_data(pfs, env)
        mgr = BackupManager(env, pfs.volume)
        newer = records(64, seed=99)

        def proc():
            bset = yield from mgr.take()
            v = f.global_view()
            v.seek(0)
            yield from v.write(newer)      # post-backup write on ALL devices
            pfs.volume.devices[1].fail()
            yield from mgr.restore_device(bset, 1)
            return bset

        env.run(env.process(proc()))
        # Device 1 has backup-time slices; others have newer data: neither
        # the old nor the new file contents are intact.
        assert not verify_file(f, data)
        assert not verify_file(f, newer)

    def test_backup_takes_simulated_time(self, env, pfs):
        mgr = BackupManager(env, pfs.volume)

        def proc():
            yield from mgr.take()

        env.run(env.process(proc()))
        assert env.now > 0

    def test_backup_registry(self, env, pfs):
        mgr = BackupManager(env, pfs.volume)

        def proc():
            a = yield from mgr.take()
            b = yield from mgr.take()
            return a, b

        a, b = env.run(env.process(proc()))
        assert a.backup_id != b.backup_id
        assert mgr.backups[a.backup_id] is a
        assert a.n_devices == pfs.volume.n_devices

    def test_restore_device_bounds(self, env, pfs):
        mgr = BackupManager(env, pfs.volume)

        def proc():
            bset = yield from mgr.take()
            return bset

        bset = env.run(env.process(proc()))
        with pytest.raises(ValueError):
            next(mgr.restore_device(bset, 99))


class TestShadowedFileSystem:
    def test_file_survives_single_member_failure(self):
        env = Environment()
        pfs = build_stack(env, 2, resilience=ResilienceConfig(protection="shadow", spares=0))
        f = pfs.create(
            "mirrored", "S", n_records=32, record_size=16, dtype="float64",
            records_per_block=4,
        )
        data = records(32)

        def proc():
            yield from f.global_view().write(data)
            pfs.volume.devices[0].fail()   # lose one drive; its mirror serves
            out = yield from f.global_view().read()
            return out

        assert np.array_equal(env.run(env.process(proc())), data)


class TestProtectionOverview:
    def test_section5_coverage_matrix(self):
        schemes = {s.name: s for s in protection_overview(10)}
        assert schemes["parity"].covers_striped
        assert not schemes["parity"].covers_independent
        assert schemes["shadow"].covers_independent
        assert schemes["shadow"].extra_devices == 10
        assert schemes["none+backup"].loses_recent_writes
        assert not schemes["shadow"].loses_recent_writes

    def test_parity_group_count(self):
        schemes = {s.name: s for s in protection_overview(10, parity_group_size=5)}
        assert schemes["parity"].extra_devices == 2

    def test_device_overhead(self):
        shadow = next(s for s in protection_overview(8) if s.name == "shadow")
        assert shadow.device_overhead(8) == 1.0
        with pytest.raises(ValueError):
            shadow.device_overhead(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            protection_overview(0)
        with pytest.raises(ValueError):
            protection_overview(4, parity_group_size=1)


class TestVerifyFile:
    def test_detects_match_and_mismatch(self, env, pfs):
        f, data = striped_file_with_data(pfs, env)
        assert verify_file(f, data)
        tampered = data.copy()
        tampered[10, 0] += 1
        assert not verify_file(f, tampered)

    def test_shape_mismatch_is_false(self, env, pfs):
        f, data = striped_file_with_data(pfs, env)
        assert not verify_file(f, data[:-1])
