"""The crash-point matrix as a test: kill every op at every durable step.

The pure-namespace matrix runs exactly what ``python -m
repro.metastore.harness`` runs in CI; the pfs-backed matrix additionally
fronts a real file system (live extents on simulated devices) and runs
the fsck catalog cross-check after every injected crash + recovery, so
atomicity is asserted at the media layer too.
"""

import pytest

from repro.container.verify import cross_check
from repro.metastore.crash import CrashInjector, InjectedCrash
from repro.metastore.harness import (
    crash_matrix,
    default_scenarios,
    name_on_shard,
    quick_scenarios,
    run_scenario,
)

from ..fs.conftest import build_pfs


class TestNamespaceMatrix:
    def test_full_matrix_is_atomic(self):
        results, ok = crash_matrix()
        assert ok, "\n".join(
            f"{r.scenario}: {s.step} ({s.tag}) -> {s.outcome} {s.findings}"
            for r in results for s in r.steps if not s.ok
        )
        # the matrix is exhaustive: every scenario has several crash
        # points and both before- and after-states are exercised somewhere
        assert sum(len(r.steps) for r in results) >= 25
        outcomes = {s.outcome for r in results for s in r.steps}
        assert outcomes == {"before", "after"}

    def test_quick_matrix_is_a_subset(self):
        names = {s.name for s in quick_scenarios()}
        assert names == {"create", "rename-cross-shard", "delete"}
        results, ok = crash_matrix(quick_scenarios())
        assert ok

    def test_single_shard_matrix(self):
        # with one shard every rename is same-shard; still atomic
        scenarios = [
            s for s in default_scenarios(1) if "cross" not in s.name
        ]
        results, ok = crash_matrix(scenarios, n_shards=1)
        assert ok

    def test_compound_scenario_protects_committed_prefix(self):
        scenario = next(
            s for s in default_scenarios() if s.name == "rename-after-create"
        )
        result = run_scenario(scenario)
        assert result.ok
        # crash points exist in both ops of the sequence
        assert len(result.steps) > 8


def _pfs_with_metastore(injector):
    from repro.sim import Environment

    env = Environment()
    pfs = build_pfs(env)
    pfs.create("seed_a", "S", n_records=16, record_size=32, n_processes=1)
    pfs.create("seed_b", "S", n_records=16, record_size=32, n_processes=1)
    pfs.attach_metastore(shards=4, injector=injector)
    injector.reset()
    return pfs


def _pfs_ops():
    """(label, op) pairs exercised at the *pfs* level (live extents)."""
    from repro.metastore.service import shard_index

    # a rename target hashing to a different shard than the source
    new_cross = name_on_shard((shard_index("seed_a", 4) + 1) % 4, 4, "moved")
    return [
        ("create", lambda pfs: pfs.create(
            "newfile", "S", n_records=16, record_size=32, n_processes=1)),
        ("delete", lambda pfs: pfs.delete("seed_a")),
        ("rename", lambda pfs: pfs.catalog.rename("seed_a", new_cross)),
    ]


class TestPfsBackedMatrix:
    @pytest.mark.parametrize("label", ["create", "delete", "rename"])
    def test_pfs_crash_matrix_with_fsck_cross_check(self, label):
        op = dict(_pfs_ops())[label]

        # pass 0: enumerate the op's durable steps and boundary states
        inj = CrashInjector()
        pfs = _pfs_with_metastore(inj)
        before = pfs.metastore.snapshot()
        op(pfs)
        after = pfs.metastore.snapshot()
        n_steps = len(inj.trace)
        assert n_steps >= 4
        assert before != after

        for k in range(1, n_steps + 1):
            inj = CrashInjector()
            pfs = _pfs_with_metastore(inj)
            inj.arm(k)
            with pytest.raises(InjectedCrash):
                op(pfs)
            pfs.metastore.recover()
            snap = pfs.metastore.snapshot()
            assert snap in (before, after), f"step {k}: torn state"
            assert pfs.metastore.check_invariants() == []
            report = cross_check(pfs)
            assert not report.findings, (
                f"step {k}: fsck cross-check found "
                f"{[f.kind for f in report.findings]}"
            )

    def test_clean_pfs_cross_check_is_clean(self):
        inj = CrashInjector()
        pfs = _pfs_with_metastore(inj)
        report = cross_check(pfs)
        assert not report.findings
        assert report.total_bytes > 0


class TestPlainCatalogCrossCheck:
    """``cross_check`` over the plain :class:`~repro.fs.catalog.Catalog`,
    the other half of its documented input."""

    @staticmethod
    def _plain_pfs():
        from repro.fs.catalog import Catalog
        from repro.sim import Environment

        pfs = build_pfs(Environment())
        pfs.create("field", "PS", n_records=64, record_size=256, n_processes=4)
        pfs.create("log", "S", n_records=32, record_size=256, n_processes=1)
        assert type(pfs.catalog) is Catalog
        return pfs

    def test_clean(self):
        report = cross_check(self._plain_pfs())
        assert not report.findings
        assert report.total_bytes == 24_576

    def test_double_owner_is_an_overlap(self):
        pfs = self._plain_pfs()
        pfs.catalog.get("log").extent = pfs.catalog.get("field").extent
        kinds = {f.kind for f in cross_check(pfs).findings}
        assert kinds == {"catalog-extent-overlap"}

    def test_short_extent_is_a_size_mismatch(self):
        pfs = self._plain_pfs()
        entry = pfs.catalog.get("log")
        entry.extent = pfs.volume.allocate(entry.layout, 512)
        kinds = {f.kind for f in cross_check(pfs).findings}
        assert kinds == {"catalog-size-mismatch"}


def test_sharded_catalog_serves_open_and_exists():
    """``pfs.open`` and ``pfs.exists`` go through whichever catalog is
    installed; after ``attach_metastore`` that is the sharded facade."""
    inj = CrashInjector()
    pfs = _pfs_with_metastore(inj)
    assert pfs.exists("seed_a") and not pfs.exists("nope")
    f = pfs.open("seed_a")
    assert (f.attrs.name, f.attrs.n_records) == ("seed_a", 16)
