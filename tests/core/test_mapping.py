"""Unit + property tests for organization maps.

The property tests enforce the invariants DESIGN.md §5 calls out: every
static organization's per-process record sequences form a *partition* of
the file (coverage, no overlap), and local<->global coordinates are a
bijection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockSpec,
    FileOrganization,
    GlobalDirectMap,
    InterleavedMap,
    OrganizationError,
    OrganizationMap,
    OwnershipError,
    PartitionedDirectMap,
    PartitionedMap,
    RecordRangeError,
    RecordSpec,
    SelfScheduledMap,
    SequentialMap,
    make_map,
)
from repro.core.handles import DirectCore, OwnedDirectCore


def handle_file(m):
    """The least a handle kind needs of a file: its map and record count."""
    from types import SimpleNamespace

    return SimpleNamespace(map=m, n_records=m.n_records)


def bspec(rpb=4):
    return BlockSpec(RecordSpec(8), rpb)


# -- static-map shared properties -------------------------------------------

static_shapes = st.tuples(
    st.integers(0, 300),   # n_records
    st.integers(1, 16),    # records_per_block
    st.integers(1, 12),    # n_processes
)


def make_static_maps(n_records, rpb, p):
    spec = bspec(rpb)
    return [
        SequentialMap(spec, n_records, p),
        PartitionedMap(spec, n_records, p),
        InterleavedMap(spec, n_records, p),
        PartitionedDirectMap(spec, n_records, p, assignment="contiguous"),
        PartitionedDirectMap(spec, n_records, p, assignment="interleaved"),
    ]


@settings(max_examples=60)
@given(static_shapes)
def test_static_maps_partition_the_file(shape):
    n_records, rpb, p = shape
    for m in make_static_maps(n_records, rpb, p):
        all_records = np.concatenate(
            [m.records_of(q) for q in range(p)]
        ) if p else np.empty(0)
        assert sorted(all_records.tolist()) == list(range(n_records)), m


@settings(max_examples=60)
@given(static_shapes)
def test_static_maps_block_ownership_consistent(shape):
    n_records, rpb, p = shape
    for m in make_static_maps(n_records, rpb, p):
        for q in range(p):
            for b in m.blocks_of(q):
                assert m.owner_of_block(int(b)) == q, m


@settings(max_examples=40, deadline=None)
@given(static_shapes)
def test_local_global_bijection(shape):
    n_records, rpb, p = shape
    for m in make_static_maps(n_records, rpb, p):
        for r in range(n_records):
            q, local = m.global_to_local(r)
            assert m.local_to_global(q, local) == r, m


oracle_shapes = st.tuples(
    st.integers(0, 200),   # n_records
    st.integers(1, 7),     # records_per_block
    st.integers(1, 8),     # n_processes
)


@settings(max_examples=30, deadline=None)
@given(oracle_shapes)
def test_closed_form_runs_match_the_reference(shape):
    """S, PS, IS (and PDA through them) answer ``runs`` and
    ``n_local_records`` by arithmetic; the base class's ``records_of`` +
    ``contiguous_runs`` versions are the reference. Every ``(local, count)``
    pair is checked, past-the-end clipping included; short final blocks
    and processes owning no blocks fall out of the shape ranges."""
    n_records, rpb, p = shape
    for m in make_static_maps(n_records, rpb, p):
        for q in range(p):
            n = OrganizationMap.n_local_records(m, q)
            assert m.n_local_records(q) == n, (m, q)
            for local in range(n + 2):
                for count in range(n - local + 3):
                    want = OrganizationMap.runs(m, q, local, count)
                    assert m.runs(q, local, count) == want, (m, q, local, count)


def test_closed_form_runs_edge_cases():
    # one record, two processes: process 1 owns no block (not a negative count)
    m = PartitionedMap(bspec(4), 1, 2)
    assert m.n_local_records(1) == 0 and m.runs(1, 0, 5) == []
    assert m.runs(0, 0, 5) == [(0, 1)]
    # IS with a short final block, one run per touched block
    m = InterleavedMap(bspec(3), 10, 2)        # blocks 0..3, last holds 1 record
    assert m.n_local_records(1) == 4           # blocks 1 and 3
    assert m.runs(1, 2, 10) == [(5, 1), (9, 1)]
    # stride 1: adjacent blocks merge into one run
    assert InterleavedMap(bspec(3), 10, 1).runs(0, 1, 7) == [(1, 7)]
    with pytest.raises(RecordRangeError):
        m.runs(0, -1, 1)
    with pytest.raises(OrganizationError):
        m.runs(2, 0, 1)
    with pytest.raises(OrganizationError):
        SelfScheduledMap(bspec(), 40, 4).runs(0, 0, 1)


@settings(max_examples=40)
@given(static_shapes)
def test_per_process_sequences_sorted_within_blocks(shape):
    """Each process visits records of any single block in ascending order."""
    n_records, rpb, p = shape
    for m in make_static_maps(n_records, rpb, p):
        for q in range(p):
            recs = m.records_of(q)
            blocks = recs // rpb
            for b in np.unique(blocks):
                chunk = recs[blocks == b]
                assert np.all(np.diff(chunk) == 1), m


class TestSequentialMap:
    def test_reader_owns_everything(self):
        m = SequentialMap(bspec(), 40, n_processes=3, reader=1)
        assert m.n_local_records(1) == 40
        assert m.n_local_records(0) == 0
        assert m.n_local_records(2) == 0
        assert m.owner_of_block(5) == 1

    def test_records_in_global_order(self):
        m = SequentialMap(bspec(), 17)
        assert np.array_equal(m.records_of(0), np.arange(17))

    def test_invalid_reader(self):
        with pytest.raises(OrganizationError):
            SequentialMap(bspec(), 10, n_processes=2, reader=2)

    def test_org_tag(self):
        assert SequentialMap(bspec(), 10).org is FileOrganization.S


class TestPartitionedMap:
    def test_contiguous_balanced_split(self):
        # 10 blocks over 3 processes -> 4,3,3
        m = PartitionedMap(bspec(4), 40, 3)
        assert m.partition_range(0) == (0, 4)
        assert m.partition_range(1) == (4, 7)
        assert m.partition_range(2) == (7, 10)

    def test_each_partition_is_one_run(self):
        m = PartitionedMap(bspec(4), 40, 3)
        for p in range(3):
            recs = m.records_of(p)
            assert np.all(np.diff(recs) == 1)

    def test_more_processes_than_blocks(self):
        m = PartitionedMap(bspec(10), 25, 8)  # 3 blocks, 8 processes
        owners = [m.owner_of_block(b) for b in range(3)]
        assert owners == [0, 1, 2]
        assert m.n_local_records(7) == 0

    def test_owner_search(self):
        m = PartitionedMap(bspec(1), 100, 7)
        for b in range(100):
            assert m.blocks_of(m.owner_of_block(b)).tolist().count(b) == 1

    def test_block_out_of_range(self):
        m = PartitionedMap(bspec(4), 40, 3)
        with pytest.raises(RecordRangeError):
            m.owner_of_block(10)


class TestInterleavedMap:
    def test_round_robin_ownership(self):
        m = InterleavedMap(bspec(2), 20, 3)  # 10 blocks
        assert [m.owner_of_block(b) for b in range(10)] == [
            0, 1, 2, 0, 1, 2, 0, 1, 2, 0
        ]

    def test_stride_defaults_to_processes(self):
        assert InterleavedMap(bspec(), 40, 4).stride == 4

    def test_bad_strides_rejected(self):
        with pytest.raises(OrganizationError):
            InterleavedMap(bspec(), 40, 4, stride=3)
        with pytest.raises(OrganizationError):
            InterleavedMap(bspec(), 40, 4, stride=5)

    def test_single_record_blocks_wrap_matrix_rows(self):
        """§3.1: 'useful for wrapped storage of a matrix'."""
        m = InterleavedMap(BlockSpec(RecordSpec(8), 1), 9, 3)
        assert m.records_of(0).tolist() == [0, 3, 6]
        assert m.records_of(1).tolist() == [1, 4, 7]
        assert m.records_of(2).tolist() == [2, 5, 8]


class TestSelfScheduledMap:
    def test_not_static(self):
        m = SelfScheduledMap(bspec(), 40, 4)
        assert not m.is_static
        with pytest.raises(OrganizationError):
            m.owner_of_block(0)
        with pytest.raises(OrganizationError):
            m.blocks_of(0)

    def test_validate_schedule_accepts_exact_cover(self):
        m = SelfScheduledMap(bspec(4), 16, 2)  # 4 blocks
        m.validate_schedule({0: [0, 2], 1: [1, 3]})

    def test_validate_schedule_rejects_skip(self):
        m = SelfScheduledMap(bspec(4), 16, 2)
        with pytest.raises(OrganizationError):
            m.validate_schedule({0: [0, 2], 1: [1]})

    def test_validate_schedule_rejects_duplicate(self):
        m = SelfScheduledMap(bspec(4), 16, 2)
        with pytest.raises(OrganizationError):
            m.validate_schedule({0: [0, 1, 2], 1: [2, 3]})


class TestGlobalDirectMap:
    """GDA's access rule is enforced by its handle kind (repro.core.handles)."""

    def test_everyone_may_access_everything(self):
        m = GlobalDirectMap(bspec(), 40, 4)
        assert not m.is_static
        for p in range(4):
            DirectCore(handle_file(m), p)._check(0, 40)

    def test_bounds_checked(self):
        m = GlobalDirectMap(bspec(), 40, 4)
        with pytest.raises(ValueError):
            DirectCore(handle_file(m), 0)._check(40, 1)
        with pytest.raises(OrganizationError):
            DirectCore(handle_file(m), 4)


class TestPartitionedDirectMap:
    def test_contiguous_matches_ps(self):
        pda = PartitionedDirectMap(bspec(4), 40, 3, assignment="contiguous")
        ps = PartitionedMap(bspec(4), 40, 3)
        for b in range(10):
            assert pda.owner_of_block(b) == ps.owner_of_block(b)

    def test_interleaved_matches_is(self):
        pda = PartitionedDirectMap(bspec(4), 40, 3, assignment="interleaved")
        is_ = InterleavedMap(bspec(4), 40, 3)
        for b in range(10):
            assert pda.owner_of_block(b) == is_.owner_of_block(b)

    def test_access_control(self):
        """Enforced by the PDA handle kind on every block a request touches."""
        pda = PartitionedDirectMap(bspec(4), 40, 2)
        owner = pda.owner_of_record(0)
        handles = [OwnedDirectCore(handle_file(pda), p) for p in (0, 1)]
        for h in handles:
            h._own(False)
        handles[owner]._check(0, 4)
        with pytest.raises(OwnershipError):
            handles[1 - owner]._check(0, 1)
        with pytest.raises(OwnershipError):
            handles[owner]._check(0, 24)  # runs into the other partition

    def test_unknown_assignment(self):
        with pytest.raises(OrganizationError):
            PartitionedDirectMap(bspec(), 40, 2, assignment="random")


class TestFactory:
    @pytest.mark.parametrize("org,cls", [
        ("S", SequentialMap),
        ("ps", PartitionedMap),
        ("IS", InterleavedMap),
        ("ss", SelfScheduledMap),
        ("GDA", GlobalDirectMap),
        ("pda", PartitionedDirectMap),
        (FileOrganization.PS, PartitionedMap),
    ])
    def test_make_map(self, org, cls):
        assert isinstance(make_map(org, bspec(), 40, 2), cls)

    def test_unknown_org(self):
        with pytest.raises(OrganizationError):
            make_map("XYZ", bspec(), 40, 2)

    def test_params_forwarded(self):
        m = make_map("pda", bspec(), 40, 2, assignment="interleaved")
        assert m.assignment == "interleaved"


class TestOrganizationEnum:
    def test_families(self):
        assert FileOrganization.S.is_sequential
        assert FileOrganization.SS.is_sequential
        assert FileOrganization.GDA.is_direct
        assert not FileOrganization.PS.is_direct

    def test_partitioned_flags(self):
        assert FileOrganization.PS.is_partitioned
        assert FileOrganization.IS.is_partitioned
        assert FileOrganization.PDA.is_partitioned
        assert not FileOrganization.S.is_partitioned

    def test_default_layouts_match_section4(self):
        assert FileOrganization.S.default_layout == "striped"
        assert FileOrganization.SS.default_layout == "striped"
        assert FileOrganization.PS.default_layout == "clustered"
        assert FileOrganization.IS.default_layout == "interleaved"
        assert FileOrganization.GDA.default_layout == "striped"
