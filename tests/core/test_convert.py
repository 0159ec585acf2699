"""Unit + property tests for view-mismatch analysis and conversion plans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockSpec,
    GlobalDirectMap,
    InterleavedMap,
    PartitionedMap,
    RecordSpec,
    SequentialMap,
    alternate_view_runs,
    contiguous_runs,
    conversion_plan,
)


def bspec(rpb):
    return BlockSpec(RecordSpec(8), rpb)


class TestContiguousRuns:
    def test_empty(self):
        assert contiguous_runs(np.array([], dtype=np.int64)) == []

    def test_single_run(self):
        assert contiguous_runs(np.arange(5)) == [(0, 5)]

    def test_docstring_example(self):
        runs = contiguous_runs(np.array([4, 5, 6, 10, 11, 2]))
        assert runs == [(4, 3), (10, 2), (2, 1)]

    def test_descending_fragments_fully(self):
        runs = contiguous_runs(np.array([3, 2, 1]))
        assert len(runs) == 3

    @given(st.lists(st.integers(0, 1000), min_size=0, max_size=200))
    def test_runs_reconstruct_sequence(self, xs):
        seq = np.array(xs, dtype=np.int64)
        runs = contiguous_runs(seq)
        rebuilt = [r for start, count in runs for r in range(start, start + count)]
        assert rebuilt == xs

    def test_run_stop(self):
        [(start, count)] = contiguous_runs(np.arange(3, 7))
        assert start + count == 7


class TestAlternateViewRuns:
    def test_ps_view_is_single_run_per_process(self):
        ps = PartitionedMap(bspec(4), 64, 4)
        for p in range(4):
            assert len(alternate_view_runs(ps, p)) == 1

    def test_is_view_fragments_per_block(self):
        is_ = InterleavedMap(bspec(4), 64, 4)  # 16 blocks, 4 each
        for p in range(4):
            runs = alternate_view_runs(is_, p)
            assert len(runs) == 4          # one run per owned block
            assert all(count == 4 for _, count in runs)

    def test_is_view_always_more_fragmented_than_ps(self):
        """The degraded-interface cost of consuming a file IS-wise: every
        owned block is a separate run, versus one run for the PS view."""
        n = 240
        for p in (2, 4, 8):
            is_runs = alternate_view_runs(InterleavedMap(bspec(2), n, p), 0)
            ps_runs = alternate_view_runs(PartitionedMap(bspec(2), n, p), 0)
            assert len(ps_runs) == 1
            assert len(is_runs) == n // (2 * p)  # one run per owned block
            assert len(is_runs) > len(ps_runs)

    def test_total_fragmentation_constant_across_processes(self):
        """Summed over processes, the IS view always touches every block
        as its own run: total seeks scale with block count, not P."""
        n = 240
        for p in (2, 4, 8):
            m = InterleavedMap(bspec(2), n, p)
            total = sum(len(alternate_view_runs(m, q)) for q in range(p))
            assert total == m.n_blocks


class TestConversionPlan:
    def test_identity_conversion_single_step(self):
        ps = PartitionedMap(bspec(4), 64, 4)
        plan = conversion_plan(ps, ps)
        assert len(plan) == 1
        assert plan[0][2] == 64

    def test_ps_to_is_covers_all_records(self):
        ps = PartitionedMap(bspec(4), 64, 4)
        is_ = InterleavedMap(bspec(4), 64, 4)
        plan = conversion_plan(ps, is_)
        assert sum(count for _, _, count in plan) == 64
        # destination slots covered exactly once, in order
        dst = sorted((dst_start, count) for _, dst_start, count in plan)
        pos = 0
        for start, count in dst:
            assert start == pos
            pos += count

    def test_ps_to_is_step_granularity_is_block(self):
        ps = PartitionedMap(bspec(4), 64, 4)
        is_ = InterleavedMap(bspec(4), 64, 4)
        plan = conversion_plan(ps, is_)
        # PS physical order == global order; IS scatters blocks, so each
        # step is exactly one block of 4 records.
        assert all(count == 4 for _, _, count in plan)
        assert len(plan) == 16

    def test_s_to_ps_is_identity(self):
        """S physical order and PS physical order are both global order."""
        s = SequentialMap(bspec(4), 64, 1)
        ps = PartitionedMap(bspec(4), 64, 4)
        plan = conversion_plan(s, ps)
        assert len(plan) == 1

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            conversion_plan(
                PartitionedMap(bspec(4), 64, 4),
                PartitionedMap(bspec(4), 60, 4),
            )

    def test_dynamic_orgs_rejected(self):
        with pytest.raises(ValueError):
            conversion_plan(
                GlobalDirectMap(bspec(4), 64, 4),
                PartitionedMap(bspec(4), 64, 4),
            )

    def test_empty_file_empty_plan(self):
        plan = conversion_plan(
            PartitionedMap(bspec(4), 0, 2),
            InterleavedMap(bspec(4), 0, 2),
        )
        assert plan == []

    @settings(max_examples=40)
    @given(
        st.integers(1, 200),
        st.integers(1, 8),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_plan_is_complete_permutation(self, n, rpb, p_src, p_dst):
        src = PartitionedMap(bspec(rpb), n, p_src)
        dst = InterleavedMap(bspec(rpb), n, p_dst)
        plan = conversion_plan(src, dst)
        # Applying the plan to the source physical order yields the
        # destination physical order.
        src_order = np.concatenate(
            [src.records_of(q) for q in range(p_src)]
        )
        dst_order = np.concatenate(
            [dst.records_of(q) for q in range(p_dst)]
        )
        result = np.empty(n, dtype=np.int64)
        for src_start, dst_start, count in plan:
            result[dst_start : dst_start + count] = src_order[
                src_start : src_start + count
            ]
        assert np.array_equal(result, dst_order)
