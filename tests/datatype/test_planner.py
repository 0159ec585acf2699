"""Unit tests for the shared request planner (repro.datatype.planner)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatype import (
    IndexedView,
    StridedView,
    check_view_runs,
    plan_view_read,
    plan_view_write,
    sieved_read,
    sieved_write,
)


def runs_of(view):
    return view.flatten()


def drive(plan, media):
    """Run a sieve plan over the in-memory record array ``media``;
    returns the plan's value and the intent names it yielded."""
    reply, ops = None, []
    try:
        while True:
            intent = plan.send(reply)
            ops.append(intent[0])
            match intent:
                case ("read", start, count):
                    reply = media[start : start + count].copy()
                case ("gather", runs):
                    reply = np.concatenate([media[s : s + c] for s, c in runs])
                case ("write", start, rows):
                    media[start : start + len(rows)] = rows
                    reply = len(rows)
                case ("rmw", start, count, patch):
                    media[start : start + count] = patch(media[start : start + count].copy())
                    reply = count
    except StopIteration as done:
        return done.value, ops


class TestCheckViewRuns:
    def test_in_bounds(self):
        v = StridedView(0, 3, 2, 4)
        assert len(check_view_runs(v, 12)) == 3

    def test_out_of_bounds_raises(self):
        v = StridedView(0, 3, 2, 4)
        with pytest.raises(ValueError, match="outside file"):
            check_view_runs(v, 9)

    def test_empty_view(self):
        assert check_view_runs(IndexedView(()), 4) == []


class TestReadPlan:
    def test_empty(self):
        assert plan_view_read([]).mode == "empty"

    def test_single_run_contiguous_even_with_sieve(self):
        runs = runs_of(StridedView(0, 1, 8, 8))
        assert plan_view_read(runs).mode == "contiguous"
        assert plan_view_read(runs, sieve=True).mode == "contiguous"

    def test_multi_run_list_without_sieve(self):
        runs = runs_of(StridedView(0, 4, 2, 8))
        assert plan_view_read(runs).mode == "list"

    def test_multi_run_sieved(self):
        runs = runs_of(StridedView(0, 4, 2, 4))
        plan = plan_view_read(runs, 16, sieve=True)
        assert plan.mode == "sieved"
        assert plan.covering  # dense pattern coalesces
        assert plan.n_view_records == 8

    def test_split_and_scatter_reassemble_view_order(self):
        runs = runs_of(StridedView(0, 3, 2, 4))  # records 0,1 4,5 8,9
        plan = plan_view_read(runs, 1, sieve=True)
        assert plan.mode == "sieved"
        # serve the covering reads from a known media image
        media = np.arange(12, dtype=np.int64).reshape(-1, 1) * 10
        out, _ = drive(sieved_read(plan), media)
        want = media[[0, 1, 4, 5, 8, 9]]
        assert np.array_equal(out, want)


class TestWritePlan:
    def test_modes(self):
        assert plan_view_write([]).mode == "empty"
        one = runs_of(StridedView(3, 1, 5, 5))
        assert plan_view_write(one).mode == "contiguous"
        assert plan_view_write(one, sieve=True).mode == "contiguous"
        many = runs_of(StridedView(0, 4, 2, 8))
        assert plan_view_write(many).mode == "list"
        assert plan_view_write(many, 16, sieve=True).mode == "sieved"

    def test_row_of_is_view_order(self):
        runs = runs_of(StridedView(2, 3, 2, 5))  # 2,3 7,8 12,13
        plan = plan_view_write(runs, sieve=True, sieve_factor=1.0)
        rows = np.arange(6).reshape(-1, 1)
        writes = [(start, int(r[0, 0])) for _, start, r in sieved_write(plan, rows)]
        assert writes == [(2, 0), (7, 2), (12, 4)]

    def test_overlay_patches_only_the_pieces(self):
        runs = runs_of(StridedView(0, 2, 2, 4))  # records 0,1 4,5
        plan = plan_view_write(runs, 1, sieve=True)
        assert plan.mode == "sieved"
        (window, pieces), = plan.windows
        decoded = np.arange(4, dtype=np.int64).reshape(-1, 1) + 100
        (op, start, count, patch), = sieved_write(plan, decoded)
        assert (op, start, count) == ("rmw", *window)
        buf = np.full((window[1], 1), -1, dtype=np.int64)
        out = patch(buf)
        # wanted rows replaced, hole rows (2,3) untouched
        assert out[0, 0] == 100 and out[1, 0] == 101
        assert out[2, 0] == -1 and out[3, 0] == -1
        assert out[4, 0] == 102 and out[5, 0] == 103
        # and the original buffer is not mutated
        assert np.all(buf == -1)

    def test_whole_window_fast_path(self):
        # two adjacent runs coalesce into one fully-covered window: a
        # plain write, no read-modify-write
        plan = plan_view_write([(0, 4), (4, 4)], 1, sieve=True)
        assert plan.mode == "sieved"
        media = np.zeros((8, 1), dtype=np.int64)
        rows = np.arange(8, dtype=np.int64).reshape(-1, 1) + 1
        assert drive(sieved_write(plan, rows), media) == (8, ["write"])
        assert np.array_equal(media, rows)


def start_count(run):
    """``(start, count)`` of a planned extent, read positionally."""
    fields = dataclasses.astuple(run) if dataclasses.is_dataclass(run) else run
    start, count = fields
    return int(start), int(count)


@st.composite
def sieve_cases(draw):
    """Ascending, non-overlapping record runs (adjacent ones allowed) and
    the sieve knobs: a factor in [1, 8], a small byte window, a record size."""
    runs, pos = [], draw(st.integers(0, 4))
    for _ in range(draw(st.integers(1, 8))):
        count = draw(st.integers(1, 5))
        runs.append((pos, count))
        pos += count + draw(st.integers(0, 6))
    return (
        runs,
        pos + draw(st.integers(0, 3)),
        draw(st.floats(1.0, 8.0)),
        draw(st.integers(1, 64)),
        draw(st.sampled_from([1, 2, 4, 8])),
    )


class TestSievePlanProperties:
    """Sieved reads and RMW writes against direct fancy indexing."""

    @staticmethod
    def check_extent(start, count, runs, indices, factor, window_records):
        """The runs inside one extent are whole; wanted + waste == covered;
        an extent spanning holes respects both sieve bounds."""
        inside = [(s, c) for s, c in runs if start <= s < start + count]
        assert all(s + c <= start + count for s, c in inside)
        wanted = sum(c for _, c in inside)
        covered = np.arange(start, start + count)
        waste = int((~np.isin(covered, indices)).sum())
        assert wanted + waste == count
        assert wanted >= 1
        assert count <= factor * wanted
        if len(inside) > 1 or waste:
            assert count <= window_records
        return inside

    @given(sieve_cases())
    @settings(max_examples=200, deadline=None)
    def test_sieved_read_equals_fancy_index(self, case):
        runs, n, factor, window, record_size = case
        view = IndexedView(runs)
        media = np.arange(n * 2, dtype=np.int64).reshape(n, 2)
        plan = plan_view_read(
            check_view_runs(view, n), record_size, sieve=True,
            sieve_factor=factor, sieve_window=window,
        )
        if plan.mode != "sieved":
            assert plan.mode == "contiguous" and len(view.flatten()) == 1
            return
        flat = [start_count(r) for r in view.flatten()]
        extents = [start_count(c) for c in plan.covering]
        window_records = max(1, window // record_size)
        seen = []
        for start, count in extents:
            seen += self.check_extent(
                start, count, flat, view.indices(), factor, window_records
            )
        assert seen == flat
        out, _ = drive(sieved_read(plan), media)
        assert np.array_equal(out, media[view.indices()])

    @given(sieve_cases())
    @settings(max_examples=200, deadline=None)
    def test_rmw_overlay_equals_direct_assignment(self, case):
        runs, n, factor, window, record_size = case
        view = IndexedView(runs)
        media = np.arange(n * 2, dtype=np.int64).reshape(n, 2)
        rows = -1 - np.arange(len(view) * 2, dtype=np.int64).reshape(-1, 2)
        plan = plan_view_write(
            check_view_runs(view, n), record_size, sieve=True,
            sieve_factor=factor, sieve_window=window,
        )
        if plan.mode != "sieved":
            assert plan.mode == "contiguous" and len(view.flatten()) == 1
            return
        flat = [start_count(r) for r in view.flatten()]
        window_records = max(1, window // record_size)
        seen = []
        for win, pieces in plan.windows:
            start, count = start_count(win)
            inside = self.check_extent(
                start, count, flat, view.indices(), factor, window_records
            )
            assert [start_count(p) for p in pieces] == inside
            seen += inside
        assert seen == flat
        got = media.copy()
        assert drive(sieved_write(plan, rows), got)[0] == len(view)
        want = media.copy()
        want[view.indices()] = rows
        assert np.array_equal(got, want)
