"""Plan oracle: the closed-form planner against the unit-by-unit one.

:func:`repro.storage.layout.plan_batch` computes a submission's device
requests per range with arithmetic on the first and last stripe unit.
The reference here is what it replaced — ``map_range`` producing one
:class:`Segment` per unit, then the segment-list merge loop — kept as the
oracle: for any layout and any list of ranges the request list, *in
order*, and the payload pieces of every request must be equal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.layout import (
    ClusteredLayout,
    InterleavedLayout,
    Segment,
    StripedLayout,
    plan_batch,
)


def reference_plan(layout, ranges, coalesce):
    """``(requests, pieces)`` the old way: every unit visited, segments of
    one device merged when contiguous with that device's latest run."""
    segments = [seg for offset, n in ranges for seg in layout.map_range(offset, n)]
    merged: list[Segment] = []
    scatter: list[list[tuple[int, int]]] = []
    last_on_device: dict[int, int] = {}
    pos = 0
    for seg in segments:
        i = last_on_device.get(seg.device) if coalesce else None
        if i is not None:
            prev = merged[i]
            if seg.offset == prev.offset + prev.length:
                merged[i] = Segment(prev.device, prev.offset, prev.length + seg.length)
                scatter[i].append((pos, seg.length))
                pos += seg.length
                continue
        merged.append(seg)
        scatter.append([(pos, seg.length)])
        last_on_device[seg.device] = len(merged) - 1
        pos += seg.length
    return [(m.device, m.offset, m.length) for m in merged], scatter


def expand(n, pieces):
    """An ``n``-byte request's pieces, one ``(position, length)`` each: from
    the bare payload position of a one-piece request, or from its
    ``(position, length, count, stride)`` groups."""
    if not isinstance(pieces, list):
        return [(pieces, n)]
    return [
        (pos + i * stride, length)
        for pos, length, count, stride in pieces
        for i in range(count)
    ]


@st.composite
def layout_and_ranges(draw):
    n_devices = draw(st.integers(1, 6))
    unit = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["striped", "interleaved", "clustered"]))
    if kind == "clustered":
        parts = draw(st.lists(st.integers(0, 3 * unit), min_size=1, max_size=9))
        layout = ClusteredLayout(n_devices, parts)
        file_bytes = layout.total_bytes
    else:
        cls = StripedLayout if kind == "striped" else InterleavedLayout
        layout = cls(n_devices, unit)
        file_bytes = draw(st.integers(1, 40 * unit))
    ranges = []
    for _ in range(draw(st.integers(1, 8))):
        if ranges and draw(st.booleans()):
            # adjacent to the previous range, or one stripe round after it:
            # the cases that merge across range boundaries
            prev_end = ranges[-1][0] + ranges[-1][1]
            offset = prev_end + draw(st.sampled_from([0, unit * (n_devices - 1)]))
            offset = min(offset, file_bytes)
        else:
            offset = draw(st.integers(0, file_bytes))
        length = draw(st.integers(0, file_bytes - offset))
        if draw(st.integers(0, 3)) == 0:
            length = min(length, unit)
        ranges.append((offset, length))
    return layout, ranges


@settings(max_examples=400, deadline=None)
@given(layout_and_ranges(), st.booleans())
def test_plan_equals_unit_by_unit_reference(case, coalesce):
    layout, ranges = case
    plan = plan_batch(layout, ranges, coalesce=coalesce)
    requests, pieces = reference_plan(layout, ranges, coalesce)
    assert [(dev, off, n) for dev, off, n, _ in plan.requests] == requests
    assert [expand(n, p) for _, _, n, p in plan.requests] == pieces
    assert plan.nbytes == sum(n for _, n in ranges)


@settings(max_examples=200, deadline=None)
@given(layout_and_ranges(), st.booleans())
def test_gather_then_scatter_round_trips_the_payload(case, coalesce):
    layout, ranges = case
    plan = plan_batch(layout, ranges, coalesce=coalesce)
    payload = (np.arange(plan.nbytes) * 7 % 251).astype(np.uint8)
    chunks = plan.payloads(payload)
    assert [c.size for c in chunks] == [n for _, _, n, _ in plan.requests]
    np.testing.assert_array_equal(plan.assemble(chunks), payload)
    # the gathered chunks are what the per-unit reference would have sent
    _, pieces = reference_plan(layout, ranges, coalesce)
    for chunk, ref in zip(chunks, pieces):
        np.testing.assert_array_equal(
            chunk, np.concatenate([payload[p : p + n] for p, n in ref])
        )


def test_strided_payload_is_gathered_correctly():
    # a payload that is itself a strided view (every other byte of a buffer)
    layout = StripedLayout(2, 4)
    backing = np.arange(64, dtype=np.uint8)
    payload = backing[::2]
    plan = plan_batch(layout, [(0, 32)], coalesce=True)
    assert [r[:3] for r in plan.requests] == [(0, 0, 16), (1, 0, 16)]
    got = plan.payloads(payload)
    np.testing.assert_array_equal(got[0], payload.reshape(4, 2, 4)[:, 0].reshape(-1))
    np.testing.assert_array_equal(got[1], payload.reshape(4, 2, 4)[:, 1].reshape(-1))
