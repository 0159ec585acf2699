"""Plan oracle: the closed-form planner against the unit-by-unit one.

:func:`repro.storage.layout.plan_batch` computes a submission's device
requests per range with arithmetic on the first and last stripe unit.
The reference here is what it replaced — a per-unit mapping producing one
``(device, offset, length)`` segment per stripe unit or partition, then
the segment-list merge loop — kept as the oracle: for any layout and any
list of ranges the request list, *in order*, and the payload pieces of
every request must be equal.
"""

from bisect import bisect_right
from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.layout import (
    ClusteredLayout,
    InterleavedLayout,
    StripedLayout,
    plan_batch,
)


def unit_segments(layout, offset, length):
    """``(device, device_offset, length)`` of every stripe unit or partition
    that file bytes ``[offset, offset + length)`` touch, in file order,
    visited one at a time. Striping puts unit ``u`` on device ``u % D`` at
    ``(u // D) * su``; clustering stacks partition ``p`` on device
    ``p % D`` after that device's earlier partitions."""
    if offset < 0 or length < 0:
        raise ValueError(f"invalid range ({offset}, {length})")
    pos, end, d = offset, offset + length, layout.n_devices
    segments = []
    if isinstance(layout, ClusteredLayout):
        parts = layout.partition_bytes
        starts = list(accumulate(parts, initial=0))
        if end > starts[-1]:
            raise ValueError(f"range ends at byte {end}, past the file")
        fill, base = [0] * d, []
        for p, nbytes in enumerate(parts):
            base.append(fill[p % d])
            fill[p % d] += nbytes
        while pos < end:
            # bisect skips the zero-length partitions starting at pos
            p = bisect_right(starts, pos) - 1
            take = min(starts[p + 1], end) - pos
            segments.append((p % d, base[p] + pos - starts[p], take))
            pos += take
        return segments
    su = layout.stripe_unit
    while pos < end:
        unit, within = divmod(pos, su)
        take = min(su - within, end - pos)
        segments.append((unit % d, unit // d * su + within, take))
        pos += take
    return segments


def reference_plan(layout, ranges, coalesce):
    """``(requests, pieces)`` the old way: every unit visited, segments of
    one device merged when contiguous with that device's latest run."""
    segments = [seg for offset, n in ranges for seg in unit_segments(layout, offset, n)]
    merged: list[tuple[int, int, int]] = []
    scatter: list[list[tuple[int, int]]] = []
    last_on_device: dict[int, int] = {}
    pos = 0
    for dev, off, n in segments:
        i = last_on_device.get(dev) if coalesce else None
        if i is not None:
            _, prev_off, prev_n = merged[i]
            if off == prev_off + prev_n:
                merged[i] = (dev, prev_off, prev_n + n)
                scatter[i].append((pos, n))
                pos += n
                continue
        merged.append((dev, off, n))
        scatter.append([(pos, n)])
        last_on_device[dev] = len(merged) - 1
        pos += n
    return merged, scatter


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
