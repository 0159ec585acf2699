"""Hyperslab lowering: multidimensional selections as file views.

The Parallel netCDF lineage (PAPERS.md) puts a typed, self-describing
array interface above the byte-range machinery: applications ask for a
*hyperslab* — per-dimension ``(start, count)`` of a row-major array —
and the library compiles that request into the datatype layer's view
patterns (:class:`~repro.datatype.views.StridedView` /
:class:`~repro.datatype.views.NestedStridedView` /
:class:`~repro.datatype.views.IndexedView`), which then ride the
existing list-I/O, data-sieving, and two-phase collective paths.

This module is the pure arithmetic half: validation with clear
:class:`~repro.core.errors.OrganizationError` messages, the slab →
view compilation, and the element-index expansion used by per-element
oracles and collective index lists. Nothing here touches an engine or a
file descriptor, so the same functions serve the simulated and the live
backend (``repro.dataset`` builds on both).

Units: a slab selects *elements* of a variable. ``slab_to_view`` maps
element ``e`` to ``scale`` consecutive records starting at
``base + e * scale`` — with ``scale`` the element size in records, the
returned view is directly executable against the backing file (a
container's 1-byte-record file uses ``scale = dtype.itemsize``).
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from ..core.errors import OrganizationError
from .views import (
    ContiguousView,
    FileView,
    IndexedView,
    NestedStridedView,
    StridedView,
)

__all__ = [
    "validate_slab",
    "slab_shape",
    "slab_size",
    "slab_to_view",
    "slab_indices",
]


def validate_slab(
    shape: Sequence[int],
    start: Sequence[int],
    count: Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Check a hyperslab against a row-major array ``shape``.

    Returns the normalized ``(start, count)`` int tuples. Raises
    :class:`OrganizationError` naming the offending dimension for rank
    mismatches, negative starts or counts, and out-of-bounds selections
    (including integer overflow past the dimension extent). Zero counts
    are legal: they select the empty slab.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise OrganizationError(f"variable shape {shape} has a negative extent")
    try:
        start = tuple(int(s) for s in start)
        count = tuple(int(c) for c in count)
    except (TypeError, ValueError) as exc:
        raise OrganizationError(f"slab indices must be integers: {exc}") from None
    if len(start) != len(shape) or len(count) != len(shape):
        raise OrganizationError(
            f"slab rank mismatch: variable has {len(shape)} dimensions, "
            f"start has {len(start)} and count has {len(count)}"
        )
    for d, (ext, s, c) in enumerate(zip(shape, start, count)):
        if s < 0:
            raise OrganizationError(
                f"dimension {d}: start {s} is negative"
            )
        if c < 0:
            raise OrganizationError(
                f"dimension {d}: count {c} is negative"
            )
        if s + c > ext:
            raise OrganizationError(
                f"dimension {d}: slab [{s}, {s + c}) outside extent {ext}"
            )
    return start, count


def slab_shape(count: Sequence[int]) -> tuple[int, ...]:
    """The shape of the array a slab selects (its ``count`` tuple)."""
    return tuple(int(c) for c in count)


def slab_size(count: Sequence[int]) -> int:
    """Number of elements a slab selects (0 if any count is 0)."""
    out = 1
    for c in count:
        out *= int(c)
    return out


def _strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major element strides of ``shape``."""
    out = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        out[d] = out[d + 1] * shape[d + 1]
    return tuple(out)


def slab_to_view(
    shape: Sequence[int],
    start: Sequence[int],
    count: Sequence[int],
    *,
    base: int = 0,
    scale: int = 1,
) -> FileView:
    """Compile a hyperslab into the cheapest matching file view.

    The contiguous tail of fully selected dimensions folds into one run;
    the next partial dimension becomes a :class:`StridedView`; every
    further partial dimension wraps a :class:`NestedStridedView` around
    it. Degenerate slabs compile to what they are: a full-extent slab is
    one :class:`ContiguousView`, a size-0 slab an empty
    :class:`IndexedView`.

    ``base`` and ``scale`` place the slab in file-record space: element
    ``e`` occupies records ``[base + e*scale, base + (e+1)*scale)``.
    """
    start, count = validate_slab(shape, start, count)
    shape = tuple(int(s) for s in shape)
    if scale < 1:
        raise OrganizationError(f"scale must be >= 1, got {scale}")
    if base < 0:
        raise OrganizationError(f"base must be >= 0, got {base}")
    if slab_size(count) == 0:
        return IndexedView(())
    n = len(shape)
    if n == 0:
        return ContiguousView(base, scale)
    strides = _strides(shape)
    # k: outermost dimension of the contiguous tail — every dimension
    # after k is fully selected, so dim k's range is one run of
    # count[k] * strides[k] elements
    k = n - 1
    while k > 0 and start[k] == 0 and count[k] == shape[k]:
        k -= 1
    chunk = count[k] * strides[k]
    offset0 = sum(s * st for s, st in zip(start, strides))
    view: FileView = ContiguousView(base + offset0 * scale, chunk * scale)
    for d in range(k - 1, -1, -1):
        if count[d] == 1:
            continue
        if isinstance(view, ContiguousView):
            first, n = view.runs()[0]
            view = StridedView(first, count[d], n, strides[d] * scale)
        else:
            view = NestedStridedView(view, count[d], strides[d] * scale)
    return view


def slab_indices(
    shape: Sequence[int],
    start: Sequence[int],
    count: Sequence[int],
) -> np.ndarray:
    """Every element's linear (row-major) index, in slab order.

    Slab order for a row-major array is ascending, so this is also the
    file order — the per-element oracle and the collective explicit
    ``indices=`` argument both consume it directly.
    """
    start, count = validate_slab(shape, start, count)
    shape = tuple(int(s) for s in shape)
    if slab_size(count) == 0:
        return np.empty(0, dtype=np.int64)
    if len(shape) == 0:
        return np.zeros(1, dtype=np.int64)
    strides = _strides(shape)
    axes = [
        (int(s) + np.arange(int(c), dtype=np.int64)) * st
        for s, c, st in zip(start, count, strides)
    ]
    return reduce(np.add.outer, axes).reshape(-1)
