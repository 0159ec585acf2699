"""File views: datatype-style descriptions of noncontiguous access.

The access-optimization ladder (Thakur et al., *Optimizing Noncontiguous
Accesses in MPI-IO*) starts from one observation: a noncontiguous request
should be *described as a pattern*, not materialized as a list of
per-segment operations. This module provides those patterns for record
space — the analogue of MPI derived datatypes / file views over the
paper's parallel files:

* :class:`ContiguousView` — ``count`` records from ``start``;
* :class:`StridedView` — the classic vector type: equal segments at a
  fixed stride (an IS internal view is exactly this);
* :class:`NestedStridedView` — a view replicated at an outer stride
  (nested vector types: sub-blocks of a block distribution, ghost-cell
  exclusions, ...);
* :class:`IndexedView` — an explicit list of ``(start, count)`` runs;
* :func:`view_of_map` — the internal view of one process of an
  organization map, as a view object.

A view is immutable and purely arithmetic. Its :meth:`~FileView.runs` —
maximal contiguous ``(start, count)`` record runs, ascending — is the
interchange currency: :meth:`ParallelFile.read_view
<repro.fs.pfs.ParallelFile.read_view>` feeds it to the extent-batched
list-I/O path (``read_gather`` / ``write_gather``) or to the data-sieving
planner (:mod:`repro.datatype.planner`).

Views must be *monotonic*: runs strictly ascending and non-overlapping
(the MPI-IO file-view rule). Construction validates this once and merges
adjacent runs once.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.convert import contiguous_runs
from ..core.mapping import OrganizationMap

__all__ = [
    "FileView",
    "ContiguousView",
    "StridedView",
    "NestedStridedView",
    "IndexedView",
    "view_of_map",
]


class FileView:
    """A monotonic selection of file records, described as a pattern.

    Every view is its list of ``(start, count)`` record runs, validated
    and with adjacent runs merged at construction.
    """

    def __init__(self, runs: Iterable[tuple[int, int]]):
        merged: list[tuple[int, int]] = []
        stop = None
        for start, count in runs:
            if start < 0 or count < 1:
                raise ValueError(f"invalid run ({start}, {count})")
            if stop is not None and start < stop:
                raise ValueError(
                    f"view runs must be ascending and non-overlapping: run at "
                    f"{start} begins before previous run ends at {stop}"
                )
            if start == stop:
                merged[-1] = (merged[-1][0], merged[-1][1] + count)
            else:
                merged.append((start, count))
            stop = start + count
        self._runs = merged

    def runs(self) -> list[tuple[int, int]]:
        """The selected records as maximal contiguous ``(start, count)``
        runs, ascending."""
        return list(self._runs)

    def flatten(self) -> list[tuple[int, int]]:
        """The list-I/O form of the view, suitable for
        ``read_gather``/``write_gather``: the same runs as :meth:`runs`."""
        return self.runs()

    @property
    def n_view_records(self) -> int:
        """Number of records the view selects."""
        return sum(c for _, c in self._runs)

    @property
    def extent(self) -> tuple[int, int]:
        """Half-open global record range ``[lo, hi)`` spanned by the view."""
        if not self._runs:
            return (0, 0)
        return (self._runs[0][0], sum(self._runs[-1]))

    def indices(self) -> np.ndarray:
        """All selected global record indices, ascending."""
        if not self._runs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.arange(s, s + c, dtype=np.int64) for s, c in self._runs]
        )

    def byte_ranges(self, record_size: int) -> list[tuple[int, int]]:
        """The view's runs as ``(byte_offset, nbytes)`` ranges."""
        return [(s * record_size, c * record_size) for s, c in self._runs]

    def __len__(self) -> int:
        return self.n_view_records

    def __repr__(self) -> str:
        lo, hi = self.extent
        return (
            f"<{type(self).__name__} records={self.n_view_records} "
            f"extent=[{lo}, {hi})>"
        )


class ContiguousView(FileView):
    """``count`` consecutive records starting at ``start``."""

    def __init__(self, start: int, count: int):
        super().__init__([(start, count)])


class StridedView(FileView):
    """The vector type: ``n_segments`` segments of ``seg_records`` records,
    placed ``stride`` records apart, starting at ``start``.

    ``stride >= seg_records`` is required (monotonic, non-overlapping);
    ``stride == seg_records`` degenerates to a contiguous view.
    """

    def __init__(self, start: int, n_segments: int, seg_records: int, stride: int):
        if n_segments < 1 or seg_records < 1:
            raise ValueError("n_segments and seg_records must be >= 1")
        if stride < seg_records:
            raise ValueError(
                f"stride {stride} < segment length {seg_records}: "
                "segments would overlap"
            )
        self.start = start
        self.n_segments = n_segments
        self.seg_records = seg_records
        self.stride = stride
        super().__init__(
            (start + i * stride, seg_records) for i in range(n_segments)
        )


class NestedStridedView(FileView):
    """``count`` copies of ``inner``, each shifted by a multiple of
    ``stride`` records (nested vector types).

    ``stride`` must be at least the inner view's extent span, so copies
    never interleave.
    """

    def __init__(self, inner: FileView, count: int, stride: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        lo, hi = inner.extent
        if hi == lo:
            raise ValueError("inner view selects no records")
        if stride < hi - lo:
            raise ValueError(
                f"stride {stride} < inner extent span {hi - lo}: "
                "copies would overlap"
            )
        self.inner = inner
        self.count = count
        self.stride = stride
        super().__init__(
            (s + i * stride, c) for i in range(count) for s, c in inner.runs()
        )


class IndexedView(FileView):
    """An explicit ascending list of ``(start, count)`` record runs."""

    def __init__(self, entries: Iterable[tuple[int, int]]):
        super().__init__((int(s), int(c)) for s, c in entries)

    @classmethod
    def from_indices(cls, indices: np.ndarray) -> "IndexedView":
        """A view of explicit record ``indices`` (must be ascending)."""
        arr = np.asarray(indices, dtype=np.int64)
        if arr.size and np.any(np.diff(arr) <= 0):
            raise ValueError("indices must be strictly ascending")
        return cls(contiguous_runs(arr))


def view_of_map(org_map: OrganizationMap, process: int) -> IndexedView:
    """The internal view of ``process`` under ``org_map``, as a view object.

    This is the bridge from the paper's organizations to the datatype
    layer: a PS partition becomes one contiguous run, an IS partition a
    strided run list — and either feeds the same optimized access paths.
    """
    return IndexedView(org_map.runs(process, 0, org_map.n_local_records(process)))
