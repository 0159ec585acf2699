"""Internal-view mismatch analysis and conversion planning (§5, problem 1).

    "A serious mismatch occurs, for example, if a file created with a PS
    organization needs to be read later with an IS format. One alternative
    would be to select one organization or the other and then provide a
    software interface to present the alternate view when needed, but with
    degraded performance. ... A third possibility is to supply conversion
    utilities to copy from one format to the other, but this could be
    expensive for large files."

This module provides the pure planning layer:

* :func:`contiguous_runs` — compress a record access sequence into maximal
  contiguous ``(start, count)`` runs. Runs are the currency of cost: each
  run is one sequential transfer; run boundaries are seeks.
* :func:`alternate_view_runs` — the per-process run structure when a file
  laid out for organization A is *accessed through* organization B's
  internal view (the degraded software-interface option).
* :func:`conversion_plan` — the copy plan (``(src_start, dst_start,
  count)`` steps) for physically converting a file from one organization
  to another.

The executable halves (actually moving bytes, measuring times) live in
``repro.fs.convert`` and benchmark E10.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .mapping import OrganizationMap

__all__ = ["contiguous_runs", "alternate_view_runs", "conversion_plan"]


def contiguous_runs(records: np.ndarray) -> list[tuple[int, int]]:
    """Maximal contiguous ascending ``(start, count)`` runs in an access
    sequence.

    >>> contiguous_runs(np.array([4, 5, 6, 10, 11, 2]))
    [(4, 3), (10, 2), (2, 1)]
    """
    records = np.asarray(records, dtype=np.int64)
    if records.size == 0:
        return []
    breaks = np.nonzero(np.diff(records) != 1)[0] + 1
    starts = np.concatenate(([0], breaks))
    stops = np.concatenate((breaks, [records.size]))
    return [(int(records[a]), int(b - a)) for a, b in zip(starts, stops)]


def alternate_view_runs(
    desired: OrganizationMap, process: int
) -> list[tuple[int, int]]:
    """Run structure of ``process``'s accesses under the *desired* view.

    When the file's physical layout matches the desired organization, each
    process's accesses are few long runs (PS: exactly one run). When it
    does not — e.g. the file is stored globally-contiguous (any sequential
    organization's global view) but consumed with an IS internal view —
    the desired sequence fragments into many short runs, each paying a
    seek. The run count is therefore the degradation metric benchmark E10
    reports.
    """
    return contiguous_runs(desired.records_of(process))


def conversion_plan(
    src: OrganizationMap, dst: OrganizationMap
) -> list[tuple[int, int, int]]:
    """Plan a physical conversion between two static organizations.

    Both maps must describe the same record population. The physical
    record order of a static organization is the concatenation of each
    process's access sequence (process 0's records, then process 1's...),
    which is how the clustered/interleaved layouts place data on devices.
    The plan copies between the two orderings in maximal contiguous
    ``(src_start, dst_start, count)`` steps, positions in the two
    physical orders; ``len(plan)`` is the number of distinct transfers
    (seek cost) and the summed counts always equal ``n_records``.
    """
    if src.n_records != dst.n_records:
        raise ValueError(
            f"record count mismatch: src {src.n_records} vs dst {dst.n_records}"
        )
    if not (src.is_static and dst.is_static):
        raise ValueError("conversion planning requires static organizations")

    def physical_order(m: OrganizationMap) -> np.ndarray:
        if m.n_records == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [m.records_of(p) for p in range(m.n_processes)]
        )

    src_order = physical_order(src)   # physical slot -> global record
    dst_order = physical_order(dst)

    # position of each global record in the source physical order
    src_pos = np.empty(src.n_records, dtype=np.int64)
    src_pos[src_order] = np.arange(src.n_records)

    # for each destination slot, the source slot it reads from
    src_slot_for_dst = src_pos[dst_order]

    steps: list[tuple[int, int, int]] = []
    i = 0
    n = len(src_slot_for_dst)
    while i < n:
        j = i + 1
        while j < n and src_slot_for_dst[j] == src_slot_for_dst[j - 1] + 1:
            j += 1
        steps.append((int(src_slot_for_dst[i]), i, j - i))
        i = j
    return steps
