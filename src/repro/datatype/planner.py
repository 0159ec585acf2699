"""The shared request planner: one slab-lowering core for both backends.

The simulator (``repro.fs``), the live backend (``repro.live``) and the
dataset layer (``repro.dataset``) take their view I/O decisions from
these pure functions over ``(start, count)`` record runs:

* :func:`check_view_runs` — a view's runs, bounds-checked against a
  file's record count;
* :func:`plan_view_read` — decide the access mode (empty / contiguous /
  list I/O / sieved) and, for sieving, the covering extents;
* :func:`plan_view_write` — the write-side dual: mode plus RMW windows
  and the pieces each one overlays;
* :func:`prepare_view_read` / :func:`prepare_view_write` — the check and
  plan (for writes, the value count check too) that both backends'
  ``read_view``/``write_view`` run before their I/O;
* :func:`sieved_read` / :func:`sieved_write` — the sieved modes as
  sans-I/O generator plans, like :func:`repro.container.codec.walk_toc`.

The sieve arithmetic is the I/O-node aggregator's
(:mod:`repro.ionode.aggregator`): the ``plan_reads`` / ``plan_rmw`` logic
Crockett's dedicated I/O processors apply to *batches of requests*
applies unchanged to one client's *noncontiguous pattern*, counted in
records instead of bytes. Only ``sieve_window`` stays byte-denominated
(it bounds a real buffer) and is converted with the record size.

A plan yields I/O *intents*, each sent back its reply:

* ``("read", start, count)`` — the ``count`` records at ``start``;
* ``("gather", runs)`` — the runs' records, concatenated;
* ``("write", start, rows)`` — the record count written;
* ``("rmw", start, count, patch)`` — the record count: the window's
  records are read and ``patch(buf)`` written back under the file's
  sieve lock, because an RMW window rewrites *hole* records it only read.

Each backend has one driver that answers these intents for every plan
(sieve, container and dataset): ``ParallelFile.run_plan`` in simulated
time, ``LiveParallelFile.run_plan`` with ``os.pread``/``os.pwrite``.
Neither re-derives a planning decision — both run the same generator,
which is what the backend parity and dataset identity tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ionode.aggregator import (
    DEFAULT_SIEVE_FACTOR,
    DEFAULT_SIEVE_WINDOW,
    plan_reads,
    plan_rmw,
)
from .views import FileView

__all__ = [
    "check_view_runs",
    "ViewReadPlan",
    "ViewWritePlan",
    "plan_view_read",
    "plan_view_write",
    "prepare_view_read",
    "prepare_view_write",
    "sieved_read",
    "sieved_write",
]

#: access modes shared by the read and write plans
MODE_EMPTY = "empty"            # the view selects nothing
MODE_CONTIGUOUS = "contiguous"  # one run: a single positioned transfer
MODE_LIST = "list"              # many runs: one list-I/O submission
MODE_SIEVED = "sieved"          # covering extents (read) / RMW windows (write)


def check_view_runs(view: FileView, n_records: int) -> list[tuple[int, int]]:
    """``view``'s runs, bounds-checked against ``n_records``.

    Returns the maximal contiguous ``(start, count)`` record runs; raises
    ``ValueError`` (the historical :meth:`ParallelFile.read_view`
    contract) when the view extends past the file.
    """
    lo, hi = view.extent
    if hi > n_records:
        raise ValueError(
            f"view extent [{lo}, {hi}) outside file of {n_records} records"
        )
    return view.runs()


def _window_records(sieve_window: int, record_size: int) -> int:
    """The byte-denominated ``sieve_window`` in whole records (at least one)."""
    if sieve_window < 1:
        raise ValueError("sieve_window must be >= 1 byte")
    return max(1, sieve_window // record_size)


@dataclass(frozen=True)
class ViewReadPlan:
    """How to read a view: the mode, and the sieve geometry if any.

    ``covering`` holds the covering extents of a sieved read as
    ``(start, count)`` record runs (see :func:`sieved_read`).
    """

    mode: str
    runs: tuple[tuple[int, int], ...]
    covering: tuple[tuple[int, int], ...] = ()

    @property
    def n_view_records(self) -> int:
        return sum(c for _, c in self.runs)


@dataclass(frozen=True)
class ViewWritePlan:
    """How to write a view: the mode, and the RMW windows if sieved.

    ``windows`` is a tuple of ``(window, pieces)`` pairs of
    ``(start, count)`` record runs (see
    :func:`repro.ionode.aggregator.plan_rmw` and :func:`sieved_write`).
    """

    mode: str
    runs: tuple[tuple[int, int], ...]
    windows: tuple = ()

    @property
    def n_view_records(self) -> int:
        return sum(c for _, c in self.runs)


def sieved_read(plan: ViewReadPlan):
    """Generator plan: a sieved view read; returns the view's records in
    view order.

    One covering extent is one ``read`` intent, several are one ``gather``;
    the wanted runs are then sliced out of the covering records.
    """
    covering = plan.covering
    if len(covering) == 1:
        start, count = covering[0]
        cat = yield "read", start, count
    else:
        cat = yield "gather", covering
    out = np.empty((plan.n_view_records,) + cat.shape[1:], dtype=cat.dtype)
    ci = base = pos = 0
    for start, count in plan.runs:
        while start >= sum(covering[ci]):
            base += covering[ci][1]
            ci += 1
        at = base + start - covering[ci][0]
        out[pos : pos + count] = cat[at : at + count]
        pos += count
    return out


def sieved_write(plan: ViewWritePlan, rows: np.ndarray):
    """Generator plan: a sieved view write of ``rows`` (view order);
    returns the view's record count.

    A window its pieces cover exactly is a plain ``write``; any other
    window is an ``rmw`` whose patch overlays the pieces' rows on a copy
    of the window's current records, leaving the holes as read.
    """
    row_of, pos = {}, 0
    for start, count in plan.runs:
        row_of[start] = pos
        pos += count
    for (first, count), pieces in plan.windows:
        if len(pieces) == 1 and pieces[0] == (first, count):
            yield "write", first, rows[row_of[first] : row_of[first] + count]
            continue

        def patch(buf: np.ndarray, first=first, pieces=pieces) -> np.ndarray:
            out = np.array(buf, copy=True)
            for start, n in pieces:
                row = row_of[start]
                out[start - first : start - first + n] = rows[row : row + n]
            return out

        yield "rmw", first, count, patch
    return plan.n_view_records


def plan_view_read(
    runs: Sequence[tuple[int, int]],
    record_size: int = 1,
    *,
    sieve: bool = False,
    sieve_factor: float = DEFAULT_SIEVE_FACTOR,
    sieve_window: int = DEFAULT_SIEVE_WINDOW,
) -> ViewReadPlan:
    """Plan a view read over a view's ``(start, count)`` record ``runs``.

    Single-run views are one contiguous transfer regardless of ``sieve``;
    multi-run views become list I/O, or covering-extent sieved reads when
    ``sieve`` is set (``sieve_window`` stays byte-denominated and is
    converted with ``record_size``).
    """
    runs = tuple(runs)
    if not runs:
        return ViewReadPlan(MODE_EMPTY, runs)
    if len(runs) == 1:
        return ViewReadPlan(MODE_CONTIGUOUS, runs)
    if not sieve:
        return ViewReadPlan(MODE_LIST, runs)
    plan = plan_reads(
        runs, sieve=True, sieve_factor=sieve_factor,
        sieve_window=_window_records(sieve_window, record_size),
    )
    return ViewReadPlan(MODE_SIEVED, runs, covering=plan.reads)


def plan_view_write(
    runs: Sequence[tuple[int, int]],
    record_size: int = 1,
    *,
    sieve: bool = False,
    sieve_factor: float = DEFAULT_SIEVE_FACTOR,
    sieve_window: int = DEFAULT_SIEVE_WINDOW,
) -> ViewWritePlan:
    """Plan a view write over a view's record ``runs`` (see
    :func:`plan_view_read`; sieved writes become RMW windows)."""
    runs = tuple(runs)
    if not runs:
        return ViewWritePlan(MODE_EMPTY, runs)
    if len(runs) == 1:
        return ViewWritePlan(MODE_CONTIGUOUS, runs)
    if not sieve:
        return ViewWritePlan(MODE_LIST, runs)
    windows = plan_rmw(
        runs, sieve_factor=sieve_factor,
        sieve_window=_window_records(sieve_window, record_size),
    )
    return ViewWritePlan(MODE_SIEVED, runs, windows=tuple(windows))


def prepare_view_read(view: FileView, n_records: int, record_size: int, **sieve) -> ViewReadPlan:
    """The read plan of ``view`` on a file of ``n_records`` records: the
    one view-preparation step both backends run before their I/O
    (``sieve`` takes :func:`plan_view_read`'s keywords)."""
    return plan_view_read(check_view_runs(view, n_records), record_size, **sieve)


def prepare_view_write(
    view: FileView, n_records: int, spec, values, **sieve
) -> tuple[ViewWritePlan, np.ndarray]:
    """``(plan, rows)`` of a view write: the plan of ``view`` on a file of
    ``n_records`` records, and ``values`` decoded through the record
    ``spec``; raises ``ValueError`` unless the values fill the view."""
    runs = check_view_runs(view, n_records)
    raw = spec.encode(values)
    plan = plan_view_write(runs, spec.record_size, **sieve)
    count = raw.size // spec.record_size
    if count != plan.n_view_records:
        raise ValueError(
            f"view selects {plan.n_view_records} records, values encode to {count}"
        )
    return plan, spec.decode(raw)
