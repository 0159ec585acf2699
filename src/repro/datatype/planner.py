"""The shared request planner: one slab-lowering core for both backends.

Before this module, the executable half of the datatype layer lived only
on the simulator's :class:`~repro.fs.pfs.ParallelFile` — view flattening,
covering-extent read planning, scatter, and read-modify-write window
packing were welded to simulated processes. The live backend
(``repro.live``) and the dataset layer (``repro.dataset``) need the same
decisions against real file descriptors, so the planning now lives here
as pure functions over ``(start, count)`` record runs:

* :func:`check_view_runs` — a view's runs, bounds-checked against a
  file's record count;
* :func:`plan_view_read` — decide the access mode (empty / contiguous /
  list I/O / sieved) and, for sieving, the covering extents plus the
  scatter map back to view order;
* :func:`plan_view_write` — the write-side dual: mode plus RMW windows,
  each with its overlay recipe and the view-order row offsets;
* :func:`prepare_view_read` / :func:`prepare_view_write` — the check and
  plan (for writes, the value count check too) that both backends'
  ``read_view``/``write_view`` run before their I/O.

The sieve arithmetic is the I/O-node aggregator's
(:mod:`repro.ionode.aggregator`): the ``plan_reads`` / ``plan_rmw`` logic
Crockett's dedicated I/O processors apply to *batches of requests*
applies unchanged to one client's *noncontiguous pattern*, counted in
records instead of bytes. Only ``sieve_window`` stays byte-denominated
(it bounds a real buffer) and is converted with the record size.

Executors differ only in *how* they move bytes: the simulator yields
device processes, the live backend calls ``os.pread``/``os.pwrite``.
Neither re-derives a single planning decision — that is the invariant
the dataset identity tests pin (sim and live media bytes agree because
both executed the same plan). An RMW window rewrites *hole* records it
only read, so both executors serialize windows through a per-file sieve
lock.
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
    ``(start, count)`` record runs. The executor reads each covering
    extent, then calls :meth:`scatter` to assemble the wanted records in
    view order.
    """

    mode: str
    runs: tuple[tuple[int, int], ...]
    covering: tuple[tuple[int, int], ...] = ()

    @property
    def n_view_records(self) -> int:
        return sum(c for _, c in self.runs)

    def split(self, cat: np.ndarray) -> list[np.ndarray]:
        """Slice one concatenated covering-extent read back into
        per-extent record arrays (list-I/O executors return the
        extents' records concatenated in submission order)."""
        out, pos = [], 0
        for _, n in self.covering:
            out.append(cat[pos : pos + n])
            pos += n
        return out

    def scatter(self, datas: Sequence[np.ndarray]) -> np.ndarray:
        """View-order record rows out of the covering extents' records."""
        first = datas[0]
        out = np.empty(
            (self.n_view_records,) + first.shape[1:], dtype=first.dtype
        )
        ci = pos = 0
        for start, count in self.runs:
            while start >= sum(self.covering[ci]):
                ci += 1
            rel = start - self.covering[ci][0]
            out[pos : pos + count] = datas[ci][rel : rel + count]
            pos += count
        return out


@dataclass(frozen=True)
class ViewWritePlan:
    """How to write a view: the mode, and the RMW windows if sieved.

    ``windows`` is a tuple of ``(window, pieces)`` pairs of
    ``(start, count)`` record runs (see
    :func:`repro.ionode.aggregator.plan_rmw`); ``row_of`` maps each run's
    first record to its row position in the view-order payload.
    """

    mode: str
    runs: tuple[tuple[int, int], ...]
    windows: tuple = ()

    @property
    def n_view_records(self) -> int:
        return sum(c for _, c in self.runs)

    @property
    def row_of(self) -> dict[int, int]:
        """Row position of each run's records in the view-order payload."""
        out, pos = {}, 0
        for start, count in self.runs:
            out[start] = pos
            pos += count
        return out

    @staticmethod
    def is_whole_window(window, pieces) -> bool:
        """True when the pieces cover the window exactly — a pure
        overwrite needing no read-modify-write (and no lock)."""
        return len(pieces) == 1 and pieces[0] == window

    def overlay(self, window, pieces, buf: np.ndarray, decoded: np.ndarray) -> np.ndarray:
        """A copy of the window's records with the wanted rows applied.

        ``buf`` holds the window's current records, ``decoded`` the full
        view-order payload; the executor writes the returned array back
        as one transfer.
        """
        row_of = self.row_of
        out = np.array(buf, copy=True)
        for start, count in pieces:
            rel = start - window[0]
            row = row_of[start]
            out[rel : rel + count] = decoded[row : row + count]
        return out


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
