"""The shared request planner: one slab-lowering core for both backends.

Before this module, the executable half of the datatype layer lived only
on the simulator's :class:`~repro.fs.pfs.ParallelFile` — view flattening,
covering-extent read planning, scatter, and read-modify-write window
packing were welded to simulated processes. The live backend
(``repro.live``) and the dataset layer (``repro.dataset``) need the same
decisions against real file descriptors, so the planning now lives here
as pure functions over record runs:

* :func:`check_view_runs` — flatten a view and bounds-check it against a
  file's record count;
* :func:`plan_view_read` — decide the access mode (empty / contiguous /
  list I/O / sieved) and, for sieving, the covering extents plus the
  scatter map back to view order;
* :func:`plan_view_write` — the write-side dual: mode plus RMW windows,
  each with its overlay recipe and the view-order row offsets;
* :func:`prepare_view_read` / :func:`prepare_view_write` — the check and
  plan (for writes, the value count check too) that both backends'
  ``read_view``/``write_view`` run before their I/O.

Executors differ only in *how* they move bytes: the simulator yields
device processes, the live backend calls ``os.pread``/``os.pwrite``.
Neither re-derives a single planning decision — that is the invariant
the dataset identity tests pin (sim and live media bytes agree because
both executed the same plan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.convert import Run
from .sieve import (
    DEFAULT_SIEVE_FACTOR,
    DEFAULT_SIEVE_WINDOW,
    plan_sieved_reads,
    plan_sieved_writes,
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


def check_view_runs(view: FileView, n_records: int) -> list[Run]:
    """Flatten ``view`` and bounds-check it against ``n_records``.

    Returns the maximal contiguous record runs; raises ``ValueError``
    (the historical :meth:`ParallelFile.read_view` contract) when the
    view extends past the file.
    """
    runs = view.flatten()
    if runs and runs[-1].stop > n_records:
        raise ValueError(
            f"view extent [{runs[0].start}, {runs[-1].stop}) outside file "
            f"of {n_records} records"
        )
    return runs


@dataclass(frozen=True)
class ViewReadPlan:
    """How to read a view: the mode, and the sieve geometry if any.

    ``covering`` holds the covering extents of a sieved read as record
    runs (``offset`` / ``nbytes`` counted in records, the
    :mod:`repro.ionode.aggregator` convention). The executor reads each
    covering extent, then calls :meth:`scatter` to assemble the wanted
    records in view order.
    """

    mode: str
    runs: tuple[Run, ...]
    covering: tuple = ()

    @property
    def n_view_records(self) -> int:
        return sum(r.count for r in self.runs)

    def split(self, cat: np.ndarray) -> list[np.ndarray]:
        """Slice one concatenated covering-extent read back into
        per-extent record arrays (list-I/O executors return the
        extents' records concatenated in submission order)."""
        out, pos = [], 0
        for c in self.covering:
            out.append(cat[pos : pos + c.nbytes])
            pos += c.nbytes
        return out

    def scatter(self, datas: Sequence[np.ndarray]) -> np.ndarray:
        """View-order record rows out of the covering extents' records."""
        first = datas[0]
        out = np.empty(
            (self.n_view_records,) + first.shape[1:], dtype=first.dtype
        )
        ci = pos = 0
        for run in self.runs:
            while run.start >= self.covering[ci].end:
                ci += 1
            rel = run.start - self.covering[ci].offset
            out[pos : pos + run.count] = datas[ci][rel : rel + run.count]
            pos += run.count
        return out


@dataclass(frozen=True)
class ViewWritePlan:
    """How to write a view: the mode, and the RMW windows if sieved.

    ``windows`` is a tuple of ``(window, pieces)`` pairs in record units
    (see :func:`repro.ionode.aggregator.plan_rmw`); ``row_of`` maps each
    run's first record to its row position in the view-order payload.
    """

    mode: str
    runs: tuple[Run, ...]
    windows: tuple = ()

    @property
    def n_view_records(self) -> int:
        return sum(r.count for r in self.runs)

    @property
    def row_of(self) -> dict[int, int]:
        """Row position of each run's records in the view-order payload."""
        out, pos = {}, 0
        for r in self.runs:
            out[r.start] = pos
            pos += r.count
        return out

    @staticmethod
    def is_whole_window(window, pieces) -> bool:
        """True when the pieces cover the window exactly — a pure
        overwrite needing no read-modify-write (and no lock)."""
        return len(pieces) == 1 and pieces[0].nbytes == window.nbytes

    def overlay(self, window, pieces, buf: np.ndarray, decoded: np.ndarray) -> np.ndarray:
        """A copy of the window's records with the wanted rows applied.

        ``buf`` holds the window's current records, ``decoded`` the full
        view-order payload; the executor writes the returned array back
        as one transfer.
        """
        row_of = self.row_of
        out = np.array(buf, copy=True)
        for p in pieces:
            rel = p.offset - window.offset
            start = row_of[p.offset]
            out[rel : rel + p.nbytes] = decoded[start : start + p.nbytes]
        return out


def plan_view_read(
    runs: Sequence[Run],
    record_size: int = 1,
    *,
    sieve: bool = False,
    sieve_factor: float = DEFAULT_SIEVE_FACTOR,
    sieve_window: int = DEFAULT_SIEVE_WINDOW,
) -> ViewReadPlan:
    """Plan a view read over flattened record ``runs``.

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
    plan = plan_sieved_reads(
        runs, record_size, sieve_factor=sieve_factor, sieve_window=sieve_window
    )
    return ViewReadPlan(MODE_SIEVED, runs, covering=tuple(plan.reads))


def plan_view_write(
    runs: Sequence[Run],
    record_size: int = 1,
    *,
    sieve: bool = False,
    sieve_factor: float = DEFAULT_SIEVE_FACTOR,
    sieve_window: int = DEFAULT_SIEVE_WINDOW,
) -> ViewWritePlan:
    """Plan a view write over flattened record ``runs`` (see
    :func:`plan_view_read`; sieved writes become RMW windows)."""
    runs = tuple(runs)
    if not runs:
        return ViewWritePlan(MODE_EMPTY, runs)
    if len(runs) == 1:
        return ViewWritePlan(MODE_CONTIGUOUS, runs)
    if not sieve:
        return ViewWritePlan(MODE_LIST, runs)
    windows = plan_sieved_writes(
        runs, record_size, sieve_factor=sieve_factor, sieve_window=sieve_window
    )
    return ViewWritePlan(
        MODE_SIEVED, runs,
        windows=tuple((w, tuple(ps)) for w, ps in windows),
    )


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
