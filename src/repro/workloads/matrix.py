"""Wrapped matrix storage (§3.1's motivating example for IS files).

    "This organization would be useful for wrapped storage of a matrix,
    for example."

A matrix is stored one row per record; with an IS file of single-record
blocks, process ``p`` of ``P`` owns rows ``p, p+P, p+2P, ...`` — the
classic wrapped (cyclic) row distribution that balances triangular work.

:class:`WrappedMatrix` wraps file creation plus whole-matrix and per-
process row transfers; :func:`parallel_row_scale` is a simple full-sweep
kernel and :func:`parallel_matvec` an out-of-core matrix-vector multiply,
both usable as simulated processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.pfs import ParallelFile, ParallelFileSystem

__all__ = ["WrappedMatrix", "parallel_row_scale", "parallel_matvec"]


class WrappedMatrix:
    """An ``n x m`` float64 matrix in an IS file, one row per record."""

    def __init__(self, pfs: "ParallelFileSystem", name: str, n_rows: int,
                 n_cols: int, n_processes: int):
        if n_rows < 1 or n_cols < 1:
            raise ValueError("matrix must be at least 1x1")
        self.pfs = pfs
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.file: "ParallelFile" = pfs.create(
            name,
            "IS",
            n_records=n_rows,
            record_size=n_cols * 8,
            dtype="float64",
            records_per_block=1,   # "each block may contain only a single record"
            n_processes=n_processes,
        )

    def my_rows(self, process: int) -> np.ndarray:
        """Global row indices owned by ``process`` (wrapped assignment)."""
        return self.file.map.records_of(process)

    # -- transfers (generators) --------------------------------------------

    def store(self, matrix: np.ndarray):
        """Generator: write the whole matrix through the global view."""
        if matrix.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"expected {(self.n_rows, self.n_cols)}, got {matrix.shape}"
            )
        yield from self.file.global_view().write(matrix)

    def load(self):
        """Generator: read the whole matrix through the global view."""
        out = yield from self.file.global_view().read()
        return out.reshape(self.n_rows, self.n_cols)

    def read_my_rows(self, process: int):
        """Generator: this process's rows, in wrapped order."""
        h = self.file.internal_view(process)
        data = yield from h.read_next(h.n_local_records)
        return data


def parallel_row_scale(matrix: WrappedMatrix, process: int, factor: float):
    """Generator: scale this process's rows in place (read-compute-write)."""
    h_in = matrix.file.internal_view(process)
    rows = yield from h_in.read_next(h_in.n_local_records)
    h_out = matrix.file.internal_view(process)
    yield from h_out.write_next(rows * factor)
    return len(rows)


def parallel_matvec(matrix: WrappedMatrix, process: int, x: np.ndarray):
    """Generator: partial y = A x over this process's rows.

    Returns ``(row_indices, partial_y)`` — the caller (or a reducing
    process) scatters the partials into the result vector.
    """
    if len(x) != matrix.n_cols:
        raise ValueError("x length must equal matrix columns")
    rows_idx = matrix.my_rows(process)
    h = matrix.file.internal_view(process)
    rows = yield from h.read_next(h.n_local_records)
    partial = rows @ x if len(rows) else np.empty(0)
    return rows_idx, partial
