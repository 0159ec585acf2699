"""The simulated-time dataset: typed hyperslabs over a ParallelFile.

Every method that moves bytes is a generator in the simulator's style —
drive it from a sim process (``yield from``) or as a top-level
``env.process``. The slab arithmetic is
:class:`~repro.dataset.core.DatasetBase`; execution rides the PR 6/7
machinery: independent slabs go through
:meth:`~repro.fs.pfs.ParallelFile.read_view` /
:meth:`~repro.fs.pfs.ParallelFile.write_view` (list I/O, or data
sieving with ``sieve=True``), collective slabs through two-phase
:class:`~repro.collective.CollectiveIO` with explicit byte index lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..collective.twophase import CollectiveIO
from ..container.reader import ContainerReader
from ..container.writer import ContainerWriter, run_plan
from ..core.errors import OrganizationError
from ..datatype.slab import slab_size, validate_slab
from .core import (
    DATASET_SECTION_ID,
    DatasetBase,
    dataset_decls,
    initial_payloads,
    schema_plan,
    var_section_id,
)
from .model import DatasetSchema

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.pfs import ParallelFileSystem

__all__ = ["Dataset"]


class Dataset(DatasetBase):
    """An open simulated dataset. Build with the :meth:`create` /
    :meth:`open` generators."""

    def __init__(self, reader: ContainerReader, schema: DatasetSchema):
        super().__init__(reader.file, schema, reader.toc, reader.crcs)
        self.reader = reader

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        pfs: "ParallelFileSystem",
        name: str,
        schema: DatasetSchema,
        *,
        org="S",
        writers: int = 1,
        layout_processes: int = 1,
        data: Mapping[str, np.ndarray] | None = None,
        mode: str = "collective",
        user_string: str = "repro.dataset",
        **create_kw,
    ):
        """Generator: create a dataset container and open it.

        ``data`` optionally provides initial variable contents (missing
        variables start zero-filled); ``writers`` / ``mode`` choose the
        PR 7 parallel payload path exactly as
        :meth:`~repro.container.writer.ContainerWriter.write_array`.
        """
        initial = initial_payloads(schema, data)
        writer = ContainerWriter.create(
            pfs, name, dataset_decls(schema),
            org=org, writers=writers, layout_processes=layout_processes,
            user_string=user_string, **create_kw,
        )
        yield from writer.begin()
        yield from writer.write_block(
            DATASET_SECTION_ID, schema.to_json().encode("utf-8")
        )
        for vname in schema.variables:
            payload = (
                np.frombuffer(initial[vname], dtype=np.uint8)
                if vname in initial
                else np.zeros(schema.nbytes(vname), dtype=np.uint8)
            )
            yield from writer.write_array(
                var_section_id(vname), payload, mode=mode
            )
        return (yield from cls.open(pfs, name, processes=writers))

    @classmethod
    def open(cls, pfs: "ParallelFileSystem", name: str, *, processes: int = 1):
        """Generator: open an existing dataset (schema crc-verified)."""
        reader = yield from ContainerReader.open(pfs, name, readers=processes)
        schema = yield from run_plan(
            reader.file, schema_plan(reader.toc, reader.crcs, name)
        )
        return cls(reader, schema)

    # -- independent hyperslab I/O -----------------------------------------

    def read_slab(self, name: str, start, count, *, sieve: bool = False):
        """Generator: the hyperslab as a typed array of shape ``count``."""
        view, cnt, _ = self._slab(name, start, count)
        if slab_size(cnt) == 0:
            return self._empty_slab(name, cnt)
        rows = yield self.file.read_view(view, sieve=sieve)
        return self._decode_slab(name, cnt, rows)

    def write_slab(self, name: str, start, count, values, *, sieve: bool = False):
        """Generator: write ``values`` into the hyperslab; element count."""
        view, cnt, _ = self._slab(name, start, count)
        rows = self._encode_slab(name, cnt, values)
        if rows.size == 0:
            return 0
        yield self.file.write_view(rows, view, sieve=sieve)
        self._mark_dirty(name)
        return slab_size(cnt)

    # -- collective hyperslab I/O ------------------------------------------

    def _collective_slabs(self, name: str, slabs: Sequence):
        """``(slabs, byte indices per process, (start, count))`` — the span
        covering every index, ``None`` when all slabs are empty."""
        p = self.file.map.n_processes
        if len(slabs) != p:
            raise OrganizationError(
                f"collective slab list has {len(slabs)} entries; file has "
                f"{p} processes"
            )
        shape = self.schema.shape(name)
        norm = [validate_slab(shape, s, c) for s, c in slabs]
        indices = {
            q: self._slab_byte_indices(name, s, c)
            for q, (s, c) in enumerate(norm)
        }
        nonempty = [a for a in indices.values() if a.size]
        if not nonempty:
            return norm, indices, None
        lo = min(int(a[0]) for a in nonempty)
        return norm, indices, (lo, max(int(a[-1]) for a in nonempty) + 1 - lo)

    def _collective(self, exchange_rate: float, exchange_latency: float):
        return CollectiveIO(
            self.file, exchange_rate, exchange_latency,
            allow_dynamic=not self.file.map.is_static,
        )

    def read_slab_all(
        self,
        name: str,
        slabs: Sequence,
        *,
        exchange_rate: float = 10e6,
        exchange_latency: float = 1e-4,
    ):
        """Generator: two-phase collective read of one slab per process.

        ``slabs[q]`` is process ``q``'s ``(start, count)``; overlapping
        read slabs are fine. Returns ``{process: typed array}``.
        """
        norm, indices, span = self._collective_slabs(name, slabs)
        rows = {}
        if span is not None:
            cio = self._collective(exchange_rate, exchange_latency)
            rows = yield from cio.read_at(*span, indices=indices)
        return {
            q: (
                self._decode_slab(name, c, rows[q])
                if indices[q].size
                else self._empty_slab(name, c)
            )
            for q, (_, c) in enumerate(norm)
        }

    def write_slab_all(
        self,
        name: str,
        slabs: Sequence,
        values: Sequence,
        *,
        exchange_rate: float = 10e6,
        exchange_latency: float = 1e-4,
    ):
        """Generator: two-phase collective write, one slab per process.

        Write slabs must be pairwise disjoint (the collective layer
        enforces it). Returns the total element count written.
        """
        norm, indices, span = self._collective_slabs(name, slabs)
        if len(values) != len(norm):
            raise OrganizationError(
                f"{len(norm)} slabs but {len(values)} value arrays"
            )
        per_process = {
            q: self._encode_slab(name, c, values[q])
            for q, (_, c) in enumerate(norm)
        }
        if span is None:
            return 0
        cio = self._collective(exchange_rate, exchange_latency)
        yield from cio.write_at(*span, per_process, indices=indices)
        self._mark_dirty(name)
        return sum(slab_size(c) for _, c in norm)

    # -- checksum maintenance ----------------------------------------------

    def sync(self):
        """Generator: recompute and rewrite stale variable checksums (see
        :meth:`~repro.dataset.core.DatasetBase._sync_plan`). Returns the
        variable names synced."""
        return run_plan(self.file, self._sync_plan())
