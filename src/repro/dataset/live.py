"""The live dataset: typed hyperslabs over real host files.

Same model, same slab arithmetic, same request planner as
:class:`repro.dataset.sim.Dataset` — but every method is a plain,
thread-safe call against a :class:`~repro.live.backend.LiveParallelFile`
(``os.pread``/``os.pwrite``). A live dataset's container bytes are
:func:`~repro.dataset.core.content_fingerprint`-identical to a sim
dataset of the same schema and data: only the masked self-description
payload differs (``layout: "host"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..container.codec import (
    ATTRS_SECTION_ID,
    encode_attrs_payload,
    encode_file_header,
    plan_layout,
    walk_toc,
    write_section,
)
from ..container.writer import container_decls
from ..datatype.slab import slab_size
from .core import (
    DATASET_SECTION_ID,
    VAR_PREFIX,
    DatasetBase,
    dataset_decls,
    initial_payloads,
    schema_plan,
)
from .model import DatasetSchema

if TYPE_CHECKING:  # pragma: no cover
    from ..live.backend import LiveParallelFile, LiveParallelFileSystem

__all__ = ["LiveDataset"]


class LiveDataset(DatasetBase):
    """An open dataset on the host file system."""

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        lfs: "LiveParallelFileSystem",
        name: str,
        schema: DatasetSchema,
        *,
        org="S",
        n_processes: int = 1,
        data: Mapping[str, np.ndarray] | None = None,
        user_string: str = "repro.dataset",
        records_per_block: int = 64,
        **org_params,
    ) -> "LiveDataset":
        """Create a dataset container as a real host file and open it.

        Writes the same container bytes the sim writer would (layout is a
        pure function of the schema); zero payloads lean on the
        preallocated file already being zero-filled.
        """
        initial = initial_payloads(schema, data)
        layout = plan_layout(container_decls(dataset_decls(schema)))
        file = lfs.create(
            name, org,
            n_records=layout.total_bytes, record_size=1,
            records_per_block=records_per_block, n_processes=n_processes,
            dtype="uint8", **org_params,
        )
        try:
            file.write_records(0, encode_file_header(user_string, len(layout.sections)))
            crcs = {}
            for ext in layout.sections:
                sid = ext.decl.section_id
                if sid == ATTRS_SECTION_ID:
                    payload = encode_attrs_payload(file.attrs.to_dict())
                elif sid == DATASET_SECTION_ID:
                    payload = schema.to_json().encode("utf-8")
                else:
                    # a variable without initial data stays zero: the file
                    # is preallocated
                    payload = initial.get(sid[len(VAR_PREFIX):])
                crcs[sid] = file.run_plan(write_section(ext, payload))
            toc = {ext.decl.section_id: ext for ext in layout.sections}
            return cls(file, schema, toc, crcs)
        except BaseException:
            file.close()
            lfs.delete(name)
            raise

    @classmethod
    def open(
        cls,
        lfs: "LiveParallelFileSystem",
        name: str,
        n_processes: int | None = None,
    ) -> "LiveDataset":
        """Open an existing dataset (schema section crc-verified)."""
        file = lfs.open(name, n_processes)
        try:
            _, toc, crcs = file.run_plan(walk_toc(file.n_records))
            return cls(file, file.run_plan(schema_plan(toc, crcs, name)), toc, crcs)
        except BaseException:
            file.close()
            raise

    def close(self) -> None:
        """Release the underlying descriptor (idempotent)."""
        self.file.close()

    def __enter__(self) -> "LiveDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- hyperslab I/O (plain, thread-safe) --------------------------------

    def read_slab(self, name: str, start, count, *, sieve: bool = False):
        """The hyperslab as a typed array of shape ``count``."""
        view, cnt, _ = self._slab(name, start, count)
        if slab_size(cnt) == 0:
            return self._empty_slab(name, cnt)
        rows = self.file.read_view(view, sieve=sieve)
        return self._decode_slab(name, cnt, rows)

    def write_slab(self, name: str, start, count, values, *, sieve: bool = False):
        """Write ``values`` into the hyperslab; returns element count."""
        view, cnt, _ = self._slab(name, start, count)
        rows = self._encode_slab(name, cnt, values)
        if rows.size == 0:
            return 0
        self.file.write_view(rows, view, sieve=sieve)
        self._mark_dirty(name)
        return slab_size(cnt)

    # -- checksum maintenance ----------------------------------------------

    def sync(self) -> list[str]:
        """Recompute and rewrite stale variable checksums (see
        :meth:`~repro.dataset.core.DatasetBase._sync_plan`). Returns the
        variable names synced."""
        return self.file.run_plan(self._sync_plan())
