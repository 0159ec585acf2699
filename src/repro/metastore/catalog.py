"""Catalog-compatible facade over the sharded metadata service.

:class:`ShardedCatalog` presents the part of
:class:`repro.fs.catalog.Catalog` the file system calls (``add`` / ``get``
/ ``remove`` / ``rename`` / ``__contains__`` / ``entries`` plus the
``creates`` / ``deletes`` manageability counters), so
:meth:`repro.fs.pfs.ParallelFileSystem.attach_metastore` can swap it in
without touching any caller — every ``pfs.create``/``open``/``delete``
then routes through the journaled, crash-consistent
:class:`~repro.metastore.service.MetadataService`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .service import MetadataService

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.catalog import CatalogEntry

__all__ = ["ShardedCatalog"]


class ShardedCatalog:
    """Drop-in :class:`~repro.fs.catalog.Catalog` backed by shards."""

    def __init__(self, service: MetadataService, creates: int = 0,
                 deletes: int = 0):
        self.service = service
        #: lifetime counters (manageability metrics for E12), carried
        #: over from the plain catalog this facade replaced
        self.creates = creates
        self.deletes = deletes

    def __contains__(self, name: str) -> bool:
        return name in self.service

    def entries(self) -> Iterator[tuple[str, "CatalogEntry"]]:
        """Iterate ``(name, entry)`` pairs (see :meth:`Catalog.entries`)."""
        return self.service.entries()

    def add(self, entry: "CatalogEntry") -> None:
        """Register a new file (rejects duplicates), journaled."""
        self.service.create(entry.attrs.name, entry)
        self.creates += 1

    def get(self, name: str) -> "CatalogEntry":
        """Look up a file's entry."""
        return self.service.lookup(name)

    def remove(self, name: str) -> "CatalogEntry":
        """Delete a file's entry, returning it, journaled."""
        entry = self.service.delete(name)
        self.deletes += 1
        return entry

    def rename(self, old: str, new: str) -> None:
        """Rename a file (neither a create nor a delete in the counters)."""
        self.service.rename(old, new)
