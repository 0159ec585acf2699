"""The file catalog (directory).

§2 assumes "mechanisms for permanent storage of data and interactive
management of user programs and files" — the catalog is the file-count-
and-naming half of that, and the thing the Finite Element Machine
experience (§3) showed collapsing under file-per-process: thousands of
entries that "all had to be created, modified, and deleted individually".
Benchmark E12 counts catalog entries as its manageability metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from ..core.errors import FileExistsError_, FileNotFoundError_
from ..storage.layout import DataLayout
from ..storage.volume import Extent
from .metadata import FileAttributes

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.sync import SimLock

__all__ = ["Catalog", "CatalogEntry"]


@dataclass
class CatalogEntry:
    attrs: FileAttributes
    extent: Extent
    layout: DataLayout
    #: the file's sieve lock, shared by every open (``ParallelFile.run_plan``)
    sieve_lock: SimLock | None = field(default=None, compare=False, repr=False)


class Catalog:
    """In-memory directory of parallel files."""

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        #: lifetime counters (manageability metrics for E12)
        self.creates = 0
        self.deletes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        """All file names, sorted."""
        return sorted(self._entries)

    def entries(self) -> Iterator[tuple[str, CatalogEntry]]:
        """Iterate ``(name, entry)`` pairs (the fsck cross-check's input)."""
        return iter(self._entries.items())

    def add(self, entry: CatalogEntry) -> None:
        """Register a new file (rejects duplicates)."""
        name = entry.attrs.name
        if name in self._entries:
            raise FileExistsError_(name)
        self._entries[name] = entry
        self.creates += 1

    def get(self, name: str) -> CatalogEntry:
        """Look up a file's entry."""
        try:
            return self._entries[name]
        except KeyError:
            raise FileNotFoundError_(name) from None

    def remove(self, name: str) -> CatalogEntry:
        """Delete a file's entry, returning it."""
        entry = self.get(name)
        del self._entries[name]
        self.deletes += 1
        return entry

    def rename(self, old: str, new: str) -> None:
        """Rename a file (neither a create nor a delete in the counters).

        A single atomic swap: the entry is inserted under ``new`` before
        ``old`` is dropped, so no interleaved observer (or simulated
        crash) ever sees a window where the file is absent from the
        namespace — the same insert-before-drop ordering the journaled
        metastore rename uses.
        """
        if new in self._entries:
            raise FileExistsError_(new)
        entry = self.get(old)
        entry.attrs.name = new
        self._entries[new] = entry
        del self._entries[old]

    def to_dict(self) -> dict[str, Any]:
        """Metadata-only snapshot (extents/layouts are runtime objects)."""
        return {name: e.attrs.to_dict() for name, e in self._entries.items()}
