"""The parallel file system: stack builder, catalog, views, conversion,
consistency, recovery."""

from .catalog import Catalog, CatalogEntry
from .consistency import BackupManager, BackupSet
from .convert import alternate_view, convert_file
from .global_io import GlobalViewHandle
from .internal_io import (
    DirectHandle,
    OwnedDirectHandle,
    PartitionHandle,
    SequentialHandle,
    SSHandle,
    SSSession,
)
from .metadata import FileAttributes
from .pfs import ParallelFile, ParallelFileSystem
from .recovery import (
    ProtectionScheme,
    protection_overview,
    verify_file,
)
from .stack import build_parallel_fs

__all__ = [
    "Catalog",
    "CatalogEntry",
    "BackupManager",
    "BackupSet",
    "alternate_view",
    "convert_file",
    "GlobalViewHandle",
    "DirectHandle",
    "OwnedDirectHandle",
    "PartitionHandle",
    "SequentialHandle",
    "SSHandle",
    "SSSession",
    "FileAttributes",
    "ParallelFile",
    "ParallelFileSystem",
    "ProtectionScheme",
    "protection_overview",
    "verify_file",
    "build_parallel_fs",
]
