"""The parallel file system: catalog, views, conversion, consistency, recovery."""

from .catalog import Catalog, CatalogEntry, FileExistsError_, FileNotFoundError_
from .checkpoint import CheckpointManager
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
    DamageReport,
    ProtectionScheme,
    assess_damage,
    protection_overview,
    verify_file,
)

__all__ = [
    "Catalog",
    "CatalogEntry",
    "FileExistsError_",
    "FileNotFoundError_",
    "CheckpointManager",
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
    "DamageReport",
    "ProtectionScheme",
    "assess_damage",
    "protection_overview",
    "verify_file",
]
