"""Core concepts: records, blocks, organizations, maps, boundaries, conversion.

This package is the paper's primary contribution rendered executable: the
§3 record/block terminology (`records`, `blocks`), the six parallel file
organizations (`organizations`, `mapping`), the §5 boundary-overlap
mechanisms (`boundary`), and view-mismatch planning (`convert`).
"""

from .access import (
    AccessMethod,
    SequentialWithinBlockCursor,
    WithinBlockDiscipline,
    check_access_method,
    supported_methods,
)
from .blocks import BlockSpec
from .boundary import HaloCache, ReplicatedPartitioning
from .convert import alternate_view_runs, contiguous_runs, conversion_plan
from .errors import (
    ExhaustedError,
    FileExistsError_,
    FileNotFoundError_,
    OrganizationError,
    OwnershipError,
    RecordRangeError,
    ReproError,
    ViewMismatchError,
)
from .mapping import (
    GlobalDirectMap,
    InterleavedMap,
    OrganizationMap,
    PartitionedDirectMap,
    PartitionedMap,
    SelfScheduledMap,
    SequentialMap,
    make_map,
)
from .organizations import FileCategory, FileOrganization
from .records import RecordSpec

__all__ = [
    "AccessMethod",
    "SequentialWithinBlockCursor",
    "WithinBlockDiscipline",
    "check_access_method",
    "supported_methods",
    "BlockSpec",
    "HaloCache",
    "ReplicatedPartitioning",
    "alternate_view_runs",
    "contiguous_runs",
    "conversion_plan",
    "ExhaustedError",
    "FileExistsError_",
    "FileNotFoundError_",
    "OrganizationError",
    "OwnershipError",
    "RecordRangeError",
    "ReproError",
    "ViewMismatchError",
    "GlobalDirectMap",
    "InterleavedMap",
    "OrganizationMap",
    "PartitionedDirectMap",
    "PartitionedMap",
    "SelfScheduledMap",
    "SequentialMap",
    "make_map",
    "FileCategory",
    "FileOrganization",
    "RecordSpec",
]
