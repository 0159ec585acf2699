"""Storage layer: layouts, volumes, extent allocation, parity groups."""

from .allocation import AllocationError, ExtentAllocator
from .layout import (
    ClusteredLayout,
    DataLayout,
    ExtentPlan,
    InterleavedLayout,
    StripedLayout,
    make_layout,
    plan_batch,
)
from .parity import ParityGroup, StaleParityError
from .volume import Extent, Volume

__all__ = [
    "AllocationError",
    "ExtentAllocator",
    "ClusteredLayout",
    "DataLayout",
    "ExtentPlan",
    "InterleavedLayout",
    "StripedLayout",
    "make_layout",
    "plan_batch",
    "ParityGroup",
    "StaleParityError",
    "Extent",
    "Volume",
]
