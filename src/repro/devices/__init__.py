"""Storage device models: disks, arm schedulers, controllers, faults."""

from .controller import (
    DeviceController,
    DeviceFailedError,
    IORequest,
    ServiceInterval,
    TransientIOError,
    as_payload,
)
from .disk import (
    FAST_1989,
    RAM_DEVICE,
    WREN_1989,
    DiskGeometry,
    DiskModel,
    DiskTiming,
)
from .faults import FailureInjector, FailureRecord, TransientFaultInjector
from .scheduling import CSCAN, FCFS, SCAN, SSTF, SchedulingPolicy, make_policy

__all__ = [
    "DeviceController",
    "DeviceFailedError",
    "TransientIOError",
    "IORequest",
    "ServiceInterval",
    "as_payload",
    "DiskGeometry",
    "DiskModel",
    "DiskTiming",
    "WREN_1989",
    "FAST_1989",
    "RAM_DEVICE",
    "FailureInjector",
    "FailureRecord",
    "TransientFaultInjector",
    "SchedulingPolicy",
    "FCFS",
    "SSTF",
    "SCAN",
    "CSCAN",
    "make_policy",
]
