"""Mechanical disk model.

Crockett's implementation strategies (§4) are all stated in terms of the
classical cost anatomy of a direct-access storage device: *seek* (move the
arm), *rotational latency* (wait for the sector), and *transfer* (move the
bytes). The reliability discussion (§5) additionally assumes a device MTBF
("30,000 hours ... currently achieved by commercially available Winchester
disks"). This module models exactly those knobs and nothing more.

Geometry is simplified to cylinders of equal capacity; a device address is
a *device block* index, and blocks map linearly onto cylinders. Service
time for a request is::

    seek(|current_cyl - target_cyl|) + rotational_latency + nbytes / rate

Seek time follows the standard affine-in-sqrt model used in disk
simulators: ``seek(d) = 0`` for d = 0 else ``seek_min + seek_factor *
sqrt(d)``, calibrated so that seek(max_distance) = full-stroke time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["DiskGeometry", "DiskTiming", "DiskModel", "WREN_1989", "FAST_1989", "RAM_DEVICE"]


@dataclass(frozen=True)
class DiskGeometry:
    """Capacity layout of a disk."""

    block_size: int = 4096          # bytes per device block
    blocks_per_cylinder: int = 64   # device blocks in one cylinder
    cylinders: int = 1024           # number of cylinders

    def __post_init__(self) -> None:
        if self.block_size <= 0 or self.blocks_per_cylinder <= 0 or self.cylinders <= 0:
            raise ValueError("geometry fields must be positive")

    @property
    def capacity_blocks(self) -> int:
        return self.blocks_per_cylinder * self.cylinders

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_blocks * self.block_size

    def cylinder_of(self, block: int) -> int:
        """Cylinder holding device block ``block``."""
        if not 0 <= block < self.capacity_blocks:
            raise ValueError(
                f"block {block} outside device (capacity {self.capacity_blocks})"
            )
        return block // self.blocks_per_cylinder


@dataclass(frozen=True)
class DiskTiming:
    """Timing parameters, in seconds and bytes/second."""

    seek_min: float = 0.004           # single-track seek
    seek_full: float = 0.050          # full-stroke seek
    rotation_period: float = 1 / 60.0  # 3600 RPM
    transfer_rate: float = 1.0e6      # sustained bytes/second
    mtbf_hours: float = 30_000.0      # per §5 of the paper

    def __post_init__(self) -> None:
        if self.transfer_rate <= 0:
            raise ValueError("transfer_rate must be positive")
        if self.seek_min < 0 or self.seek_full < self.seek_min:
            raise ValueError("require 0 <= seek_min <= seek_full")
        if self.rotation_period < 0:
            raise ValueError("rotation_period must be >= 0")
        if self.mtbf_hours <= 0:
            raise ValueError("mtbf_hours must be positive")


#: A circa-1989 5.25" Winchester drive (CDC Wren class): ~180 MB,
#: 16 ms average seek, 3600 RPM, ~1 MB/s media rate, 30,000 h MTBF.
WREN_1989 = DiskTiming(
    seek_min=0.004,
    seek_full=0.045,
    rotation_period=1 / 60.0,
    transfer_rate=1.0e6,
    mtbf_hours=30_000.0,
)

#: A high-end 1989 drive (parallel-head / striped-unit class).
FAST_1989 = DiskTiming(
    seek_min=0.002,
    seek_full=0.030,
    rotation_period=1 / 90.0,
    transfer_rate=3.0e6,
    mtbf_hours=30_000.0,
)

#: An idealized zero-latency device (isolates software overheads).
RAM_DEVICE = DiskTiming(
    seek_min=0.0,
    seek_full=0.0,
    rotation_period=0.0,
    transfer_rate=100.0e6,
    mtbf_hours=1.0e9,
)


@dataclass
class DiskModel:
    """Stateful timing model of one drive (tracks head position).

    The model is deterministic by default: rotational latency is the
    expected half rotation. Pass a numpy Generator as ``rng`` to sample
    rotational latency uniformly in [0, rotation_period) instead.
    """

    geometry: DiskGeometry = field(default_factory=DiskGeometry)
    timing: DiskTiming = field(default_factory=lambda: WREN_1989)
    rng: object | None = None  # numpy Generator or None

    def __post_init__(self) -> None:
        self._head_cylinder = 0
        self._seek_factor = self._calibrate_seek_factor()
        # the geometry is frozen: what service() needs of it, read once
        self._capacity_blocks = self.geometry.capacity_blocks
        self._blocks_per_cylinder = self.geometry.blocks_per_cylinder
        #: cumulative counters, exposed for experiment reports
        self.total_seeks = 0
        self.total_seek_distance = 0
        self.total_bytes = 0
        self.total_requests = 0

    def _calibrate_seek_factor(self) -> float:
        max_dist = max(self.geometry.cylinders - 1, 1)
        return (self.timing.seek_full - self.timing.seek_min) / math.sqrt(max_dist)

    @property
    def head_cylinder(self) -> int:
        return self._head_cylinder

    def seek_time(self, distance: int) -> float:
        """Arm movement time for a seek of ``distance`` cylinders."""
        if distance < 0:
            raise ValueError("seek distance must be >= 0")
        if distance == 0:
            return 0.0
        return self.timing.seek_min + self._seek_factor * math.sqrt(distance)

    def rotational_latency(self) -> float:
        """Rotational delay: expected half rotation, or sampled if rng set."""
        if self.rng is not None:
            return float(self.rng.uniform(0.0, self.timing.rotation_period))
        return self.timing.rotation_period / 2.0

    def transfer_time(self, nbytes: int) -> float:
        """Media transfer time for ``nbytes`` at the sustained rate."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return nbytes / self.timing.transfer_rate

    def service(self, block: int, nbytes: int) -> float:
        """Serve one request at device ``block`` for ``nbytes``; move head.

        Returns the total service time (seek + rotation + transfer).
        Sequential requests on the same cylinder pay no seek, which is what
        makes access-pattern locality matter in every experiment.
        """
        if not 0 <= block < self._capacity_blocks:
            raise ValueError(
                f"block {block} outside device (capacity {self._capacity_blocks})"
            )
        target = block // self._blocks_per_cylinder
        distance = abs(target - self._head_cylinder)
        t = self.transfer_time(nbytes)
        if distance > 0:
            t += self.seek_time(distance) + self.rotational_latency()
            self.total_seeks += 1
            self.total_seek_distance += distance
        # Same-cylinder access: assume read-ahead track buffer absorbs
        # rotational delay for sequential access (common by 1989).
        self._head_cylinder = target
        self.total_bytes += nbytes
        self.total_requests += 1
        return t

    def reset_position(self, cylinder: int = 0) -> None:
        """Park the head (used between experiment phases)."""
        if not 0 <= cylinder < self.geometry.cylinders:
            raise ValueError("cylinder out of range")
        self._head_cylinder = cylinder
