"""Backups and multi-device consistency (§5, problem area 3).

    "if a single drive in a parallel file system fails, it is not
    sufficient to restore just that disk from backups. Since each drive
    contains a slice of every file, all of the disks will have to be
    rolled back to the same point in time in order to maintain
    consistency."

:class:`BackupManager` snapshots every device of a volume at a point in
time and supports both restore policies: the *correct* full rollback and
the *insufficient* single-device restore — the latter kept so benchmark E9
can demonstrate exactly why it is insufficient (post-backup writes survive
on the other devices, leaving files self-inconsistent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..devices.controller import DeviceController
from ..sim.engine import Environment
from ..storage.volume import Volume

__all__ = ["BackupSet", "BackupManager"]


@dataclass
class BackupSet:
    """Point-in-time snapshot of every device in a volume."""

    backup_id: int
    time: float
    snapshots: list[np.ndarray] = field(repr=False, default_factory=list)

    @property
    def n_devices(self) -> int:
        return len(self.snapshots)


class BackupManager:
    """Takes and restores whole-volume backups."""

    def __init__(self, env: Environment, volume: Volume):
        self.env = env
        self.volume = volume
        self._next_id = 0
        self.backups: dict[int, BackupSet] = {}

    # -- taking backups -------------------------------------------------------

    def take(self):
        """Generator: back up every device; returns the :class:`BackupSet`.

        The cost is a full read of each device, proceeding in parallel
        across devices (one backup stream per drive).
        """
        devices = self.volume.devices
        # Pay the read cost: one full-capacity read per device, in parallel.
        reads = [d.read(0, d.capacity_bytes) for d in devices]
        yield self.env.all_of(reads)
        bset = BackupSet(
            backup_id=self._next_id,
            time=self.env.now,
            snapshots=[np.asarray(ev.value, dtype=np.uint8).copy() for ev in reads],
        )
        self._next_id += 1
        self.backups[bset.backup_id] = bset
        return bset

    # -- restoring --------------------------------------------------------------

    def restore_device(self, bset: BackupSet, device_index: int):
        """Generator: restore ONE device to the backup point.

        This is the §5 "not sufficient" policy: any file with slices on
        other devices becomes a mix of backup-time and current data.
        """
        dev = self._device(device_index)
        snap = bset.snapshots[device_index]
        if dev.failed:
            dev.repair()
        yield dev.write(0, snap)
        return device_index

    def restore_all(self, bset: BackupSet):
        """Generator: roll EVERY device back to the backup point.

        The correct (and expensive) policy: consistent, but all data
        written after the backup is lost everywhere.
        """
        devices = self.volume.devices
        for d in devices:
            if d.failed:
                d.repair()
        writes = [
            d.write(0, snap) for d, snap in zip(devices, bset.snapshots)
        ]
        yield self.env.all_of(writes)
        return len(writes)

    def _device(self, index: int) -> DeviceController:
        if not 0 <= index < self.volume.n_devices:
            raise ValueError(f"device {index} outside volume")
        return self.volume.devices[index]  # type: ignore[return-value]
