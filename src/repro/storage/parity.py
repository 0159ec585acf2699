"""One redundancy code for §5's two protection schemes.

    "For striped files, error correcting techniques have been developed
    which can handle either a single-bit error in a striped block, or
    complete failure of a single drive. In this system, parity information
    is stored on each drive, and checking codes are stored on one or more
    additional drives. However, this method does not appear to be
    applicable to situations in which the disks are being accessed
    independently, as in the PS and IS organizations."

:class:`ParityGroup` covers the data drives in groups of ``width``
consecutive drives, with one check drive per group holding the XOR of its
group's data drives at equal offsets. The width is derived from the drive
counts, and it is the whole difference between the paper's two schemes:

* width n (one check drive for all n data drives) is Kim's parity. A write
  that covers the group's row needs no reads, but an independent PS/IS
  write either reads old data and old parity first, or leaves the check
  data **stale**;
* width 1 (one check drive per data drive) is shadowing: the XOR of one
  unit is a copy, so every write is a whole row — data and copy in
  parallel, with no reads — at twice the drives.

The group only keeps the books: which parity units are stale, per group
(:meth:`mark_stale`, :meth:`reconstruct_safe`), and one lock per parity
unit of each group (:meth:`lock_units`), so that two read-modify-writes
sharing a unit, or a write and a reconstruction, serialize, while groups
never wait on each other. It reconstructs any member
from the others (:meth:`reconstruct_gen`). The write, degraded-read and
rebuild disciplines live in :mod:`repro.resilience`.
"""

from __future__ import annotations

import numpy as np

from ..devices.controller import DeviceController, DeviceFailedError
from ..sim.engine import Environment
from ..sim.sync import SimLock

__all__ = ["ParityGroup", "StaleParityError"]


class StaleParityError(Exception):
    """Reconstruction attempted over a region whose parity is stale."""


class ParityGroup:
    """Data drives in groups of ``width``, one check drive per group.

    Members are numbered ``0 .. n_data - 1`` for the data drives, in
    volume order, and ``n_data + k`` for the check drive of group ``k``.
    """

    def __init__(
        self,
        env: Environment,
        data_devices: list[DeviceController],
        check_devices: list[DeviceController],
        parity_unit: int = 4096,
    ):
        if not data_devices or not check_devices or len(data_devices) % len(check_devices):
            raise ValueError(
                "the check drives must split the data drives into equal groups"
            )
        if parity_unit < 1:
            raise ValueError("parity_unit must be >= 1")
        cap = data_devices[0].capacity_bytes
        if any(d.capacity_bytes != cap for d in [*data_devices, *check_devices]):
            raise ValueError("all group members must have equal capacity")
        self.env = env
        self.data_devices = list(data_devices)
        self.check_devices = list(check_devices)
        self.n_data = len(data_devices)
        #: data drives per group: n for Kim's parity, 1 for a mirror
        self.width = self.n_data // len(check_devices)
        self.capacity = cap
        self.parity_unit = parity_unit
        #: parity units whose check data is stale: set of (group, unit)
        self._stale: set[tuple[int, int]] = set()
        #: per-parity-unit serialization ((group, unit) -> lock), only while
        #: the lock is held or waited on
        self._unit_locks: dict[tuple[int, int], SimLock] = {}

    @property
    def parity_device(self) -> DeviceController:
        """The check drive of a one-group code (``protection="parity"``)."""
        (check,) = self.check_devices
        return check

    def drive(self, index: int) -> DeviceController:
        """Member ``index``: a data drive, or ``n_data + k`` for a check drive."""
        if index < self.n_data:
            return self.data_devices[index]
        return self.check_devices[index - self.n_data]

    def replace(self, index: int, controller: DeviceController) -> None:
        """Swap a rebuilt controller in for member ``index``."""
        if controller.capacity_bytes != self.capacity:
            raise ValueError("replacement capacity must match the group")
        if controller.failed:
            raise ValueError("cannot swap in a failed drive")
        if index < self.n_data:
            self.data_devices[index] = controller
        else:
            self.check_devices[index - self.n_data] = controller

    # -- staleness bookkeeping ------------------------------------------------

    def _units(self, offset: int, nbytes: int) -> range:
        if nbytes == 0:
            return range(0)
        return range(offset // self.parity_unit, (offset + nbytes - 1) // self.parity_unit + 1)

    def reconstruct_safe(self, device: int, offset: int, nbytes: int) -> bool:
        """True iff the check data of data drive ``device``'s group covers
        the range, so any member of the group can be rebuilt over it.

        Staleness is per group: a unit written independently on drive B
        poisons reconstruction of drive A too — the check data no longer
        XORs to any member's contents over that unit.
        """
        if not self._stale:
            return True
        k = device // self.width
        return not any((k, u) in self._stale for u in self._units(offset, nbytes))

    def mark_stale(self, device: int, offset: int, nbytes: int) -> None:
        """Record that the check data of ``device``'s group no longer
        covers the range."""
        k = device // self.width
        for u in self._units(offset, nbytes):
            self._stale.add((k, u))

    def mark_fresh(self, device: int, offset: int, nbytes: int) -> None:
        """Clear staleness of ``device``'s group for parity units *fully
        contained* in the range.

        A partially-covered unit stays stale: bytes outside the freshly
        written region are still unprotected. A unit cut by the end of the
        drives counts as covered once its bytes up to the end are.
        """
        if not self._stale:
            return
        k = device // self.width
        unit = self.parity_unit
        end = offset + nbytes
        for u in self._units(offset, nbytes):
            if u * unit >= offset and min((u + 1) * unit, self.capacity) <= end:
                self._stale.discard((k, u))

    def stale_ranges(self, device: int) -> list[tuple[int, int]]:
        """``(offset, nbytes)`` of each stale unit of ``device``'s group,
        in offset order, clipped to the drives."""
        k, unit = device // self.width, self.parity_unit
        return [
            (u * unit, min(unit, self.capacity - u * unit))
            for g, u in sorted(self._stale)
            if g == k
        ]

    @property
    def stale_units(self) -> int:
        return len(self._stale)

    # -- per-unit locks ------------------------------------------------------------

    def lock_units(self, index: int, offset: int, nbytes: int):
        """Generator: acquire the locks of the parity units of member
        ``index``'s group covering a range, in unit order; returns the held
        units for :meth:`unlock`.

        Locks are per group: at width 1, mirrored drives written at the same
        offset never wait on each other.
        """
        k = index // self.width if index < self.n_data else index - self.n_data
        held = []
        for u in self._units(offset, nbytes):
            lock = self._unit_locks.get((k, u))
            if lock is None:
                lock = self._unit_locks[k, u] = SimLock(self.env)
            yield lock.acquire()
            held.append((k, u))
        return held

    def unlock(self, held: list[tuple[int, int]]) -> None:
        """Release what :meth:`lock_units` acquired, dropping each lock
        that no one waits on."""
        locks = self._unit_locks
        for key in reversed(held):
            lock = locks[key]
            lock.release()
            if not lock.held:
                del locks[key]

    # -- reconstruction ------------------------------------------------------------

    def reconstruct_gen(self, index: int, offset: int, nbytes: int):
        """Generator: member ``index``'s bytes over a range, as the XOR of
        the other members of its group — a data drive's from its peers and
        the check drive, a check drive's from the group's data drives.

        Raises :class:`StaleParityError` when a data drive's range has
        stale check data (the §5 "not applicable to independent access"
        case), and :class:`DeviceFailedError` when another member is down.
        """
        w = self.width
        if index < self.n_data:
            k = index // w
            if not self.reconstruct_safe(index, offset, nbytes):
                raise StaleParityError(
                    f"parity stale for device {index} range "
                    f"[{offset}, {offset + nbytes}); independent writes were "
                    "made without synchronized parity maintenance"
                )
        else:
            k = index - self.n_data
        events = []
        for i in range(k * w, k * w + w):
            if i == index:
                continue
            d = self.data_devices[i]
            if d.failed:
                raise DeviceFailedError(d.name)  # double failure: unrecoverable
            events.append(d.read(offset, nbytes))
        if index < self.n_data:
            check = self.check_devices[k]
            if check.failed:
                raise DeviceFailedError(check.name)
            events.append(check.read(offset, nbytes))
        yield self.env.all_of(events)
        out = np.zeros(nbytes, dtype=np.uint8)
        for ev in events:
            np.bitwise_xor(out, ev.value, out=out)
        return out
