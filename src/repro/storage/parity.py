"""Parity protection for striped device groups (Kim [3], §5).

    "For striped files, error correcting techniques have been developed
    which can handle either a single-bit error in a striped block, or
    complete failure of a single drive. In this system, parity information
    is stored on each drive, and checking codes are stored on one or more
    additional drives. However, this method does not appear to be
    applicable to situations in which the disks are being accessed
    independently, as in the PS and IS organizations."

:class:`ParityGroup` implements a check device holding the XOR of the data
devices at equal offsets, with two write disciplines:

* ``mode="synchronized"`` — parity is maintained only by synchronized
  full-stripe writes (:meth:`write_stripe`), as in Kim's synchronized
  interleaving. Independent single-device writes succeed but leave the
  affected parity units **stale**, which the group tracks; a subsequent
  reconstruction over a stale unit is detectably unsafe. This is the
  paper's claim made executable (benchmark E9).
* ``mode="rmw"`` — every independent write performs the read-modify-write
  parity update (read old data + old parity, write new data + new
  parity). Parity is never stale, at the price of two extra transfers per
  write. This is the ablation showing what it would have cost to cover
  PS/IS in 1989.

The group owns one lock per parity unit (:meth:`ParityGroup.lock_units`):
two read-modify-writes through different data devices that share a
parity unit serialize, so neither overwrites the other's parity update.
The resilience layer's reconstructions and parity writes take the same
locks.
"""

from __future__ import annotations

import numpy as np

from ..devices.controller import DeviceController, DeviceFailedError, as_payload
from ..sim.engine import Environment, Process
from ..sim.resources import Resource

__all__ = ["ParityGroup", "StaleParityError"]


class StaleParityError(Exception):
    """Reconstruction attempted over a region whose parity is stale."""


class ParityGroup:
    """``len(data_devices)`` data drives + one check drive."""

    def __init__(
        self,
        env: Environment,
        data_devices: list[DeviceController],
        parity_device: DeviceController,
        mode: str = "synchronized",
        parity_unit: int = 4096,
    ):
        if len(data_devices) < 2:
            raise ValueError("a parity group needs at least 2 data devices")
        if mode not in ("synchronized", "rmw"):
            raise ValueError(f"unknown parity mode {mode!r}")
        if parity_unit < 1:
            raise ValueError("parity_unit must be >= 1")
        cap = parity_device.capacity_bytes
        if any(d.capacity_bytes != cap for d in data_devices):
            raise ValueError("all group members must have equal capacity")
        self.env = env
        self.data_devices = list(data_devices)
        self.parity_device = parity_device
        self.mode = mode
        self.parity_unit = parity_unit
        #: parity units whose check data is stale: set of (device, unit)
        self._stale: set[tuple[int, int]] = set()
        #: per-parity-unit serialization (unit index -> lock)
        self._unit_locks: dict[int, Resource] = {}

    @property
    def n_data(self) -> int:
        return len(self.data_devices)

    # -- staleness bookkeeping ------------------------------------------------

    def _units(self, offset: int, nbytes: int) -> range:
        if nbytes == 0:
            return range(0)
        return range(offset // self.parity_unit, (offset + nbytes - 1) // self.parity_unit + 1)

    def is_consistent(self, device: int, offset: int, nbytes: int) -> bool:
        """True iff parity covering this range of ``device`` is up to date."""
        return not any((device, u) in self._stale for u in self._units(offset, nbytes))

    def reconstruct_safe(self, offset: int, nbytes: int) -> bool:
        """True iff reconstruction of *any* device over this range is safe.

        Stronger than :meth:`is_consistent`: a unit written independently
        on device B poisons reconstruction of device A too — the check
        data no longer XORs to any member's contents over that unit.
        """
        units = set(self._units(offset, nbytes))
        return not any(u in units for _, u in self._stale)

    def mark_stale(self, device: int, offset: int, nbytes: int) -> None:
        """Record that parity no longer covers ``device`` over the range."""
        for u in self._units(offset, nbytes):
            self._stale.add((device, u))

    def mark_fresh(self, device: int, offset: int, nbytes: int) -> None:
        """Clear staleness for parity units *fully contained* in the range.

        A partially-covered unit stays stale: bytes outside the freshly
        written region are still unprotected.
        """
        unit = self.parity_unit
        for u in self._units(offset, nbytes):
            if u * unit >= offset and (u + 1) * unit <= offset + nbytes:
                self._stale.discard((device, u))

    def replace_data_device(self, index: int, controller: DeviceController) -> None:
        """Swap a (rebuilt) controller in for data member ``index``."""
        if controller.capacity_bytes != self.parity_device.capacity_bytes:
            raise ValueError("replacement capacity must match the group")
        self.data_devices[index] = controller

    @property
    def stale_units(self) -> int:
        return len(self._stale)

    # -- per-unit locks ------------------------------------------------------------

    def lock_units(self, offset: int, nbytes: int):
        """Generator: acquire the locks of the parity units covering a
        range, in unit order; returns the held locks for :meth:`unlock`."""
        held = []
        for u in self._units(offset, nbytes):
            lock = self._unit_locks.get(u)
            if lock is None:
                lock = self._unit_locks[u] = Resource(self.env, capacity=1)
            req = lock.request()
            yield req
            held.append((lock, req))
        return held

    def unlock(self, held: list) -> None:
        """Release what :meth:`lock_units` acquired."""
        for lock, req in reversed(held):
            lock.release(req)

    # -- writes ------------------------------------------------------------------

    def write_stripe(self, offset: int, chunks: list[bytes | np.ndarray]) -> Event:
        """Synchronized full-stripe write: one equal-length chunk per data
        device at the same ``offset``, plus the parity write, all in parallel."""
        if len(chunks) != self.n_data:
            raise ValueError(f"need {self.n_data} chunks, got {len(chunks)}")
        arrays = [as_payload(c) for c in chunks]
        length = len(arrays[0])
        if any(len(a) != length for a in arrays):
            raise ValueError("stripe chunks must be equal length")

        def submit():
            parity = np.zeros(length, dtype=np.uint8)
            for a in arrays:
                np.bitwise_xor(parity, a, out=parity)
            events = [d.write(offset, a) for d, a in zip(self.data_devices, arrays)]
            events.append(self.parity_device.write(offset, parity))
            return events

        def finish(_):
            for dev in range(self.n_data):
                for u in self._units(offset, length):
                    self._stale.discard((dev, u))
            return length * self.n_data

        return self.env.join(submit, finish)

    def write(self, device: int, offset: int, data: bytes | np.ndarray) -> Event:
        """Independent single-device write (PS/IS-style access)."""
        arr = as_payload(data)
        if self.mode == "synchronized":
            # data lands; parity is NOT updated — exactly the §5 gap
            def mark_stale(_):
                for u in self._units(offset, len(arr)):
                    self._stale.add((device, u))
                return len(arr)

            return self.env.then(
                lambda: self.data_devices[device].write(offset, arr), mark_stale
            )
        return self.env.process(
            self._do_independent_rmw(device, offset, arr), name="parity.rmw"
        )

    def _do_independent_rmw(self, device: int, offset: int, arr: np.ndarray):
        # new_parity = old_parity XOR old_data XOR new_data, under the unit
        # locks: a concurrent RMW through another device reads old parity
        # only after this one's parity write has landed
        held = yield from self.lock_units(offset, len(arr))
        try:
            old_data_ev = self.data_devices[device].read(offset, len(arr))
            old_parity_ev = self.parity_device.read(offset, len(arr))
            yield self.env.all_of([old_data_ev, old_parity_ev])
            new_parity = np.bitwise_xor(
                np.bitwise_xor(old_parity_ev.value, old_data_ev.value), arr
            )
            data_w = self.data_devices[device].write(offset, arr)
            parity_w = self.parity_device.write(offset, new_parity)
            yield self.env.all_of([data_w, parity_w])
        finally:
            self.unlock(held)
        return len(arr)

    # -- reads and reconstruction ---------------------------------------------

    def read(self, device: int, offset: int, nbytes: int) -> Process:
        """Read from a data device, reconstructing transparently if it failed."""
        return self.env.process(self._do_read(device, offset, nbytes), name="parity.read")

    def _do_read(self, device: int, offset: int, nbytes: int):
        target = self.data_devices[device]
        if not target.failed:
            data = yield target.read(offset, nbytes)
            return data
        return (yield from self.reconstruct_gen(device, offset, nbytes))

    def reconstruct(self, device: int, offset: int, nbytes: int) -> Process:
        """Rebuild ``device``'s contents in a range from survivors + parity.

        Raises :class:`StaleParityError` if any covered parity unit is
        stale (the §5 "not applicable to independent access" case).
        """
        return self.env.process(
            self.reconstruct_gen(device, offset, nbytes), name="parity.reconstruct"
        )

    def reconstruct_gen(self, device: int, offset: int, nbytes: int):
        """Generator form of :meth:`reconstruct` for use inside a process
        (the degraded-read hot path of ``repro.resilience``)."""
        if not self.is_consistent(device, offset, nbytes):
            raise StaleParityError(
                f"parity stale for device {device} range "
                f"[{offset}, {offset + nbytes}); independent writes were "
                "made without synchronized parity maintenance"
            )
        events = []
        for i, d in enumerate(self.data_devices):
            if i == device:
                continue
            if d.failed:
                raise DeviceFailedError(d.name)  # double failure: unrecoverable
            events.append(d.read(offset, nbytes))
        if self.parity_device.failed:
            raise DeviceFailedError(self.parity_device.name)
        events.append(self.parity_device.read(offset, nbytes))
        yield self.env.all_of(events)
        out = np.zeros(nbytes, dtype=np.uint8)
        for ev in events:
            np.bitwise_xor(out, ev.value, out=out)
        return out

    def rebuild_device(self, device: int) -> Process:
        """Full-device rebuild onto a repaired drive (replacement disk)."""
        return self.env.process(self._do_rebuild(device), name="parity.rebuild")

    def _do_rebuild(self, device: int):
        target = self.data_devices[device]
        cap = target.capacity_bytes
        if not self.is_consistent(device, 0, cap):
            raise StaleParityError(
                f"cannot rebuild device {device}: parity has stale units"
            )
        data = yield from self.reconstruct_gen(device, 0, cap)
        target.repair(contents=data)
        yield target.write(0, data)  # pay the write cost of the rebuild
        return cap
