"""Hot-spare rebuild: background reconstruction of a failed device.

§5 of the paper stops at *detecting* a failure and naming the recovery
options (restore from backup, shadow copy, parity rebuild). This module
runs the rebuild **online**: a background process reconstructs the dead
drive's contents onto an idle spare while the file system keeps serving,
then atomically swaps the spare in. One procedure serves every member of
a :class:`~repro.storage.parity.ParityGroup`, at every group width — a
mirror is a group of width 1, so a shadow resilver is this rebuild too:

* a **data drive** — each chunk is reconstructed from its group's
  survivors and check drive (at width 1, the mirror copy), under the
  group's per-unit locks so a concurrent read-modify-write is never
  observed half-done, then overlaid with the write journal and written to
  the spare. After the bulk pass the journal is drained until quiet, so
  degraded writes that raced the rebuild are not lost.
* a **check drive** — each chunk is the XOR of the group's data drives (a
  copy at width 1), and copying it clears the group's stale units over
  it. Writes made while the check drive is down mark their range stale
  under the same locks, so after the bulk pass the stale units left are
  exactly the ranges written since their chunk was copied; they are
  copied again until none is left.

The final verify + swap is zero-time (no yields): the spare is compared
against the simulator's oracle (the dead drive's frozen media plus the
journal, or the XOR of the group's data drives), reported to the
sanitizer, and only then patched into the volume, parity group, and
owning I/O node. A ``rebuild_throttle`` of *t* sleeps ``t×`` each chunk's
busy time, trading repair time (MTTR) against foreground interference —
the knob the ``x7_rebuild_throttle`` claim sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..devices.controller import DeviceController
from ..sim.engine import Process
from ..storage.parity import StaleParityError

if TYPE_CHECKING:  # pragma: no cover
    from .volume import ResilientVolume

__all__ = ["HotSpareRebuilder"]


class HotSpareRebuilder:
    """Rebuilds failed devices of one :class:`ResilientVolume` onto spares."""

    def __init__(
        self,
        rv: "ResilientVolume",
        spares: list[DeviceController],
        *,
        chunk_bytes: int = 1 << 16,
        throttle: float = 0.0,
    ):
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if throttle < 0:
            raise ValueError("throttle must be >= 0")
        self.rv = rv
        self.env = rv.env
        self.spares = list(spares)
        self.chunk_bytes = chunk_bytes
        self.throttle = throttle
        self._active: dict[int, Process] = {}
        #: (device index, exception) for rebuilds that could not complete
        self.failures: list[tuple[int, BaseException]] = []

    def can_rebuild(self, index: int) -> bool:
        """Is a rebuild of group member ``index`` (a data drive, or
        ``n_data + k`` for a check drive) possible and not yet running?"""
        group = self.rv.group
        if not self.spares or index in self._active or group is None:
            return False
        return group.drive(index).failed

    @property
    def active(self) -> list[int]:
        """Device indices with a rebuild in flight."""
        return sorted(self._active)

    def start(self, index: int) -> Process:
        """Kick off the background rebuild of device ``index``."""
        if not self.can_rebuild(index):
            raise RuntimeError(
                f"cannot rebuild device {index}: no spare, already running, "
                "or no reconstruction source"
            )
        spare = self.spares.pop(0)
        self.rv.stats.rebuilds_started += 1
        proc = self.env.process(self._run(index, spare), name=f"rebuild.dev{index}")
        self._active[index] = proc
        return proc

    def _run(self, index: int, spare: DeviceController):
        rv = self.rv
        t0 = rv.failed_at.get(index, self.env.now)
        try:
            yield from self._rebuild(index, rv.group.drive(index), spare)
        except Exception as exc:  # noqa: BLE001 - recorded, spare returned
            # a refused or interrupted rebuild (stale parity, retries
            # exhausted) is a lawful abort, not a sanitizer violation;
            # genuine divergence was already reported by the verify step
            self._active.pop(index, None)
            self.failures.append((index, exc))
            self.spares.insert(0, spare)
            return False
        self._active.pop(index, None)
        rv.failed_at.pop(index, None)
        rv.stats.rebuilds_completed += 1
        rv.stats.rebuild_times.append(self.env.now - t0)
        return True

    # -- the rebuild ----------------------------------------------------------

    def _rebuild(self, index: int, dead: DeviceController, spare: DeviceController):
        rv = self.rv
        env = self.env
        group = rv.group
        is_data = index < group.n_data
        lead = index if is_data else (index - group.n_data) * group.width
        cap = dead.capacity_bytes
        if spare.capacity_bytes < cap:
            raise ValueError("spare is smaller than the failed device")
        ranges = [(pos, min(self.chunk_bytes, cap - pos)) for pos in range(0, cap, self.chunk_bytes)]
        while ranges:
            for pos, take in ranges:
                chunk_start = env.now
                locks = yield from group.lock_units(index, pos, take)
                try:
                    if is_data and not group.reconstruct_safe(index, pos, take):
                        raise StaleParityError(
                            f"cannot rebuild device {index}: parity stale over "
                            f"[{pos}, {pos + take})"
                        )
                    data = yield from rv._with_retry(
                        lambda p=pos, t=take: self.env.process(
                            group.reconstruct_gen(index, p, t), name="rebuild.chunk"
                        ),
                        kind="reconstruct",
                        target=f"dev{index}",
                    )
                    if not is_data:
                        # the spare holds the group's XOR as of this read
                        group.mark_fresh(lead, pos, take)
                finally:
                    group.unlock(locks)
                rv.journal.overlay(index, pos, take, data)
                yield from rv._with_retry(
                    lambda p=pos, d=data: spare.write(p, d), kind="write", target="spare"
                )
                rv.stats.rebuild_bytes += take
                busy = env.now - chunk_start
                if self.throttle > 0 and busy > 0:
                    yield env.timeout(busy * self.throttle)
            # a check drive: copy again what was written since its chunk was
            # copied (those writes marked their range stale)
            ranges = [] if is_data else group.stale_ranges(lead)
        if is_data:
            # drain the degraded-write journal until no new entries appear
            replayed = 0
            while True:
                fresh = rv.journal.entries_for(index)[replayed:]
                if not fresh:
                    break
                for entry in fresh:
                    yield from rv._with_retry(
                        lambda e=entry: spare.write(e.offset, e.data),
                        kind="write",
                        target="spare",
                    )
                    replayed += 1
                    rv.stats.rebuild_bytes += len(entry.data)
            rv.journal.note_replayed(replayed)
            rv.stats.replayed_writes += replayed
            # the dead drive's media is frozen at failure time and every
            # later write is in the journal, so media+journal is the truth
            expected = dead.peek(0, cap)
            rv.journal.overlay(index, 0, cap, expected)
            detail = f"{cap} bytes reconstructed, {replayed} replayed"
        else:
            expected = np.bitwise_xor.reduce(
                [group.data_devices[i].peek(0, cap) for i in range(lead, lead + group.width)]
            )
            detail = f"{cap} bytes recomputed"
        # zero-time verify against the oracle, then the atomic swap
        ok = bool(np.array_equal(expected, spare.peek(0, cap)))
        self._notify(f"rebuild.dev{index}", ok, detail)
        if not ok:
            raise RuntimeError(
                f"rebuilt spare for device {index} diverges from its oracle"
            )
        group.replace(index, spare)
        if is_data:
            self._swap_in(index, spare)
            for entry in rv.journal.entries_for(index):
                if not entry.covered:
                    # the spare holds this write and the check data does
                    # not: reconstruction over it would fabricate bytes
                    group.mark_stale(index, entry.offset, len(entry.data))
            rv.journal.clear(index)
        else:
            # the dead drive no longer answers for the group
            spare.on_fail, dead.on_fail = dead.on_fail, None

    # -- plumbing ----------------------------------------------------------

    def _swap_in(self, index: int, spare: DeviceController) -> None:
        """Patch the spare into the volume and the owning I/O node."""
        rv = self.rv
        rv.volume.devices[index] = spare
        if rv.cluster is not None:
            node = rv.cluster.node_of(index)
            node.devices[index] = spare
            rv.cluster.invalidate_device(index)

    def _notify(self, name: str, ok: bool, detail: str) -> None:
        sanitizer = self.env._sanitizer
        if sanitizer is not None:
            sanitizer.on_rebuild(name, ok, detail)
