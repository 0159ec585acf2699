"""Hot-spare rebuild: background reconstruction of a failed device.

§5 of the paper stops at *detecting* a failure and naming the recovery
options (restore from backup, shadow copy, parity rebuild). This module
runs the rebuild **online**: a background process reconstructs the dead
device's contents onto an idle spare while the file system keeps serving,
then atomically swaps the spare in.

Two rebuild sources:

* **parity** — each chunk is reconstructed from survivors + check device
  (under the volume's per-parity-unit locks, so a concurrent
  read-modify-write can never be observed half-done), then overlaid with
  the write journal and written to the spare. After the bulk pass the
  journal is drained until quiet, so degraded writes that raced the
  rebuild are not lost.
* **shadow** — the surviving member is streamed onto the spare; the
  pair's dirty-range log (writes made while degraded) is then replayed
  until quiet, waiting out in-flight writes via
  :meth:`~repro.devices.shadow.ShadowPair.quiesce_event`.

The final verify + swap is zero-time (no yields): the spare is compared
against the simulator's oracle (the dead device's frozen media plus the
journal, or the survivor's media), reported to the sanitizer, and only
then patched into the volume, parity group, and owning I/O node. A
``rebuild_throttle`` of *t* sleeps ``t×`` each chunk's busy time, trading
repair time (MTTR) against foreground interference — the knob the
``x7_rebuild_throttle`` claim sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..devices.controller import DeviceController, DeviceFailedError
from ..devices.shadow import ShadowPair
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
        """Is a rebuild of device ``index`` possible and not yet running?"""
        if not self.spares or index in self._active:
            return False
        device = self.rv.volume.devices[index]
        if isinstance(device, ShadowPair):
            return device.degraded
        return device.failed and self.rv.group is not None

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
        device = rv.volume.devices[index]
        try:
            if isinstance(device, ShadowPair):
                yield from self._rebuild_shadow(index, device, spare)
            else:
                yield from self._rebuild_parity(index, device, spare)
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

    # -- parity-group rebuild ----------------------------------------------

    def _rebuild_parity(self, index: int, dead: DeviceController, spare: DeviceController):
        rv = self.rv
        env = self.env
        group = rv.group
        if group is None:
            raise RuntimeError("parity rebuild needs an attached parity group")
        cap = dead.capacity_bytes
        if spare.capacity_bytes < cap:
            raise ValueError("spare is smaller than the failed device")
        pos = 0
        while pos < cap:
            take = min(self.chunk_bytes, cap - pos)
            chunk_start = env.now
            locks = yield from rv._lock_units(pos, take)
            try:
                if not group.reconstruct_safe(pos, take):
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
            finally:
                rv._unlock(locks)
            rv.journal.overlay(index, pos, take, data)
            yield from rv._with_retry(
                lambda p=pos, d=data: spare.write(p, d), kind="write", target="spare"
            )
            rv.stats.rebuild_bytes += take
            pos += take
            busy = env.now - chunk_start
            if self.throttle > 0 and busy > 0:
                yield env.timeout(busy * self.throttle)
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
        # zero-time verify against the oracle, then the atomic swap: the
        # dead device's media is frozen at failure time and every later
        # write is in the journal, so media+journal is the logical truth
        expected = dead.peek(0, cap)
        rv.journal.overlay(index, 0, cap, expected)
        ok = bool(np.array_equal(expected, spare.peek(0, cap)))
        self._notify(
            f"rebuild.dev{index}", ok, f"{cap} bytes reconstructed, {replayed} replayed"
        )
        if not ok:
            raise RuntimeError(
                f"rebuilt spare for device {index} diverges from its oracle"
            )
        self._swap_in(index, spare)
        group.replace_data_device(index, spare)
        rv.journal.clear(index)

    # -- shadow-pair rebuild ------------------------------------------------

    def _rebuild_shadow(self, index: int, pair: ShadowPair, spare: DeviceController):
        rv = self.rv
        env = self.env
        survivor = pair.surviving()
        if survivor is None:
            raise DeviceFailedError(pair.name)
        cap = survivor.capacity_bytes
        if spare.capacity_bytes < cap:
            raise ValueError("spare is smaller than the pair members")
        pos = 0
        while pos < cap:
            take = min(self.chunk_bytes, cap - pos)
            chunk_start = env.now
            data = yield from rv._with_retry(
                lambda p=pos, t=take: survivor.read(p, t),
                kind="read",
                target="survivor",
            )
            yield from rv._with_retry(
                lambda p=pos, d=data: spare.write(p, d), kind="write", target="spare"
            )
            rv.stats.rebuild_bytes += take
            pos += take
            busy = env.now - chunk_start
            if self.throttle > 0 and busy > 0:
                yield env.timeout(busy * self.throttle)
        # catch up on writes that raced the bulk copy: wait out in-flight
        # writes first, so every completed write's dirty range is visible
        consumed = 0
        replayed = 0
        while True:
            if pair.writes_in_progress:
                yield pair.quiesce_event()
                continue
            ranges = pair.dirty_ranges()[consumed:]
            if not ranges:
                break
            for off, nbytes in ranges:
                data = yield from rv._with_retry(
                    lambda o=off, n=nbytes: survivor.read(o, n),
                    kind="read",
                    target="survivor",
                )
                yield from rv._with_retry(
                    lambda o=off, d=data: spare.write(o, d),
                    kind="write",
                    target="spare",
                )
                consumed += 1
                replayed += 1
                rv.stats.rebuild_bytes += nbytes
        rv.stats.replayed_writes += replayed
        # no write in progress and no unconsumed dirty range: the swap
        # (zero-time) cannot lose a racing write
        ok = bool(np.array_equal(survivor.peek(0, cap), spare.peek(0, cap)))
        self._notify(
            f"rebuild.{pair.name}", ok, f"{cap} bytes copied, {replayed} caught up"
        )
        if not ok:
            raise RuntimeError(
                f"rebuilt spare for pair {pair.name} diverges from the survivor"
            )
        pair.replace_failed(spare)

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
        if sanitizer is not None and hasattr(sanitizer, "on_rebuild"):
            sanitizer.on_rebuild(name, ok, detail)
