"""Disk shadowing (mirroring).

§5 of the paper: "A technique sometimes used ... is to replicate every disk,
and perform exactly the same I/O operations on each disk and its 'shadow'.
This effectively provides up-to-date backups, so that data can be recovered
quickly when a drive fails. The drawback is that this approach is very
expensive in terms of hardware."

:class:`ShadowPair` wraps a primary and a shadow controller behind the
controller read/write interface: writes go to both and complete when both
complete; reads are served by the surviving/less-loaded member. Experiment
E9 uses it to demonstrate the cost (2x devices) versus coverage (any single
failure, any organization) trade-off.

Degraded-mode semantics (the online-resilience layer builds on these):

* a **read** that loses its member mid-request fails over to the other
  member inside the same request (``failover_reads`` counts these) — the
  client sees a completed read, not an error;
* a **write** completes as long as *at least one* member applied it; a
  member dying between the two mirrored writes degrades the pair instead
  of failing the client (``degraded_writes``);
* while degraded, the byte ranges written only to the survivor are kept
  in a **dirty log** so a hot-spare rebuild can catch up after its bulk
  copy, and ``writes_in_progress``/:meth:`quiesce_event` let the rebuild
  wait out in-flight writes before its final verify-and-swap;
* :meth:`replace_failed` swaps a rebuilt spare in for the dead member.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..sim.engine import Environment, Event
from .controller import DeviceController, DeviceFailedError, as_payload

__all__ = ["ShadowPair"]


class ShadowPair:
    """Two mirrored device controllers presented as one device."""

    def __init__(self, env: Environment, primary: DeviceController, shadow: DeviceController):
        if primary.capacity_bytes != shadow.capacity_bytes:
            raise ValueError("shadow pair members must have equal capacity")
        self.env = env
        self.primary = primary
        self.shadow = shadow
        self.name = f"{primary.name}+{shadow.name}"
        #: reads that lost their member mid-request and were re-served
        self.failover_reads = 0
        #: writes applied by fewer members than the pair has
        self.degraded_writes = 0
        #: invoked once when the pair first observes itself degraded
        #: (the resilience layer hooks auto-rebuild here)
        self.on_degraded: Callable[[], None] | None = None
        self._degraded_seen = False
        #: byte ranges written while degraded (survivor-only data)
        self._dirty: list[tuple[int, int]] = []
        self._writes_in_progress = 0
        self._quiet: Event | None = None

    # -- controller-compatible surface ------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.primary.capacity_bytes

    @property
    def failed(self) -> bool:
        """The pair fails only when *both* members fail."""
        return self.primary.failed and self.shadow.failed

    @property
    def degraded(self) -> bool:
        """Exactly one member is down (still serving, but unmirrored)."""
        return self.primary.failed != self.shadow.failed

    def read(self, offset: int, nbytes: int, tenant: Any = None) -> Event:
        """Read from a surviving member, failing over mid-request if it dies.

        ``tenant`` bills the member requests; None takes the active
        process's.
        """
        if self.failed:
            ev = Event(self.env)
            ev.fail(DeviceFailedError(self.name))
            return ev
        return self.env.process(
            self._do_read(offset, nbytes, tenant), name="shadow.read"
        )

    def _do_read(self, offset: int, nbytes: int, tenant: Any):
        self._check_degraded()
        # shorter queue first when both live; the other member is the
        # in-request fallback if the first dies under us
        members = sorted(
            (d for d in (self.primary, self.shadow) if not d.failed),
            key=lambda d: d.queue_length,
        )
        last_exc: DeviceFailedError | None = None
        for attempt, member in enumerate(members):
            try:
                data = yield member.read(offset, nbytes, tenant)
            except DeviceFailedError as exc:
                last_exc = exc
                continue
            if attempt:
                self.failover_reads += 1
                self._check_degraded()
            return data
        self._check_degraded()
        raise last_exc if last_exc is not None else DeviceFailedError(self.name)

    def write(self, offset: int, data: bytes | np.ndarray, tenant: Any = None) -> Event:
        """Write to every surviving member; completes when >= 1 applied."""
        arr = as_payload(data)
        if self.failed:
            ev = Event(self.env)
            ev.fail(DeviceFailedError(self.name))
            return ev
        return self.env.process(
            self._do_write(offset, arr, tenant), name="shadow.write"
        )

    def _do_write(self, offset: int, arr: np.ndarray, tenant: Any):
        self._writes_in_progress += 1
        try:
            self._check_degraded()
            members = [d for d in (self.primary, self.shadow) if not d.failed]
            if not members:
                raise DeviceFailedError(self.name)
            if len(members) == 1:
                # degraded at issue: the range is survivor-only data
                self.degraded_writes += 1
                self._dirty.append((offset, len(arr)))
            guards = [
                self.env.process(self._guard(d.write(offset, arr, tenant))) for d in members
            ]
            yield self.env.all_of(guards)
            failures = [g.value[1] for g in guards if not g.value[0]]
            if len(failures) == len(guards):
                raise failures[0]
            if failures:
                # a member died between the two mirrored writes: the pair
                # degrades, the client's write still completed
                self.degraded_writes += 1
                self._dirty.append((offset, len(arr)))
                self._check_degraded()
            return len(arr)
        finally:
            self._writes_in_progress -= 1
            if self._writes_in_progress == 0 and self._quiet is not None:
                if not self._quiet.triggered:
                    self._quiet.succeed()
                self._quiet = None

    def _guard(self, ev: Event):
        try:
            value = yield ev
            return True, value
        except DeviceFailedError as exc:
            return False, exc

    def peek(self, offset: int, nbytes: int) -> np.ndarray:
        """Zero-time inspection via a surviving member."""
        member = self._read_member()
        if member is None:
            raise DeviceFailedError(self.name)
        return member.peek(offset, nbytes)

    def poke(self, offset: int, data: bytes | np.ndarray) -> None:
        """Zero-time mutation of every surviving member (keeps mirrors equal)."""
        wrote = False
        for d in (self.primary, self.shadow):
            if not d.failed:
                d.poke(offset, data)
                wrote = True
        if wrote and self.degraded:
            self._dirty.append((offset, as_payload(data).size))
            self._check_degraded()

    # -- degraded-state bookkeeping ----------------------------------------

    @property
    def writes_in_progress(self) -> int:
        """Writes currently inside the pair (issued, not yet completed)."""
        return self._writes_in_progress

    def quiesce_event(self) -> Event:
        """Event that triggers when no write is in progress.

        Already-triggered if the pair is quiet now. The rebuilder waits on
        this before its final catch-up check, so a write racing the bulk
        copy cannot slip between the dirty-log scan and the member swap.
        """
        ev = Event(self.env)
        if self._writes_in_progress == 0:
            ev.succeed()
            return ev
        if self._quiet is None:
            self._quiet = ev
            return ev
        # share one quiet event between waiters
        return self._quiet

    def dirty_ranges(self) -> list[tuple[int, int]]:
        """Snapshot of ``(offset, nbytes)`` ranges written while degraded.

        Append-only until :meth:`replace_failed`; rebuild catch-up keeps a
        consumed-prefix index into this list.
        """
        return list(self._dirty)

    def _check_degraded(self) -> None:
        if self.degraded and not self._degraded_seen:
            self._degraded_seen = True
            if self.on_degraded is not None:
                self.on_degraded()

    # -- recovery ----------------------------------------------------------

    def surviving(self) -> DeviceController | None:
        """The member to recover from after a single failure."""
        return self._read_member()

    def replace_failed(self, spare: DeviceController) -> DeviceController:
        """Swap ``spare`` in for the failed member; returns the dead one.

        The caller (the hot-spare rebuilder) is responsible for having
        copied the survivor's contents onto the spare first. Clears the
        dirty log and re-arms ``on_degraded`` for a future failure.
        """
        if spare.capacity_bytes != self.capacity_bytes:
            raise ValueError("spare capacity must match the pair")
        if spare.failed:
            raise ValueError("cannot swap in a failed spare")
        if not self.degraded:
            raise RuntimeError(f"pair {self.name} has no single failed member")
        if self.primary.failed:
            dead, self.primary = self.primary, spare
        else:
            dead, self.shadow = self.shadow, spare
        self.name = f"{self.primary.name}+{self.shadow.name}"
        self._dirty.clear()
        self._degraded_seen = False
        return dead

    def resilver(self) -> None:
        """Repair the failed member by copying the survivor's contents.

        Zero-time convenience for tests; :meth:`resilver_timed` pays the
        actual copy cost.
        """
        survivor = self._read_member()
        if survivor is None:
            raise DeviceFailedError(self.name)
        for member in (self.primary, self.shadow):
            if member.failed:
                member.repair(contents=survivor.snapshot())
        self._dirty.clear()
        self._degraded_seen = False

    def resilver_timed(self, chunk_bytes: int = 1 << 20):
        """Generator: rebuild the failed member at real device speed.

        Streams the survivor's contents across in ``chunk_bytes`` pieces
        (read survivor, write replacement, pipelined chunk by chunk).
        This is the §5 claim — "data can be recovered quickly when a
        drive fails" — with its actual price tag: one full-device copy.
        Returns the number of bytes copied.
        """
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        survivor = self._read_member()
        if survivor is None:
            raise DeviceFailedError(self.name)
        targets = [m for m in (self.primary, self.shadow) if m.failed]
        if not targets:
            return 0
        (target,) = targets
        target.repair()
        cap = survivor.capacity_bytes
        # Double-buffered copy: survivor and replacement are different
        # drives, so the read of chunk k+1 overlaps the write of chunk k.
        copied = 0
        pending_write = None
        read_pos = 0
        while copied < cap:
            if read_pos < cap:
                take = min(chunk_bytes, cap - read_pos)
                data = yield survivor.read(read_pos, take)
                if pending_write is not None:
                    yield pending_write
                    copied += pending_len
                pending_write = target.write(read_pos, data)
                pending_len = take
                read_pos += take
            else:
                yield pending_write
                copied += pending_len
                pending_write = None
        self._dirty.clear()
        self._degraded_seen = False
        return copied

    def _read_member(self) -> DeviceController | None:
        alive = [d for d in (self.primary, self.shadow) if not d.failed]
        if not alive:
            return None
        return min(alive, key=lambda d: d.queue_length)
