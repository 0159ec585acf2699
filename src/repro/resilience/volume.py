"""Degraded-mode I/O: the volume keeps serving through a device failure.

:class:`ResilientVolume` stacks over a
:class:`~repro.storage.volume.Volume` — directly, or through the I/O
nodes of a cluster when one is given, in which case it builds the
server-mediated :class:`~repro.ionode.routing.MediatedVolume` itself —
and speaks the same two-method protocol, with three behavioural changes:

* **retry** — every operation runs under a :class:`~repro.resilience.
  retry.RetryPolicy`: transient device errors (bus glitches, limping
  episodes) are retried with exponential backoff + jitter instead of
  surfacing to the application. Transient errors never touch media, so a
  retried write applies exactly once (checked by the sanitizer).
* **degraded reads** — a read that hits a permanently failed device is
  re-served segment by segment: live segments go down the normal path,
  segments on the dead device are reconstructed on the fly from the
  attached :class:`~repro.storage.parity.ParityGroup` (XOR of the group's
  survivors and its check drive — at width 1, the mirror copy), with
  journaled writes overlaid on top. Degraded-read latency is tallied
  separately.
* **protected writes** — writes route through the one parity discipline
  at every group width: a segment set that covers a group's row is
  written with its XOR in parallel, with no reads (at width 1 every
  write is such a row: data and copy); other segments read-modify-write
  in ``"rmw"`` mode or leave the group stale in ``"synchronized"`` mode —
  the §5 gap. Writes addressed to a failed data drive are journaled for
  replay by the hot-spare rebuild; a check drive that is down, or dies
  under a write, degrades the group instead of failing the write: the
  data lands, the range goes stale, and the failure is noted so the
  rebuilder can restore the check drive.

Parity consistency under concurrency is guarded by the parity group's
per-unit locks (:meth:`~repro.storage.parity.ParityGroup.lock_units`): a
read-modify-write and an on-the-fly reconstruction over the same unit
serialize, so neither ever observes a half-updated data/parity pair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..devices.controller import DeviceFailedError, as_payload
from ..sim.engine import Event, Process
from ..sim.rng import RngStreams
from ..storage.layout import plan_batch
from ..storage.parity import ParityGroup, StaleParityError
from .config import ResilienceConfig
from .journal import WriteJournal
from .retry import RetryPolicy, retrying
from .stats import ResilienceStats

if TYPE_CHECKING:  # pragma: no cover
    from ..ionode.routing import IONodeCluster, MediatedVolume
    from ..storage.layout import DataLayout, ExtentPlan
    from ..storage.volume import Extent, Volume
    from .failover import FailoverManager
    from .rebuild import HotSpareRebuilder

__all__ = ["ResilientVolume"]


class ResilientVolume:
    """A data plane with degraded-mode service and retries."""

    def __init__(
        self,
        volume: "Volume",
        cluster: "IONodeCluster | None" = None,
        *,
        group: ParityGroup | None = None,
        config: ResilienceConfig | None = None,
    ):
        self.volume = volume
        self.env = volume.env
        #: the I/O-node cluster when the plane is server-mediated
        self.cluster = cluster
        #: the plane healthy traffic goes down: the volume, or the nodes
        self.inner: "Volume | MediatedVolume" = (
            volume if cluster is None else cluster.mediate(volume)
        )
        self.config = config or ResilienceConfig()
        self.policy: RetryPolicy | None = self.config.retry
        self.group = group
        if group is not None:
            if len(group.data_devices) != self.volume.n_devices or any(
                group.data_devices[i] is not self.volume.devices[i]
                for i in range(self.volume.n_devices)
            ):
                raise ValueError(
                    "parity group must be built over the volume's devices, "
                    "in volume order"
                )
        self.rng = RngStreams(self.config.seed)
        self.stats = ResilienceStats()
        self.journal = WriteJournal()
        #: device index -> time the layer first observed it failed
        self.failed_at: dict[int, float] = {}
        #: attached background rebuilder (set by ``build_parallel_fs``)
        self.rebuilder: "HotSpareRebuilder | None" = None

    @property
    def failover(self) -> "FailoverManager | None":
        """The cluster's node-failover manager, when one is attached."""
        return None if self.cluster is None else self.cluster.failover

    # -- reads ---------------------------------------------------------------

    def read(
        self, extent: "Extent", layout: "DataLayout", ranges: list[tuple[int, int]]
    ) -> Process:
        """List-I/O read, degrading to reconstruction on device failure.

        The whole list goes down the inner plane under one retry (with
        batching off, only a single range does: a longer list then goes
        range by range). When a member is permanently down, a single
        range degrades segment by segment, and each range of a longer
        list is first retried whole on its own, so the healthy ranges
        stay whole. Value is the single concatenated uint8 array, ranges
        in list order.
        """
        return self.env.process(
            self._do_read(extent, layout, ranges), name="resilient.read"
        )

    def _do_read(self, extent: "Extent", layout: "DataLayout", ranges: list[tuple[int, int]]):
        if len(ranges) == 1 or self.volume.coalesce:
            try:
                value = yield from self._with_retry(
                    lambda: self.inner.read(extent, layout, ranges),
                    kind="read",
                    target="plane",
                )
                return value
            except DeviceFailedError:
                pass  # a member is permanently down
        if len(ranges) != 1:
            procs = [self.read(extent, layout, [rng]) for rng in ranges]
            if not procs:
                return np.empty(0, dtype=np.uint8)
            yield self.env.all_of(procs)
            return np.concatenate([p.value for p in procs])
        t0 = self.env.now
        plan = plan_batch(layout, ranges, coalesce=False, extent=extent)
        bases = extent.bases
        procs = [
            self.env.process(self._read_segment(dev, bases[dev] + off, n))
            for dev, off, n, _ in plan.requests
        ]
        if procs:
            yield self.env.all_of(procs)
        out = plan.assemble([p.value for p in procs])
        self.stats.degraded_reads += 1
        self.stats.degraded_read_latency.observe(self.env.now - t0)
        return out

    def _read_segment(self, dev_i: int, abs_off: int, nbytes: int):
        if not self.volume.devices[dev_i].failed:
            try:
                value = yield from self._with_retry(
                    lambda: self._plane_read(dev_i, abs_off, nbytes),
                    kind="read",
                    target=f"dev{dev_i}",
                )
                return value
            except DeviceFailedError:
                pass  # died between the check and the read
        return (yield from self._reconstruct_read(dev_i, abs_off, nbytes))

    def _reconstruct_read(self, dev_i: int, abs_off: int, nbytes: int):
        """Serve a dead device's bytes from parity + survivors + journal."""
        self._note_failure(dev_i)
        if self.group is None:
            raise DeviceFailedError(self._device_name(dev_i))  # unprotected
        if not self.group.reconstruct_safe(dev_i, abs_off, nbytes):
            raise StaleParityError(
                f"degraded read of device {dev_i} range "
                f"[{abs_off}, {abs_off + nbytes}): parity has stale units "
                "(independent writes without synchronized maintenance)"
            )
        locks = yield from self.group.lock_units(dev_i, abs_off, nbytes)
        try:
            # reconstruction is pure reads, so a transient survivor error
            # retries the whole XOR pass (idempotent)
            data = yield from self._with_retry(
                lambda: self.env.process(
                    self.group.reconstruct_gen(dev_i, abs_off, nbytes),
                    name="resilient.reconstruct",
                ),
                kind="reconstruct",
                target=f"dev{dev_i}",
            )
        finally:
            self.group.unlock(locks)
        self.journal.overlay(dev_i, abs_off, nbytes, data)
        self.stats.reconstructed_bytes += nbytes
        return data

    # -- writes -----------------------------------------------------------------

    def write(
        self,
        extent: "Extent",
        layout: "DataLayout",
        ranges: list[tuple[int, int]],
        data: Any,
    ) -> Process:
        """List-I/O write of the concatenated ``data`` under the active
        protection discipline; the value is the byte count.

        The list is one plan and one parity pass, except with batching
        off, where each range of a longer list gets its own.
        """
        return self.env.process(
            self._do_write(extent, layout, ranges, as_payload(data)),
            name="resilient.write",
        )

    def _do_write(
        self, extent: "Extent", layout: "DataLayout", ranges: list[tuple[int, int]], arr: np.ndarray
    ):
        coalesce = self.volume.coalesce
        # every range planned (and bounds-checked) before any is submitted
        if coalesce or len(ranges) == 1:
            plans = [plan_batch(layout, ranges, coalesce=coalesce, extent=extent)]
        else:
            plans = [plan_batch(layout, [rng], coalesce=False, extent=extent) for rng in ranges]
        total = sum(plan.nbytes for plan in plans)
        if total != arr.size:
            raise ValueError(f"ranges cover {total} bytes, data has {arr.size}")
        if len(plans) == 1:
            yield from self._write_plan(extent, plans[0], arr)
            return total
        procs = []
        pos = 0
        for plan in plans:
            procs.append(
                self.env.process(
                    self._write_plan(extent, plan, arr[pos : pos + plan.nbytes]),
                    name="resilient.write",
                )
            )
            pos += plan.nbytes
        if procs:
            yield self.env.all_of(procs)
        return total

    def _write_plan(self, extent: "Extent", plan: "ExtentPlan", arr: np.ndarray):
        """Run the protection discipline over one planned submission.

        With ``coalesce`` on, the plan's requests are whole device runs
        (list I/O): one RMW — or one full-stripe row — covers a run,
        instead of one per stripe unit. The parity paths are
        range-generic, so a merged run locks, reads, and XORs exactly the
        bytes the per-unit operations would have, in one pass.
        """
        bases = extent.bases
        triples = [
            (dev, bases[dev] + off, chunk)
            for (dev, off, _, _), chunk in zip(plan.requests, plan.payloads(arr))
        ]
        if self.group is not None:
            procs = self._plan_parity_write(triples)
        else:
            # unprotected: per-request so a retried request is its own op —
            # one that applied is never re-issued
            procs = [
                self.env.process(self._write_segment(dev, off, chunk))
                for dev, off, chunk in triples
            ]
        if procs:
            yield self.env.all_of(procs)

    def _write_segment(self, dev_i: int, abs_off: int, chunk: np.ndarray):
        """One plain (non-parity) segment write with retry."""
        yield from self._with_retry(
            lambda: self._plane_write(dev_i, abs_off, chunk),
            kind="write",
            target=f"dev{dev_i}",
        )
        return len(chunk)

    # -- parity write planning ---------------------------------------------------

    def _plan_parity_write(self, triples: list[tuple[int, int, np.ndarray]]) -> list[Process]:
        """Split a write into rows and independent segments.

        A *row* is a set of equal-length segments at the same absolute
        offset on every data drive of one group: its check data is the XOR
        of the new chunks, no old data needs reading. At width 1 every
        segment is a row. Anything else goes down the independent-write
        path (read-modify-write in ``rmw`` mode, stale marking in
        ``synchronized`` mode). A row needs its check drive live.

        With a data drive down, a row at width 1 is still a row: the check
        drive takes the copy and the journal the chunk, as a mirror's
        survivor would. A wider row goes down the independent path, which
        journals the dead drive's chunk and leaves the check data as it is;
        the ledger pins that schedule.
        """
        group = self.group
        width = group.width
        by_span: dict[tuple[int, int, int], dict[int, np.ndarray]] = {}
        for dev, off, chunk in triples:
            if len(chunk):
                by_span.setdefault((dev // width, off, len(chunk)), {})[dev] = chunk
        rows = width == 1 or not any(d.failed for d in group.data_devices)
        procs: list[Process] = []
        for (k, off, length), chunks in by_span.items():
            if rows and len(chunks) == width and not group.check_devices[k].failed:
                procs.append(
                    self.env.process(self._write_row(k, off, length, chunks))
                )
            else:
                for dev, chunk in chunks.items():
                    procs.append(
                        self.env.process(self._write_independent(dev, off, chunk))
                    )
        return procs

    def _write_row(self, k: int, abs_off: int, length: int, chunks: dict[int, np.ndarray]):
        """Row write: data on every member of group ``k`` and the XOR of
        the new chunks on its check drive, in parallel (:meth:`_commit`).

        The check data is the XOR of all *new* chunks, so a data member that
        is down, or dies mid-row, is absorbed: reconstruction yields its
        intended chunk though the media never got it. Only a row marks its
        units fresh, since only a row rewrites a group's check data whole.
        """
        group = self.group
        lead = k * group.width  # a data member, naming the group
        parity = np.zeros(length, dtype=np.uint8)
        for chunk in chunks.values():
            np.bitwise_xor(parity, chunk, out=parity)
        locks = yield from group.lock_units(lead, abs_off, length)
        try:
            if (yield from self._commit(k, abs_off, chunks, parity)):
                group.mark_fresh(lead, abs_off, length)
        finally:
            group.unlock(locks)
        self._invalidate_nodes(list(chunks))
        return length * len(chunks)

    def _write_independent(self, dev_i: int, abs_off: int, chunk: np.ndarray):
        """Independent single-device write under parity protection."""
        group = self.group
        target = group.data_devices[dev_i]
        check = group.check_devices[dev_i // group.width]
        if target.failed:
            if check.failed:
                raise DeviceFailedError(target.name)  # and its check data with it
            self._degraded_write(dev_i, abs_off, chunk)
            return len(chunk)
        if self.config.parity_mode == "rmw" and not check.failed:
            yield from self._rmw_write(dev_i, abs_off, chunk)
        else:
            locks = yield from group.lock_units(dev_i, abs_off, len(chunk))
            try:
                yield from self._write_unprotected(dev_i, abs_off, chunk)
            finally:
                group.unlock(locks)
        self._invalidate_nodes([dev_i])
        return len(chunk)

    def _write_unprotected(self, dev_i: int, abs_off: int, chunk: np.ndarray):
        """Data lands and the check data does not follow: the group goes
        stale over the range. This is ``"synchronized"`` mode's independent
        write (§5), and any write while the check drive is down. The
        caller holds the range's unit locks."""
        group = self.group
        n = len(chunk)
        check_down = group.check_devices[dev_i // group.width].failed
        if check_down:
            # stale from issue on, so a check-drive rebuild waiting on these
            # locks copies the range again
            self._check_lost(dev_i, abs_off, n)
        try:
            yield from self._with_retry(
                lambda: group.data_devices[dev_i].write(abs_off, chunk),
                kind="write",
                target=f"dev{dev_i}",
            )
        except DeviceFailedError:
            if check_down:
                raise  # the chunk is on neither drive of its group
            # the check data still matches the dead drive's media
            self._degraded_write(dev_i, abs_off, chunk)
            return
        group.mark_stale(dev_i, abs_off, n)

    def _rmw_write(self, dev_i: int, abs_off: int, chunk: np.ndarray):
        """Read-modify-write parity update, serialized per parity unit.

        Three serial phases: read the old data, read the old parity, then
        write both in parallel (:meth:`_commit`).
        """
        group = self.group
        target = group.data_devices[dev_i]
        check = group.check_devices[dev_i // group.width]
        n = len(chunk)
        locks = yield from group.lock_units(dev_i, abs_off, n)
        try:
            try:
                old_data = yield from self._with_retry(
                    lambda: target.read(abs_off, n), kind="read", target=f"dev{dev_i}"
                )
            except DeviceFailedError:
                self._degraded_write(dev_i, abs_off, chunk)
                return
            try:
                old_parity = yield from self._with_retry(
                    lambda: check.read(abs_off, n),
                    kind="read",
                    target="parity",
                )
            except DeviceFailedError:
                yield from self._write_unprotected(dev_i, abs_off, chunk)
                return
            new_parity = np.bitwise_xor(
                np.bitwise_xor(old_parity, old_data), chunk
            )
            yield from self._commit(dev_i // group.width, abs_off, {dev_i: chunk}, new_parity)
        finally:
            group.unlock(locks)

    def _commit(self, k: int, abs_off: int, chunks: dict[int, np.ndarray], check_data: np.ndarray):
        """Generator: write a row's or an RMW's data ``chunks`` and group
        ``k``'s new check data in parallel, settle both, then classify; the
        value is True iff the check data landed.

        Both writes settle before the caller releases the unit locks, so no
        reconstruction can observe a half-updated data/check pair. A check
        write whose retries ran out (media untouched) poisons the range if
        any chunk landed and surfaces. A data member that died is absorbed
        once the check data, which folds its chunk in, has landed: the chunk
        is journaled for the rebuild replay. A chunk that never landed, when
        the check data does not hold it, poisons the range and surfaces
        too. A check drive that died is absorbed (:meth:`_check_lost`).
        """
        group = self.group
        lead = k * group.width
        n = len(check_data)
        data_writes = {
            dev: self._settled_write(group.data_devices[dev], dev, abs_off, chunk)
            for dev, chunk in chunks.items()
        }
        check_write = self._settled_write(group.check_devices[k], "parity", abs_off, check_data)
        yield self.env.all_of([*data_writes.values(), check_write])
        cok, cval = check_write.value
        check_lost = not cok and isinstance(cval, DeviceFailedError)
        if not cok and not check_lost:
            if any(w.value[0] for w in data_writes.values()):
                group.mark_stale(lead, abs_off, n)
            raise cval
        for dev, settled in data_writes.items():
            ok, val = settled.value
            if not ok:
                if check_lost or not isinstance(val, DeviceFailedError):
                    group.mark_stale(lead, abs_off, n)
                    raise val
                self._degraded_write(dev, abs_off, chunks[dev], covered=True)
        if check_lost:
            self._check_lost(lead, abs_off, n)
        return not check_lost

    def _check_lost(self, dev_i: int, abs_off: int, nbytes: int) -> None:
        """The check drive of ``dev_i``'s group is down: a write over the
        range stands, unprotected. Note the failure (the rebuilder restores
        the check drive) and mark the group stale over the range."""
        group = self.group
        self._note_failure(group.n_data + dev_i // group.width)
        group.mark_stale(dev_i, abs_off, nbytes)

    def _degraded_write(
        self, dev_i: int, abs_off: int, chunk: np.ndarray, covered: bool = False
    ) -> None:
        """A write addressed to a failed member: journal it for replay.

        The media is untouched. The check data either already holds the
        chunk (``covered``: a row or RMW whose parity landed) or still
        matches the dead drive's on-media bytes; either way reconstruction
        stays valid, degraded reads overlay the journal, and the rebuild
        replays it onto the spare.
        """
        self._note_failure(dev_i)
        self.journal.record(dev_i, abs_off, chunk, self.env.now, covered)
        self.stats.journaled_writes += 1
        self.stats.degraded_writes += 1
        self._invalidate_nodes([dev_i])

    def _settled_write(self, device: Any, label: Any, abs_off: int, data: np.ndarray) -> Event:
        """A retry-wrapped raw device write of the parity paths, settled
        into an ``(ok, value)`` pair."""
        return self.env.settle(
            self.env.process(self._device_write(device, label, abs_off, data))
        )

    def _device_write(self, device: Any, label: Any, abs_off: int, data: np.ndarray):
        yield from self._with_retry(
            lambda: device.write(abs_off, data), kind="write", target=f"dev{label}"
        )
        return len(data)

    # -- plumbing ----------------------------------------------------------------

    def _plane_read(self, dev_i: int, abs_off: int, nbytes: int) -> Event:
        """One device-range read down the active plane (node or direct).

        Through the nodes it is the mediated client read with one item,
        so each retry attempt is a fresh request message that feeds the
        node's circuit breaker and lands at the device's current owner.
        """
        if self.cluster is not None:
            return self.env.process(
                self._node_read(dev_i, abs_off, nbytes), name=f"resilient.nread{dev_i}"
            )
        return self.volume.devices[dev_i].read(abs_off, nbytes)

    def _node_read(self, dev_i: int, abs_off: int, nbytes: int):
        (data,) = yield from self.inner._client_read([(dev_i, abs_off, nbytes)])
        return data

    def _plane_write(self, dev_i: int, abs_off: int, chunk: np.ndarray) -> Event:
        """One device-range write down the active plane (node or direct)."""
        if self.cluster is not None:
            return self.env.process(
                self.inner._client_write([(dev_i, abs_off, len(chunk))], [chunk]),
                name=f"resilient.nwrite{dev_i}",
            )
        return self.volume.devices[dev_i].write(abs_off, chunk)

    def _with_retry(self, make_event: Callable[[], Event], kind: str, target: str):
        if self.policy is None:
            value = yield make_event()
            return value
        value = yield from retrying(
            self.env,
            make_event,
            self.policy,
            rng=self.rng,
            stream=f"retry.{target}",
            kind=kind,
            target=target,
            on_report=self.stats.note_retry,
        )
        return value

    def _invalidate_nodes(self, dev_indices: list[int]) -> None:
        """Keep node caches coherent with writes that bypassed the nodes."""
        if self.cluster is None:
            return
        for dev_i in dev_indices:
            if isinstance(dev_i, int):
                self.cluster.invalidate_device(dev_i)

    def _note_failure(self, dev_i: int) -> None:
        """First sighting of a failed group member (a data drive, or
        ``n_data + k`` for a check drive): stamp it, kick auto-rebuild."""
        if dev_i in self.failed_at:
            return
        self.failed_at[dev_i] = self.env.now
        if (
            self.config.auto_rebuild
            and self.rebuilder is not None
            and self.rebuilder.can_rebuild(dev_i)
        ):
            self.rebuilder.start(dev_i)

    def _device_name(self, dev_i: int) -> str:
        return getattr(self.volume.devices[dev_i], "name", f"device{dev_i}")
