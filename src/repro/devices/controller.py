"""Simulated device controller: queueing + arm scheduling + data storage.

A :class:`DeviceController` owns one :class:`~repro.devices.disk.DiskModel`
and serves byte-addressed read/write requests one at a time (one arm), in
the order chosen by its scheduling policy. It also owns the device's
*contents* (a byte array), so simulated runs move real data: integration
tests can verify both what the file system returned and how long it took.

Failure semantics (§5 of the paper): once :meth:`fail` is called the device
rejects all current and future requests with :class:`DeviceFailedError`
until :meth:`repair`, and calls its ``on_fail`` hook, if one is set.
Recovery policy — restore from backup, rebuild a member of a parity group
or a mirror — lives above, in ``repro.fs`` and ``repro.resilience``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Literal

import numpy as np

from ..sim.engine import Environment, Event
from ..sim.stats import PercentileTally, Tally, TimeWeighted, UtilizationTracker
from .disk import DiskModel
from .scheduling import FCFS, SchedulingPolicy

__all__ = [
    "DeviceController",
    "DeviceFailedError",
    "TransientIOError",
    "IORequest",
    "ServiceInterval",
    "as_payload",
]


def as_payload(data: Any) -> np.ndarray:
    """``data`` (bytes-like or array of any shape) as a flat uint8 array.

    Every write entry point sizes and slices its payload through this, so
    a payload is ``.size`` bytes long whatever its shape: ``len()`` of a
    ``(4, 8)`` array is 4, not 32.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(data, dtype=np.uint8)
    arr = np.asarray(data, dtype=np.uint8)
    return arr if arr.ndim == 1 else arr.reshape(-1)


class DeviceFailedError(Exception):
    """The target device has failed (remains failed until repaired)."""

    def __init__(self, device: str):
        super().__init__(f"device {device!r} has failed")
        self.device = device


class TransientIOError(Exception):
    """One request failed, but the device itself survives.

    The intermittent-error half of the §5 failure model: a request is
    rejected (bus glitch, recoverable read error) without applying any
    data, so a retry of the same request is safe and applies exactly
    once. Injected via :class:`~repro.devices.faults.TransientFaultInjector`.
    """

    def __init__(self, device: str):
        super().__init__(f"transient I/O error on device {device!r}")
        self.device = device


@dataclass(slots=True)
class IORequest:
    """One queued transfer. ``cylinder`` is what arm schedulers look at.

    ``tenant`` is the QoS principal the request is billed to (the ambient
    tenant of the submitting process or op; ``None`` for untagged work);
    tenant-aware policies additionally stamp the ``qos_tag`` scheduling
    tag (see :mod:`repro.qos`). Slotted: millions of these are allocated per
    sweep, so any new per-request annotation must be declared here.
    """

    kind: Literal["read", "write"]
    offset: int
    nbytes: int
    data: np.ndarray | None
    event: Event
    start_block: int
    cylinder: int
    submit_time: float
    tenant: Any = None
    qos_tag: Any = None


@dataclass(frozen=True, slots=True)
class ServiceInterval:
    """One served request: the arm was busy on it for [start, end)."""

    kind: str
    offset: int
    nbytes: int
    start: float
    end: float


class DeviceController:
    """One drive: request queue, arm scheduler, timing model, contents."""

    def __init__(
        self,
        env: Environment,
        disk: DiskModel,
        name: str = "disk",
        policy: SchedulingPolicy | None = None,
        per_request_overhead: float = 0.0005,
        keep_service_log: bool = False,
    ):
        self.env = env
        self.disk = disk
        self.name = name
        # the geometry is frozen: what every submit needs of it, read once
        geometry = disk.geometry
        self.capacity_bytes = geometry.capacity_bytes
        self._block_size = geometry.block_size
        self._last_block = geometry.capacity_blocks - 1
        self._blocks_per_cylinder = geometry.blocks_per_cylinder
        self.policy = policy or FCFS()
        #: fixed controller/software overhead charged per request (the
        #: "buffering overheads" knob of §4 lives higher up; this is the
        #: channel + command cost)
        self.per_request_overhead = per_request_overhead
        self._contents: np.ndarray | None = None
        self._pending: list[IORequest] = []
        self._wakeup: Event | None = None
        self._failed = False
        #: called when the drive fails: a drive off the data path (a check
        #: drive) reports its death here, since no data request sees it
        self.on_fail: Callable[[], None] | None = None
        #: transient-fault state (set by TransientFaultInjector): the next
        #: ``transient_error_budget`` served requests fail with
        #: :class:`TransientIOError` without touching the contents, and
        #: while ``now < slow_until`` service times are multiplied by
        #: ``slow_factor`` (a "limping" drive).
        self.transient_error_budget = 0
        self.slow_factor = 1.0
        self.slow_until = 0.0
        #: requests failed transiently / served while limping (stats)
        self.transient_errors = 0
        self.limped_requests = 0
        #: successful write applications (exactly-once accounting)
        self.writes_applied = 0
        #: per-request latency (submit -> complete), seconds
        self.latency = Tally()
        #: per-request queue wait (submit -> dispatch), with percentiles
        self.wait_stat = PercentileTally()
        #: arm utilization over the run
        self.utilization = UtilizationTracker(env.now)
        #: optional per-request busy intervals (for Gantt rendering)
        self.service_log: list[ServiceInterval] | None = (
            [] if keep_service_log else None
        )
        #: time-weighted queue length (pending requests, excluding in service)
        self.queue_stat = TimeWeighted(env.now)
        env.process(self._serve(), name=f"{name}.serve")

    # -- public API -----------------------------------------------------

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    def read(self, offset: int, nbytes: int) -> Event:
        """Read ``nbytes`` at byte ``offset``; event value is a uint8 array.

        The request is billed to the running process's or op's tenant.
        """
        return self._submit("read", offset, nbytes, None)

    def write(self, offset: int, data: bytes | np.ndarray) -> Event:
        """Write ``data`` at byte ``offset``; event value is bytes written."""
        arr = as_payload(data)
        return self._submit("write", offset, arr.size, arr)

    def fail(self) -> None:
        """Hard-fail the device; pending and future requests error out."""
        self._failed = True
        for req in self._pending:
            if not req.event.triggered:
                req.event.defuse()
                req.event.fail(DeviceFailedError(self.name))
        self._pending.clear()
        self.policy.on_clear()
        if self.on_fail is not None:
            self.on_fail()

    def repair(self, contents: np.ndarray | None = None) -> None:
        """Bring the device back, optionally with restored ``contents``.

        Without ``contents`` the device comes back *empty* (zeroed) — a
        fresh replacement drive, which is exactly the situation §5's
        recovery discussion starts from.
        """
        self._failed = False
        self._contents = None
        if contents is not None:
            arr = np.asarray(contents, dtype=np.uint8)
            if len(arr) > self.capacity_bytes:
                raise ValueError("restored contents exceed device capacity")
            self._ensure_contents()
            self._contents[: len(arr)] = arr

    def snapshot(self) -> np.ndarray:
        """Copy of the device contents (used by backup/shadow machinery)."""
        self._ensure_contents()
        return self._contents.copy()

    def peek(self, offset: int, nbytes: int) -> np.ndarray:
        """Zero-time inspection of contents (for tests and recovery checks)."""
        self._check_range(offset, nbytes)
        self._ensure_contents()
        return self._contents[offset : offset + nbytes].copy()

    def poke(self, offset: int, data: bytes | np.ndarray) -> None:
        """Zero-time mutation of contents (fault-injection helper)."""
        arr = as_payload(data)
        self._check_range(offset, arr.size)
        self._ensure_contents()
        self._contents[offset : offset + arr.size] = arr

    # -- internals --------------------------------------------------------

    def _ensure_contents(self) -> None:
        if self._contents is None:
            self._contents = np.zeros(self.capacity_bytes, dtype=np.uint8)

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside device "
                f"capacity {self.capacity_bytes}"
            )

    def _submit(self, kind: str, offset: int, nbytes: int, data) -> Event:
        env = self.env
        ev = Event(env)
        if self._failed:
            ev.fail(DeviceFailedError(self.name))
            return ev
        self._check_range(offset, nbytes)
        # a zero-length request at the very end still names a real block
        start_block = min(offset // self._block_size, self._last_block)
        now = env._now
        req = IORequest(
            kind=kind,  # type: ignore[arg-type]
            offset=offset,
            nbytes=nbytes,
            data=data,
            event=ev,
            start_block=start_block,
            cylinder=start_block // self._blocks_per_cylinder,
            submit_time=now,
            tenant=getattr(env._active, "qos_tenant", None),
        )
        pending = self._pending
        pending.append(req)
        self.queue_stat.record(now, len(pending))
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()
        return ev

    def _serve(self):
        # The per-request service loop, run once per device for the whole
        # simulation. ``env._now`` replaces the ``now`` property and the
        # collaborators, the policy among them, are bound once.
        env = self.env
        pending = self._pending
        disk = self.disk
        policy = self.policy
        utilization = self.utilization
        queue_stat = self.queue_stat
        wait_observe = self.wait_stat.observe
        latency_observe = self.latency.observe
        sleep = env.sleep
        while True:
            while not pending:
                utilization.idle(env._now)
                self._wakeup = Event(env)
                yield self._wakeup
                self._wakeup = None
            utilization.busy(env._now)
            idx = policy.select(pending, disk.head_cylinder)
            req = pending.pop(idx)
            policy.on_dispatch(req)
            now = env._now
            queue_stat.record(now, len(pending))
            event = req.event
            if event.triggered:  # failed while queued
                continue
            wait = now - req.submit_time
            wait_observe(wait)
            tenant = req.tenant
            if tenant is not None and hasattr(tenant, "note_queued"):
                tenant.note_queued(wait)
            dispatched = now
            if self.transient_error_budget > 0:
                # the request is rejected before any media transfer: the
                # contents are untouched, so a caller retry is exactly-once
                self.transient_error_budget -= 1
                self.transient_errors += 1
                yield sleep(self.per_request_overhead)
                if not event.triggered:
                    event.defuse()
                    event.fail(TransientIOError(self.name))
                continue
            service = disk.service(req.start_block, req.nbytes)
            if now < self.slow_until and self.slow_factor > 1.0:
                service *= self.slow_factor
                self.limped_requests += 1
            yield sleep(self.per_request_overhead + service)
            now = env._now
            if self.service_log is not None:
                self.service_log.append(
                    ServiceInterval(
                        req.kind, req.offset, req.nbytes, dispatched, now
                    )
                )
            if event.triggered:  # device failed mid-service
                continue
            if self._failed:
                event.defuse()
                event.fail(DeviceFailedError(self.name))
                continue
            latency_observe(now - req.submit_time)
            if tenant is not None and hasattr(tenant, "note_service"):
                tenant.note_service(now - dispatched, req.nbytes)
            contents = self._contents
            if contents is None:
                self._ensure_contents()
                contents = self._contents
            if req.kind == "read":
                event.succeed(contents[req.offset : req.offset + req.nbytes].copy())
            else:
                contents[req.offset : req.offset + req.nbytes] = req.data
                self.writes_applied += 1
                event.succeed(req.nbytes)
