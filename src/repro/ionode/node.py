"""Dedicated I/O-node processes: buffering and device service as a server.

§4 of the paper names this implementation strategy directly: "dedicated
I/O processors" whose only job is to accept requests from compute
processes and service the devices. :class:`IONode` is one such processor,
realized as a simulated server process:

* a **bounded inbox** (admission control) — at most ``queue_depth``
  requests may be queued; further clients block at submission, so a flood
  of clients produces backpressure instead of unbounded server state;
* a **batch service loop** — each cycle drains up to ``batch_limit``
  queued requests and services them together, which is what gives the
  request aggregator (`repro.ionode.aggregator`) its cross-client view
  for coalescing and data sieving;
* an optional **server-side block cache** (`repro.ionode.cache`) — hot
  blocks are served to any client with zero device traffic;
* per-node statistics (queue depth, coalescing ratio, cache hit rate,
  utilization) rendered by :func:`repro.trace.report.ionode_report`.

The node self-reports its queue invariants to an attached
:class:`~repro.sanitize.EngineSanitizer` after every batch: no request is
ever lost, occupancy stays within bounds, and every byte a client asked
for is delivered exactly once even through sieved (covering-extent)
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..devices.controller import as_payload
from ..qos.scheduler import TenantStore
from ..sim.engine import Environment, Event, Interrupt
from ..sim.sync import Store
from ..sim.stats import PercentileTally, TimeWeighted, UtilizationTracker
from .aggregator import plan_reads, plan_writes
from .cache import ServerCache

if TYPE_CHECKING:  # pragma: no cover
    from ..qos.manager import QoSManager

__all__ = ["IONode", "NodeRequest"]


@dataclass
class NodeRequest:
    """One client message to a node: a batch of byte ranges on its devices.

    ``items`` holds ``(device, offset, nbytes)`` triples (absolute device
    offsets). For writes, ``data[i]`` is the payload of ``items[i]``.
    ``admitted`` triggers when the request clears admission control;
    ``event`` triggers when the node has serviced it — with a list of
    per-item arrays for reads, or the byte count for writes.

    ``tenant`` is the QoS principal the request is billed to (the ambient
    tenant of the submitting process or op; ``None`` for untagged work)
    and ``admitted_at`` when it cleared admission control; a QoS-scheduled
    inbox additionally stamps a ``qos_tag`` scheduling tag (see
    :mod:`repro.qos`).
    """

    kind: str
    items: list[tuple[int, int, int]]
    data: list[np.ndarray] | None
    event: Event
    admitted: Event | None
    submit_time: float
    tenant: Any = None
    admitted_at: float | None = None

    @property
    def payload_bytes(self) -> int:
        """Total bytes this request moves (requested or supplied)."""
        return sum(n for _, _, n in self.items)


@dataclass
class _ReadWant:
    """One read item awaiting device service (cache misses only)."""

    offset: int
    nbytes: int
    req: NodeRequest
    slot: int


@dataclass
class _Job:
    """One issued device operation and the request items it serves.

    ``settled`` is the operation's ``env.settle`` op: a failed device
    request becomes a ``(False, exc)`` value, not a crash of the service
    loop.
    """

    kind: str
    device: int
    offset: int
    nbytes: int
    settled: Event
    consumers: list
    data: np.ndarray | None = None


class IONode:
    """One dedicated I/O processor owning a set of device controllers.

    The inbox is FIFO, or, with a ``qos`` manager, a
    :class:`~repro.qos.TenantStore` that hands admitted requests to the
    service loop in the manager's scheduling order.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        devices: dict[int, Any],
        *,
        queue_depth: int = 16,
        batch_limit: int = 8,
        cache_blocks: int = 0,
        cache_block_bytes: int = 4096,
        qos: "QoSManager | None" = None,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if batch_limit < 1:
            raise ValueError("batch_limit must be >= 1")
        if not devices:
            raise ValueError("an I/O node needs at least one device")
        self.env = env
        self.name = name
        #: global device index -> controller
        self.devices = dict(devices)
        self.queue_depth = queue_depth
        self.batch_limit = batch_limit
        self.cache: ServerCache | None = (
            ServerCache(cache_blocks, cache_block_bytes) if cache_blocks > 0 else None
        )
        self.inbox: Store = (
            Store(env, queue_depth, self._note_admit)
            if qos is None
            else TenantStore(
                env, queue_depth, qos.make_scheduler(name), qos.resolve, self._note_admit
            )
        )
        # -- lifecycle counters (sanitizer invariants) --
        self.accepted = 0
        self.completed = 0
        self.in_service = 0
        #: requests salvaged to other nodes when this node crashed
        self.migrated = 0
        #: set by :meth:`crash`; a crashed node accepts no new requests
        self.crashed = False
        self._current_batch: list[NodeRequest] = []
        # the service loop's outstanding inbox.get(): a request a put handed
        # straight to the loop lives only in this event until the loop
        # resumes, and a crash in that window must still salvage it
        self._pending_get: Event | None = None
        # -- aggregation / device counters --
        self.batches = 0
        self.items_in = 0
        self.device_reads = 0
        self.device_writes = 0
        self.device_bytes_read = 0
        self.device_bytes_written = 0
        self.read_payload_bytes = 0
        self.sieve_waste_bytes = 0
        self.sieved_batches = 0
        self.read_requested_bytes = 0
        self.read_delivered_bytes = 0
        # -- time-weighted stats --
        self.queue_stat = TimeWeighted(env.now)
        self.utilization = UtilizationTracker(env.now)
        #: per-request admission-blocked time (submit -> admit)
        self.admission_stat = PercentileTally()
        #: per-request inbox wait (admit -> drained into a batch)
        self.wait_stat = PercentileTally()
        self._proc = env.process(self._serve(), name=f"{name}.serve")
        sanitizer = env._sanitizer
        if sanitizer is not None:
            sanitizer.register_node(self)

    # -- client surface ------------------------------------------------------

    @property
    def queued(self) -> int:
        """Requests admitted and waiting for service."""
        return len(self.inbox.items)

    @property
    def pending_admission(self) -> int:
        """Requests blocked at admission control (inbox full)."""
        return sum(1 for p in self.inbox._puts if not p.triggered)

    def submit(
        self,
        kind: str,
        items: list[tuple[int, int, int]],
        data: list[np.ndarray] | None = None,
    ) -> NodeRequest:
        """Enqueue one request; returns it with ``admitted`` to wait on.

        Clients must ``yield req.admitted`` (backpressure: it blocks while
        the inbox is full) and then ``yield req.event`` for the result.
        The request is billed to the running process's or op's tenant.
        Raises ``ValueError`` for an item outside its device, or a write
        payload whose size is not its item's ``nbytes``.
        """
        if kind not in ("read", "write"):
            raise ValueError(f"unknown request kind {kind!r}")
        if self.crashed:
            raise RuntimeError(
                f"node {self.name} has crashed; reroute through the "
                "cluster's failover manager"
            )
        for dev, offset, nbytes in items:
            device = self.devices.get(dev)
            if device is None:
                raise ValueError(f"device {dev} is not owned by node {self.name}")
            if offset < 0 or nbytes < 0 or offset + nbytes > device.capacity_bytes:
                raise ValueError(
                    f"invalid range ({offset}, {nbytes}) on device {dev} of "
                    f"{device.capacity_bytes} bytes"
                )
        if kind == "write":
            if data is None or len(data) != len(items):
                raise ValueError("write requests need one data payload per item")
            data = [as_payload(d) for d in data]
            for (_, _, nbytes), payload in zip(items, data):
                if payload.size != nbytes:
                    raise ValueError(
                        f"a {payload.size}-byte payload for a {nbytes}-byte item"
                    )
        req = NodeRequest(
            kind=kind,
            items=list(items),
            data=data,
            event=Event(self.env),
            admitted=None,
            submit_time=self.env.now,
            tenant=getattr(self.env.active_process, "qos_tenant", None),
        )
        self.accepted += 1
        req.admitted = self.inbox.put(req)
        self.queue_stat.record(self.env.now, self.queued)
        sanitizer = self.env._sanitizer
        if sanitizer is not None:
            sanitizer.register_node(self)
        return req

    def _note_admit(self, req: NodeRequest) -> None:
        """Stamp and account one request clearing admission control."""
        req.admitted_at = self.env.now
        blocked = self.env.now - req.submit_time
        self.admission_stat.observe(blocked)
        if req.tenant is not None and hasattr(req.tenant, "note_blocked"):
            req.tenant.note_blocked(blocked)

    def _note_drain(self, req: NodeRequest) -> None:
        """Account one request leaving the inbox for a service batch."""
        admitted = (
            req.admitted_at if req.admitted_at is not None else req.submit_time
        )
        wait = self.env.now - admitted
        self.wait_stat.observe(wait)
        if req.tenant is not None and hasattr(req.tenant, "note_queued"):
            req.tenant.note_queued(wait)

    def assert_drained(self) -> None:
        """Raise unless every accepted request was serviced or migrated."""
        backlog = self.queued + self.in_service + self.pending_admission
        if backlog or self.accepted != self.completed + self.migrated:
            raise RuntimeError(
                f"node {self.name}: {backlog} request(s) still in flight "
                f"({self.accepted} accepted, {self.completed} completed, "
                f"{self.migrated} migrated)"
            )

    def crash(self) -> list[NodeRequest]:
        """Kill the node, salvaging every request it has not yet settled.

        Returns the salvaged requests — the batch in service, the queued
        inbox, and submissions still blocked at admission control — in
        arrival order, for a failover manager to replay on survivors.
        Clients blocked on ``req.admitted`` are unblocked (their request
        is carried over), and the service loop is torn down. Device
        operations already issued by the dying batch run to completion on
        the devices; replaying their requests re-applies the same bytes
        to the same offsets, so salvage is idempotent.
        """
        if self.crashed:
            return []
        self.crashed = True
        salvaged: list[NodeRequest] = []
        for req in self._current_batch:
            if not req.event.triggered:
                salvaged.append(req)
        self._current_batch = []
        self.in_service = 0
        if (
            self._pending_get is not None
            and self._pending_get.triggered
            and self._pending_get.ok
        ):
            # a put handed this request to the loop's get, but the loop
            # never resumed to take it — it is in neither the batch nor
            # the inbox, and would be lost without this
            salvaged.append(self._pending_get.value)
        self._pending_get = None
        forget = getattr(self.inbox, "forget", None)
        if forget is not None:
            # unschedule queued items so the dead node's scheduler does
            # not keep counting bypasses against requests replayed elsewhere
            for item in self.inbox.items:
                forget(item)
        salvaged.extend(self.inbox.items)
        self.inbox.items.clear()
        for put in list(self.inbox._puts):
            if not put.triggered:
                put.succeed()  # unblock the client; its request migrates
                salvaged.append(put.item)
        self.inbox._puts.clear()
        self.migrated += len(salvaged)
        self.queue_stat.record(self.env.now, 0)
        self.utilization.idle(self.env.now)
        if self._proc.is_alive:
            self._proc.interrupt("crash")
        return salvaged

    @property
    def coalescing_ratio(self) -> float:
        """Client byte-range items per device request actually issued.

        > 1 means aggregation and/or caching removed device traffic.
        """
        ops = self.device_reads + self.device_writes
        return self.items_in / ops if ops else float("nan")

    # -- service loop -----------------------------------------------------------

    def _serve(self):
        try:
            yield from self._serve_loop()
        except Interrupt:
            return  # crashed: the salvage already happened in crash()

    def _serve_loop(self):
        env = self.env
        while True:
            self.utilization.idle(env.now)
            self._pending_get = self.inbox.get()
            first = yield self._pending_get
            self._pending_get = None
            self.utilization.busy(env.now)
            self._note_drain(first)
            batch = [first]
            self._current_batch = batch
            self.in_service = 1
            while len(batch) < self.batch_limit and self.inbox.items:
                self._pending_get = self.inbox.get()
                nxt = yield self._pending_get
                self._pending_get = None
                self._note_drain(nxt)
                batch.append(nxt)
                self.in_service = len(batch)
            self.queue_stat.record(env.now, self.queued)
            yield from self._service_batch(batch)
            self.completed += len(batch)
            self._current_batch = []
            self.in_service = 0
            self.batches += 1
            sanitizer = env._sanitizer
            if sanitizer is not None:
                sanitizer.on_ionode(self)

    def _service_batch(self, batch: list[NodeRequest]):
        env = self.env
        began = env.now
        self.items_in += sum(len(r.items) for r in batch)
        results: dict[int, list] = {id(r): [None] * len(r.items) for r in batch}
        errors: dict[int, BaseException] = {}
        jobs: list[_Job] = []

        self._plan_batch_writes(batch, jobs)
        self._plan_batch_reads(batch, results, jobs)

        if jobs:
            yield env.all_of([j.settled for j in jobs])
        self._settle_jobs(jobs, results, errors)

        for req in batch:
            if id(req) in errors:
                req.event.fail(errors[id(req)])
                continue
            if req.tenant is not None and hasattr(req.tenant, "note_service"):
                req.tenant.note_service(env.now - began, req.payload_bytes)
            if req.kind == "read":
                delivered = results[id(req)]
                self.read_requested_bytes += req.payload_bytes
                self.read_delivered_bytes += sum(len(a) for a in delivered)
                req.event.succeed(delivered)
            else:
                req.event.succeed(req.payload_bytes)

    # -- batch planning ----------------------------------------------------------

    def _plan_batch_writes(self, batch: list[NodeRequest], jobs: list[_Job]) -> None:
        """Coalesce the batch's write items per device and issue them."""
        per_device: dict[int, list[tuple[int, np.ndarray, NodeRequest]]] = {}
        for req in batch:
            if req.kind != "write":
                continue
            for (dev, offset, _), data in zip(req.items, req.data):
                per_device.setdefault(dev, []).append((offset, data, req))
        for dev, triples in per_device.items():
            for at, payload in plan_writes([(off, data) for off, data, _ in triples]):
                end = at + len(payload)
                consumers = [
                    req
                    for off, data, req in triples
                    if off >= at and off + len(data) <= end
                ]
                ev = self.devices[dev].write(at, payload)
                self.device_writes += 1
                self.device_bytes_written += len(payload)
                jobs.append(
                    _Job(
                        kind="write",
                        device=dev,
                        offset=at,
                        nbytes=len(payload),
                        settled=self.env.settle(ev),
                        consumers=consumers,
                        data=payload,
                    )
                )

    def _plan_batch_reads(
        self, batch: list[NodeRequest], results: dict[int, list], jobs: list[_Job]
    ) -> None:
        """Serve cache hits, then coalesce/sieve the misses per device."""
        per_device: dict[int, list[_ReadWant]] = {}
        for req in batch:
            if req.kind != "read":
                continue
            for slot, (dev, offset, nbytes) in enumerate(req.items):
                if nbytes == 0:
                    results[id(req)][slot] = np.empty(0, dtype=np.uint8)
                    continue
                if self.cache is not None:
                    hit = self.cache.lookup(dev, offset, nbytes)
                    if hit is not None:
                        results[id(req)][slot] = hit
                        continue
                per_device.setdefault(dev, []).append(
                    _ReadWant(offset, nbytes, req, slot)
                )
        for dev, wants in per_device.items():
            plan = plan_reads(
                [(w.offset, w.nbytes) for w in wants],
            )
            self.device_reads += len(plan.reads)
            self.device_bytes_read += plan.device_bytes
            self.read_payload_bytes += plan.payload_bytes
            self.sieve_waste_bytes += plan.waste_bytes
            if plan.sieved:
                self.sieved_batches += 1
            for at, n in plan.reads:
                consumers = [
                    w
                    for w in wants
                    if w.offset >= at and w.offset + w.nbytes <= at + n
                ]
                jobs.append(
                    _Job(
                        kind="read",
                        device=dev,
                        offset=at,
                        nbytes=n,
                        settled=self.env.settle(self.devices[dev].read(at, n)),
                        consumers=consumers,
                    )
                )

    def _settle_jobs(
        self,
        jobs: list[_Job],
        results: dict[int, list],
        errors: dict[int, BaseException],
    ) -> None:
        """Scatter device results to requests; record failures and coherence.

        Write jobs' cache effects are applied strictly *after* read
        installs: when a batch holds an overlapping read and write (an
        application race the sanitizer flags), a read job may have
        captured the pre-write bytes, and installing them last would
        leave a stale cached block served to every later client. With
        writes settled last, ``note_write`` overwrites (or invalidates)
        any block the write touched.
        """
        for job in jobs:
            if job.kind != "read":
                continue
            ok, value = job.settled.value
            if ok:
                for w in job.consumers:
                    lo = w.offset - job.offset
                    results[id(w.req)][w.slot] = value[lo : lo + w.nbytes].copy()
                if self.cache is not None:
                    self.cache.install(job.device, job.offset, value)
            else:
                for w in job.consumers:
                    errors.setdefault(id(w.req), value)
        for job in jobs:
            if job.kind != "write":
                continue
            ok, value = job.settled.value
            if ok:
                if self.cache is not None:
                    self.cache.note_write(job.device, job.offset, job.data)
            else:
                if self.cache is not None:
                    self.cache.invalidate_device(job.device)
                for req in job.consumers:
                    errors.setdefault(id(req), value)
