"""Tenant-aware request scheduling: virtual-time WFQ and its adapters.

:class:`WeightedFairQueue` implements start-time fair queueing (SFQ): each
request is stamped with a virtual start tag ``S = max(V, F_prev)`` and
finish tag ``F = S + cost / weight``; requests are served in ``(S, seq)``
order and the queue's virtual time ``V`` advances to the start tag of each
dispatched request. Over any contended interval, tenants receive device
service proportional to their weights, and a tenant that goes idle does
not bank credit (its next start tag jumps to ``V``). ``seq`` is a
monotonic per-scheduler sequence number — a deterministic FIFO tie-break,
so equal tags are served in arrival order, always.

Two adapters plug the scheduler into the existing layers without touching
their service loops' structure:

* :class:`QoSDevicePolicy` — a :class:`~repro.devices.scheduling.
  SchedulingPolicy` that orders a device controller's pending queue by
  scheduler key (replacing FCFS/SSTF/...);
* :class:`TenantStore` — a :class:`~repro.sim.sync.Store` whose
  ``get`` hands out the scheduler's choice instead of the oldest item
  (replacing an I/O node's FIFO inbox).

Starvation detection rides on dispatch: a request's ``bypassed`` count is
the number of later-arrived requests served while it waited; a request
bypassed more than ``starvation_threshold`` times triggers the
``on_starvation`` callback (wired to the engine sanitizer), which is the
"no tenant waits unboundedly while others are served" invariant. Only the
oldest waiting request's count is maintained eagerly — it always has the
maximal bypass count (every dispatch that bypasses anyone bypasses it),
so threshold crossings are detected exactly without the former O(backlog)
sweep per dispatch.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..devices.scheduling import SchedulingPolicy
from ..sim.engine import Environment
from ..sim.sync import Store
from .tenant import Tenant

__all__ = ["QoSTag", "WeightedFairQueue", "QoSDevicePolicy", "TenantStore"]


@dataclass(slots=True)
class QoSTag:
    """One request's scheduling stamp (attached as ``request.qos_tag``)."""

    tenant: Tenant
    seq: int
    start: float
    finish: float
    cost: float
    #: later-arriving requests served while this one waited
    bypassed: int = 0
    #: starvation already reported for this tag (report once)
    flagged: bool = field(default=False, repr=False)


class WeightedFairQueue:
    """Virtual-time weighted fair queue (SFQ), or FIFO in ``"fifo"`` mode.

    The scheduler does not own a queue; it stamps requests with
    :class:`QoSTag` via :meth:`tag`, orders them via :meth:`key`, and is
    told what was served via :meth:`dispatch`. That split lets one
    implementation drive both the device controllers' pending lists and
    the I/O nodes' inbox stores.
    """

    def __init__(
        self,
        mode: str = "wfq",
        starvation_threshold: int = 128,
        on_starvation: Callable[[QoSTag], None] | None = None,
    ):
        if mode not in ("wfq", "fifo"):
            raise ValueError(f"unknown scheduler mode {mode!r}")
        self.mode = mode
        self.starvation_threshold = starvation_threshold
        self.on_starvation = on_starvation
        self._vtime = 0.0
        self._seq = 0
        #: tenant -> virtual finish tag of its latest request
        self._finish: dict[Tenant, float] = {}
        #: seq -> tag, for every stamped-but-not-yet-dispatched request
        #: (insertion-ordered: the first entry is the oldest waiter)
        self._waiting: dict[int, QoSTag] = {}
        #: sorted seqs of dispatches newer than the oldest waiter — its
        #: exact bypass count; pruned as older waiters drain, so it stays
        #: about backlog-sized in steady state (it can grow while one
        #: request is starved, which is exactly when the count matters)
        self._disp_seqs: list[int] = []
        #: dispatches performed (sanity that the scheduler actually ran)
        self.dispatches = 0
        #: starvation flags raised
        self.starvations = 0

    @property
    def virtual_time(self) -> float:
        """The queue's virtual clock (advances on dispatch)."""
        return self._vtime

    @property
    def backlog(self) -> int:
        """Stamped requests not yet dispatched or cancelled."""
        return len(self._waiting)

    def tag(
        self, tenant: Tenant, cost: float
    ) -> QoSTag:
        """Stamp one request of ``cost`` (bytes) for ``tenant``.

        Requests must be tagged in arrival order (``seq`` doubles as the
        FIFO tie-break).
        """
        self._seq += 1
        start = max(self._vtime, self._finish.get(tenant, 0.0))
        finish = start + max(cost, 1.0) / tenant.weight
        self._finish[tenant] = finish
        t = QoSTag(
            tenant=tenant,
            seq=self._seq,
            start=start,
            finish=finish,
            cost=cost,
        )
        self._waiting[t.seq] = t
        return t

    def key(self, tag: QoSTag) -> tuple[float, int]:
        """Total dispatch order: smallest key is served next."""
        if self.mode == "fifo":
            return (0.0, tag.seq)
        return (tag.start, tag.seq)

    def dispatch(self, tag: QoSTag) -> None:
        """``tag``'s request was chosen for service: advance virtual time.

        Also maintains the exact bypass count of the *oldest* still-waiting
        request — the only one that can newly cross the starvation
        threshold, since its count dominates every younger waiter's — and
        fires ``on_starvation`` when it does (once per request). A
        waiter's ``bypassed`` field is therefore exact for the oldest
        waiter and a stale lower bound for younger ones until they in turn
        become oldest.
        """
        self._waiting.pop(tag.seq, None)
        self.dispatches += 1
        if self.mode == "wfq" and tag.start > self._vtime:
            self._vtime = tag.start
        if not self._waiting:
            self._disp_seqs.clear()
            return
        bisect.insort(self._disp_seqs, tag.seq)
        oldest = self._waiting[next(iter(self._waiting))]
        drop = bisect.bisect_right(self._disp_seqs, oldest.seq)
        if drop:
            del self._disp_seqs[:drop]
        # Every recorded dispatch has seq > oldest.seq, i.e. arrived later
        # yet was served first: exactly oldest's bypass count.
        oldest.bypassed = len(self._disp_seqs)
        if (
            oldest.bypassed > self.starvation_threshold
            and not oldest.flagged
        ):
            oldest.flagged = True
            self.starvations += 1
            if self.on_starvation is not None:
                self.on_starvation(oldest)

    def cancel(self, tag: QoSTag) -> None:
        """Forget a stamped request that will never be served here
        (crash salvage, device failure)."""
        self._waiting.pop(tag.seq, None)
        if not self._waiting:
            self._disp_seqs.clear()

    def clear(self) -> None:
        """Forget every waiting request (the whole queue was dropped)."""
        self._waiting.clear()
        self._disp_seqs.clear()


class QoSDevicePolicy(SchedulingPolicy):
    """Arm-scheduling adapter: order the pending queue by scheduler key.

    Requests are stamped lazily at select time — the controller appends
    to its pending list in arrival order, so tagging untagged entries in
    list order preserves the scheduler's arrival-order contract. The
    controller reports service via the :meth:`on_dispatch` /
    :meth:`on_clear` policy hooks.
    """

    name = "qos"

    def __init__(
        self,
        scheduler: WeightedFairQueue,
        resolve: Callable[[Any], Tenant],
    ):
        self.scheduler = scheduler
        self._resolve = resolve

    def select(self, pending: Sequence[Any], head: int) -> int:
        """Index of the pending request with the smallest scheduler key.

        ``pending`` holds :class:`~repro.devices.controller.IORequest`
        records, which carry a ``qos_tag`` slot (``None`` until stamped
        here).
        """
        scheduler = self.scheduler
        key = scheduler.key
        best = 0
        best_key = None
        for i, req in enumerate(pending):
            tag = req.qos_tag
            if tag is None:
                tag = req.qos_tag = scheduler.tag(
                    self._resolve(req.tenant),
                    max(req.nbytes, 1),
                )
            k = key(tag)
            if best_key is None or k < best_key:
                best, best_key = i, k
        return best

    def on_dispatch(self, request: Any) -> None:
        """The controller took ``request`` into service."""
        tag = request.qos_tag
        if tag is not None:
            self.scheduler.dispatch(tag)

    def on_clear(self) -> None:
        """The controller dropped its whole pending queue (device failed)."""
        self.scheduler.clear()


class TenantStore(Store):
    """A bounded store whose ``get`` follows the scheduler, not FIFO.

    An I/O node's inbox under QoS: admission control (capacity, blocking
    put) is the plain store's — only the *order* in which admitted items
    are handed to getters changes. Items are stamped on
    admission (``on_admit``), so requests blocked at a full inbox are not
    yet scheduled; admission order remains FIFO, which keeps admission
    itself starvation-free.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float,
        scheduler: WeightedFairQueue,
        resolve: Callable[[Any], Tenant],
        on_admitted: Callable[[Any], None] | None = None,
    ):
        super().__init__(env, capacity, on_admitted)
        self.scheduler = scheduler
        self._resolve = resolve

    def on_admit(self, item: Any) -> None:
        """Stamp an admitted request and notify the owning node."""
        item.qos_tag = self.scheduler.tag(
            self._resolve(getattr(item, "tenant", None)),
            max(getattr(item, "payload_bytes", 1), 1),
        )
        super().on_admit(item)

    def _take(self) -> Any:
        best = min(self.items, key=lambda it: self.scheduler.key(it.qos_tag))
        self.items.remove(best)
        self.scheduler.dispatch(best.qos_tag)
        return best

    def forget(self, item: Any) -> None:
        """Unschedule a queued item being salvaged elsewhere (crash)."""
        tag = getattr(item, "qos_tag", None)
        if tag is not None:
            self.scheduler.cancel(tag)
